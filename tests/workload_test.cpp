// Unit tests for the workload layer: campaign generators (thinning
// sampler, DAG shape families), the ops calendar, and the scenario
// catalog's (name, seed) determinism contract.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>

#include "core/grid3.h"
#include "core/roster.h"
#include "util/calendar.h"
#include "workload/campaign.h"
#include "workload/catalog.h"
#include "workload/ops_calendar.h"

namespace grid3::workload {
namespace {

CampaignSpec small_campaign() {
  CampaignSpec c;
  c.vo = "usatlas";
  c.app = "test-mc";
  c.required_app = core::app::kAtlasGce;
  c.lfn_prefix = "/test/mc";
  c.arrivals.monthly = {40, 60};
  c.arrivals.diurnal_amplitude = 0.3;
  c.arrivals.bursts_per_month = 2.0;
  c.arrivals.burst_multiplier = 3.0;
  c.shape.shape = DagShape::kAssignmentChain;
  c.shape.width_min = 3;
  c.shape.width_max = 6;
  c.shape.runtime_hours = util::Distribution::lognormal_mean_cv(2.0, 0.4);
  c.shape.output_gb = util::Distribution::constant(1.0);
  c.archive_site = "BNL_ATLAS";
  return c;
}

/// Drain a generator into its canonical text stream.
std::string drain(CampaignGenerator& gen) {
  std::ostringstream os;
  while (const auto wf = gen.next()) {
    os << CampaignGenerator::serialize(*wf);
  }
  return os.str();
}

TEST(CampaignGenerator, SameSpecAndSeedYieldByteIdenticalStreams) {
  CampaignGenerator a{small_campaign(), 42};
  CampaignGenerator b{small_campaign(), 42};
  const std::string sa = drain(a);
  EXPECT_FALSE(sa.empty());
  EXPECT_EQ(sa, drain(b));
}

TEST(CampaignGenerator, DifferentSeedsDiverge) {
  CampaignGenerator a{small_campaign(), 42};
  CampaignGenerator b{small_campaign(), 43};
  EXPECT_NE(drain(a), drain(b));
}

TEST(CampaignGenerator, AssignmentChainShape) {
  CampaignGenerator gen{small_campaign(), 7};
  const auto wf = gen.next();
  ASSERT_TRUE(wf.has_value());
  // width prod jobs + validate + merge.
  const auto width = static_cast<int>(wf->jobs.size()) - 2;
  EXPECT_GE(width, 3);
  EXPECT_LE(width, 6);
  const JobBlueprint& validate = wf->jobs[wf->jobs.size() - 2];
  const JobBlueprint& merge = wf->jobs.back();
  EXPECT_EQ(validate.transformation, "test-mc-validate");
  EXPECT_EQ(merge.transformation, "test-mc-merge");
  // The validate step consumes every production part; the merge step
  // consumes the parts plus the validation blessing and is the target.
  EXPECT_EQ(validate.inputs.size(), static_cast<std::size_t>(width));
  EXPECT_EQ(merge.inputs.size(), static_cast<std::size_t>(width) + 1);
  ASSERT_EQ(wf->targets.size(), 1u);
  EXPECT_EQ(wf->targets.front(), merge.outputs.front());
}

TEST(CampaignGenerator, BackfillIsSingleJob) {
  CampaignSpec c = small_campaign();
  c.shape.shape = DagShape::kBackfill;
  CampaignGenerator gen{c, 7};
  const auto wf = gen.next();
  ASSERT_TRUE(wf.has_value());
  EXPECT_EQ(wf->jobs.size(), 1u);
}

TEST(ThinningSampler, TracksTargetVolumeAndDiurnalShape) {
  ArrivalSpec spec;
  spec.monthly = {3000};
  spec.diurnal_amplitude = 0.4;
  spec.diurnal_peak_hour = 14.0;
  ThinningSampler sampler{spec, util::Rng{99}};

  std::size_t total = 0;
  std::map<int, std::size_t> by_hour;
  Time t = Time::zero();
  while (const auto at = sampler.next(t)) {
    t = *at;
    ++total;
    ++by_hour[static_cast<int>(t.to_hours()) % 24];
  }
  // Thinning preserves the target monthly volume (Poisson noise on 3000
  // arrivals has sd ~55; 10% is a generous band).
  EXPECT_NEAR(static_cast<double>(total), 3000.0, 300.0);
  // And the diurnal modulation shows: early-afternoon arrivals clearly
  // outnumber the small-hours trough.
  const double peak = static_cast<double>(by_hour[13] + by_hour[14] +
                                          by_hour[15]);
  const double trough = static_cast<double>(by_hour[1] + by_hour[2] +
                                            by_hour[3]);
  EXPECT_GT(peak, 1.5 * trough);
}

TEST(ThinningSampler, RateNeverExceedsEnvelope) {
  ArrivalSpec spec;
  spec.monthly = {500, 1500};
  spec.diurnal_amplitude = 0.5;
  spec.bursts_per_month = 3.0;
  spec.burst_multiplier = 4.0;
  ThinningSampler sampler{spec, util::Rng{5}};
  for (Time t = Time::zero(); t < util::month_start(2);
       t += Time::hours(3)) {
    EXPECT_LE(sampler.rate_per_day(t), sampler.envelope_per_day() + 1e-9);
  }
}

TEST(OpsCalendar, SerializeIsInsertionOrderIndependent) {
  OpsCalendar a;
  a.add({CalendarEvent::Kind::kSiteMaintenance, "B", Time::days(2),
         Time::hours(4)});
  a.add({CalendarEvent::Kind::kSiteMaintenance, "A", Time::days(1),
         Time::hours(4)});
  OpsCalendar b;
  b.add({CalendarEvent::Kind::kSiteMaintenance, "A", Time::days(1),
         Time::hours(4)});
  b.add({CalendarEvent::Kind::kSiteMaintenance, "B", Time::days(2),
         Time::hours(4)});
  EXPECT_EQ(a.serialize(), b.serialize());
}

TEST(OpsCalendar, WanWeatherTraceIsSeedDeterministic) {
  const std::vector<std::string> sites{"A", "B", "C"};
  const auto dist = util::Distribution::lognormal_mean_cv(4.0, 0.5);
  OpsCalendar a, b, c;
  a.add_wan_weather(sites, Time::days(1), Time::days(30), dist, 10, 1);
  b.add_wan_weather(sites, Time::days(1), Time::days(30), dist, 10, 1);
  c.add_wan_weather(sites, Time::days(1), Time::days(30), dist, 10, 2);
  EXPECT_EQ(a.serialize(), b.serialize());
  EXPECT_NE(a.serialize(), c.serialize());
  EXPECT_EQ(a.size(), 10u);
}

/// A bare assembled fabric (no workload at all) for injector tests.
struct BareFabric {
  sim::Simulation sim;
  core::Grid3 grid;

  explicit BareFabric(std::uint64_t seed) : grid{sim, seed} {
    core::assemble_grid3(grid);
  }
};

TEST(OpsCalendar, CompiledWindowsFireAsScheduledDowntime) {
  BareFabric fabric{11};
  OpsCalendar cal;
  cal.add({CalendarEvent::Kind::kSiteMaintenance, "BNL_ATLAS",
           Time::days(2), Time::hours(4)});
  cal.add({CalendarEvent::Kind::kWanWeather, "FNAL_CMS", Time::days(3),
           Time::hours(6)});
  cal.compile(fabric.grid);
  fabric.sim.run_until(Time::days(5));
  const auto& failures = fabric.grid.failures();
  EXPECT_EQ(failures.incidents(core::Incident::kScheduledDowntime), 1u);
  EXPECT_EQ(failures.incidents(core::Incident::kWanWeather), 1u);
}

TEST(OpsCalendar, CompilationConsumesNoRandomness) {
  // Two identical seeded fabrics, one with a compiled calendar: the
  // random failure processes must draw identically, so their incident
  // counts match exactly -- scheduled windows ride alongside without
  // perturbing any stream.
  const auto count_random = [](const core::FailureInjector& f) {
    return f.incidents(core::Incident::kDiskFill) +
           f.incidents(core::Incident::kGatekeeperCrash) +
           f.incidents(core::Incident::kNetworkCut) +
           f.incidents(core::Incident::kServiceCrash);
  };
  BareFabric plain{17};
  plain.sim.run_until(Time::days(20));

  BareFabric calendared{17};
  OpsCalendar cal;
  cal.add_site_rotation({"UC_ATLAS", "UFL_PG", "JHU_SDSS"}, Time::days(2),
                        Time::days(3), Time::hours(8), 5);
  cal.compile(calendared.grid);
  calendared.sim.run_until(Time::days(20));

  EXPECT_GT(count_random(plain.grid.failures()), 0u);
  EXPECT_EQ(count_random(plain.grid.failures()),
            count_random(calendared.grid.failures()));
  EXPECT_EQ(
      calendared.grid.failures().incidents(core::Incident::kScheduledDowntime),
      5u);
}

TEST(ScenarioCatalog, NamesResolveAndUnknownThrows) {
  EXPECT_GE(ScenarioCatalog::names().size(), 8u);
  for (const std::string& name : ScenarioCatalog::names()) {
    const ScenarioSpec spec = ScenarioCatalog::get(name, 1);
    EXPECT_EQ(spec.name, name);
    EXPECT_GE(spec.version, 1);
    EXPECT_FALSE(spec.summary.empty());
  }
  EXPECT_THROW((void)ScenarioCatalog::get("no-such-scenario", 1),
               std::out_of_range);
}

TEST(ScenarioCatalog, SpecsAreSeedDeterministic) {
  for (const std::string& name : ScenarioCatalog::names()) {
    EXPECT_EQ(ScenarioCatalog::get(name, 7).serialize(),
              ScenarioCatalog::get(name, 7).serialize());
  }
  // A seeded trace generator (WAN weather) makes the spec itself vary
  // with the seed; every spec records the seed in its options.
  EXPECT_NE(ScenarioCatalog::get("outage-storm", 7).serialize(),
            ScenarioCatalog::get("outage-storm", 8).serialize());
}

TEST(ScenarioCatalog, QuickOptionsShrinkTheRun) {
  const ScenarioSpec spec = ScenarioCatalog::get("cms-dc04", 1);
  const CatalogRun full{spec, /*quick=*/false, modern_stack()};
  const CatalogRun quick{spec, /*quick=*/true, modern_stack()};
  EXPECT_EQ(full.months(), spec.months);
  EXPECT_EQ(full.job_scale(), spec.job_scale);
  EXPECT_EQ(quick.months(), spec.quick_months);
  EXPECT_LT(quick.months(), full.months());
  EXPECT_LT(quick.job_scale(), full.job_scale());
}

/// The ACDC application labels a run recorded.
std::set<std::string> recorded_apps(CatalogRun& run) {
  std::set<std::string> apps;
  for (const monitoring::JobRecord& r : run.grid().igoc().job_db().records()) {
    apps.insert(r.app);
  }
  return apps;
}

TEST(CatalogRun, StackConfigAloneAttachesBrokersLedgersAndBreakers) {
  StackConfig no_breakers = modern_stack();
  no_breakers.name = "no-breakers";
  no_breakers.health_breakers = false;
  for (const StackConfig& stack :
       {modern_stack(), legacy_stack(), no_breakers}) {
    SCOPED_TRACE(stack.name);
    ScenarioSpec spec = ScenarioCatalog::get("calib-month", 5);
    spec.cpu_scale = 0.1;
    CatalogRun run{spec, /*quick=*/true, stack};
    const bool brokered = stack.policy != broker::PolicyKind::kNone;
    for (const std::string& vo : core::canonical_vos()) {
      EXPECT_EQ(run.grid().broker(vo) != nullptr, brokered) << vo;
      EXPECT_EQ(run.grid().placement(vo) != nullptr,
                brokered && stack.placement_leases)
          << vo;
    }
    EXPECT_EQ(run.grid().health() != nullptr, stack.health_breakers);
  }
}

TEST(CatalogRun, NoCampaignsMeansTheHistoricalDemonstrators) {
  ScenarioSpec spec;
  spec.cpu_scale = 0.1;
  spec.job_scale = 0.05;
  spec.months = 1;
  CatalogRun run{spec, /*quick=*/false, legacy_stack()};
  run.run_until(Time::days(5));
  const std::set<std::string> demonstrators{
      core::app::kAtlasGce, core::app::kCmsMop, core::app::kSdssCoadd,
      core::app::kLigoPulsar, core::app::kBtevSim, core::app::kSnb,
      core::app::kGadu, core::app::kExerciser, core::app::kEntrada};
  const std::set<std::string> apps = recorded_apps(run);
  EXPECT_GE(apps.size(), 3u);
  for (const std::string& app : apps) {
    EXPECT_TRUE(demonstrators.contains(app)) << app;
  }
}

TEST(CatalogRun, CampaignSpecRecordsOnlyItsCampaignLabels) {
  CatalogRun run{ScenarioCatalog::get("calib-month", 3), /*quick=*/true,
                 modern_stack()};
  run.run();
  EXPECT_EQ(recorded_apps(run),
            (std::set<std::string>{"coadd-batch", "pulsar-scan"}));
}

TEST(CatalogRun, CampaignScenarioLaunchesAndDigestsDeterministically) {
  const ScenarioSpec spec = ScenarioCatalog::get("calib-month", 3);
  const RunResult a = run_scenario(spec, /*quick=*/true, modern_stack());
  EXPECT_GT(a.jobs, 0u);
  EXPECT_GT(a.workflows, 0u);
  EXPECT_EQ(a.digest.size(), 16u);
  const RunResult b = run_scenario(spec, /*quick=*/true, modern_stack());
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.match_log, b.match_log);
  EXPECT_EQ(a.jobs, b.jobs);
}

}  // namespace
}  // namespace grid3::workload
