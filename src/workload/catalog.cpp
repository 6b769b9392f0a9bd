#include "workload/catalog.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>

#include "apps/atlas.h"
#include "apps/btev.h"
#include "apps/cms.h"
#include "apps/entrada.h"
#include "apps/exerciser.h"
#include "apps/ivdgl.h"
#include "apps/ligo.h"
#include "apps/sdss.h"
#include "core/roster.h"
#include "util/calendar.h"

namespace grid3::workload {

std::string ScenarioSpec::serialize() const {
  std::ostringstream os;
  os << "scenario " << name << " v" << version << " seed=" << seed
     << " months=" << months << " job_scale=" << job_scale
     << " cpu_scale=" << cpu_scale << " replicas=" << roster_replicas
     << " quick=" << quick_months << "x" << quick_job_scale << "\n";
  for (const CampaignSpec& c : campaigns) os << c.serialize() << "\n";
  for (const std::string& b : collective_bundles) os << "bundle " << b << "\n";
  os << calendar.serialize();
  return os.str();
}

Window sc2003_window() {
  const Time from = util::time_of({2003, 10, 25});
  return {from, from + Time::days(30)};
}

Window table1_window() {
  return {util::time_of({2003, 10, 23}), util::time_of({2004, 4, 23})};
}

Window cms150_window() {
  const Time from = util::time_of({2003, 11, 1});
  return {from, from + Time::days(150)};
}

namespace {

using util::Distribution;

/// The mid-fabric site pool calendars rotate maintenance across (a mix
/// of every VO's medium sites; the Tier-1s stay out so archives keep
/// accepting data).
const std::vector<std::string>& rotation_sites() {
  static const std::vector<std::string> kSites{
      "UC_ATLAS",  "BU_ATLAS", "IU_ATLAS", "UFL_PG",   "UCSD_PG",
      "CIT_PG",    "JHU_SDSS", "UWM_LIGO", "VU_BTEV",  "UWMAD_CS",
      "LBNL_PDSF", "USC_ISI",
  };
  return kSites;
}

CampaignSpec cms_dc04_campaign(std::vector<double> monthly) {
  CampaignSpec c;
  c.vo = "uscms";
  c.app = "dc04";
  c.required_app = core::app::kCmsMop;
  c.lfn_prefix = "/grid3/uscms/dc04";
  c.arrivals.monthly = std::move(monthly);
  c.arrivals.diurnal_amplitude = 0.35;
  c.arrivals.diurnal_peak_hour = 14.0;
  c.arrivals.bursts_per_month = 2.0;
  c.arrivals.burst_multiplier = 3.0;
  c.arrivals.burst_duration = Time::hours(8);
  c.shape.shape = DagShape::kAssignmentChain;
  c.shape.width_min = 10;
  c.shape.width_max = 25;
  c.shape.runtime_hours = Distribution::lognormal_mean_cv(6.0, 0.5);
  c.shape.output_gb = Distribution::lognormal_mean_cv(1.5, 0.6);
  c.archive_site = "FNAL_CMS";
  c.archive_fallbacks = {"CERN"};
  return c;
}

CampaignSpec atlas_dc2_campaign(std::vector<double> monthly) {
  CampaignSpec c;
  c.vo = "usatlas";
  c.app = "dc2-mc";
  c.required_app = core::app::kAtlasGce;
  c.lfn_prefix = "/grid3/usatlas/dc2";
  c.arrivals.monthly = std::move(monthly);
  c.arrivals.diurnal_amplitude = 0.25;
  c.arrivals.diurnal_peak_hour = 15.0;
  c.shape.shape = DagShape::kFlatProduction;
  c.shape.width_min = 15;
  c.shape.width_max = 40;
  c.shape.runtime_hours = Distribution::lognormal_mean_cv(4.0, 0.4);
  c.shape.output_gb = Distribution::lognormal_mean_cv(0.8, 0.5);
  c.archive_site = "BNL_ATLAS";
  return c;
}

CampaignSpec ivdgl_backfill_campaign(std::vector<double> monthly) {
  CampaignSpec c;
  c.vo = "ivdgl";
  c.app = "gadu-scan";
  c.required_app = core::app::kGadu;
  c.lfn_prefix = "/grid3/ivdgl/gadu";
  c.arrivals.monthly = std::move(monthly);
  c.arrivals.diurnal_amplitude = 0.5;
  c.arrivals.diurnal_peak_hour = 13.0;
  c.shape.shape = DagShape::kBackfill;
  c.shape.runtime_hours =
      Distribution::clamped(Distribution::exponential(0.7), 0.1, 4.0);
  c.shape.output_gb = Distribution::constant(0.05);
  c.shape.scratch_gb = 0.5;
  return c;
}

CampaignSpec sdss_coadd_campaign(std::vector<double> monthly) {
  CampaignSpec c;
  c.vo = "sdss";
  c.app = "coadd-batch";
  c.required_app = core::app::kSdssCoadd;
  c.lfn_prefix = "/grid3/sdss/coadd";
  c.arrivals.monthly = std::move(monthly);
  c.arrivals.diurnal_amplitude = 0.3;
  c.shape.shape = DagShape::kFlatProduction;
  c.shape.width_min = 5;
  c.shape.width_max = 10;
  c.shape.runtime_hours = Distribution::lognormal_mean_cv(2.0, 0.4);
  c.shape.output_gb = Distribution::constant(0.5);
  c.archive_site = "FNAL_SDSS";
  return c;
}

CampaignSpec ligo_scan_campaign(std::vector<double> monthly) {
  CampaignSpec c;
  c.vo = "ligo";
  c.app = "pulsar-scan";
  c.required_app = core::app::kLigoPulsar;
  c.lfn_prefix = "/grid3/ligo/scan";
  c.arrivals.monthly = std::move(monthly);
  c.arrivals.diurnal_amplitude = 0.2;
  c.shape.shape = DagShape::kFlatProduction;
  c.shape.width_min = 3;
  c.shape.width_max = 6;
  c.shape.runtime_hours = Distribution::lognormal_mean_cv(1.5, 0.3);
  c.shape.output_gb = Distribution::constant(0.2);
  c.archive_site = "LIGO_Hanford";
  return c;
}

ScenarioSpec base_spec(const std::string& name, std::uint64_t seed) {
  ScenarioSpec s;
  s.name = name;
  s.seed = seed;
  return s;
}

ScenarioSpec make_grid30_2month(std::uint64_t seed) {
  ScenarioSpec s = base_spec("grid30-2month", seed);
  s.summary = "the bench/grid30 campaign: historical app mix at 10x scale";
  s.stressor = "fabric scale (270 sites, ~29k CPUs)";
  s.months = 2;
  s.roster_replicas = 10;
  s.quick_months = 1;
  s.quick_job_scale = 0.05;
  return s;
}

ScenarioSpec make_table1_7month(std::uint64_t seed) {
  ScenarioSpec s = base_spec("table1-7month", seed);
  s.summary = "the full Table 1 reproduction: 7 months, historical app mix";
  s.stressor = "long-horizon accounting fidelity";
  s.months = 7;
  s.quick_months = 1;
  s.quick_job_scale = 0.05;
  return s;
}

ScenarioSpec make_sc2003_demo(std::uint64_t seed) {
  ScenarioSpec s = base_spec("sc2003-demo", seed);
  s.summary =
      "the two-month historical window covering the SC2003 demo burst";
  s.stressor = "gatekeeper overload under the conference push";
  s.months = 2;
  // Quick mode keeps both months (the demo burst the placement layer
  // must absorb is in the second) and thins the workload instead.
  s.quick_months = 2;
  s.quick_job_scale = 0.4;
  return s;
}

ScenarioSpec make_cms_dc04(std::uint64_t seed) {
  ScenarioSpec s = base_spec("cms-dc04", seed);
  s.summary = "CMS DC04-style assignment production with validate/merge";
  s.stressor = "wide fan-in chains + archive stage-out pressure";
  s.months = 3;
  s.quick_months = 1;
  s.quick_job_scale = 0.5;
  s.campaigns = {cms_dc04_campaign({40, 90, 140})};
  return s;
}

ScenarioSpec make_atlas_dc2(std::uint64_t seed) {
  ScenarioSpec s = base_spec("atlas-dc2", seed);
  s.summary = "ATLAS DC2-style flat Monte-Carlo batches";
  s.stressor = "bulk independent-job throughput";
  s.months = 3;
  s.quick_months = 1;
  s.quick_job_scale = 0.5;
  s.campaigns = {atlas_dc2_campaign({60, 120, 160})};
  return s;
}

ScenarioSpec make_mixed_opportunistic(std::uint64_t seed) {
  ScenarioSpec s = base_spec("mixed-opportunistic", seed);
  s.summary =
      "CMS chains + ATLAS batches + opportunistic iVDGL short-job backfill";
  s.stressor = "multi-VO contention and fair sharing";
  s.months = 2;
  s.quick_months = 1;
  s.quick_job_scale = 0.4;
  s.campaigns = {cms_dc04_campaign({50, 80}), atlas_dc2_campaign({70, 110}),
                 ivdgl_backfill_campaign({600, 900})};
  return s;
}

ScenarioSpec make_sc2003_burst(std::uint64_t seed) {
  ScenarioSpec s = base_spec("sc2003-burst", seed);
  s.summary = "conference-demo demand: heavy correlated burst windows";
  s.stressor = "correlated arrival bursts (SC2003-style pushes)";
  s.months = 2;
  s.quick_months = 2;  // the bursts are the point; keep both months
  s.quick_job_scale = 0.4;
  CampaignSpec atlas = atlas_dc2_campaign({50, 90});
  atlas.arrivals.bursts_per_month = 6.0;
  atlas.arrivals.burst_multiplier = 5.0;
  atlas.arrivals.burst_duration = Time::hours(12);
  atlas.arrivals.diurnal_amplitude = 0.4;
  CampaignSpec backfill = ivdgl_backfill_campaign({400, 600});
  backfill.arrivals.bursts_per_month = 6.0;
  backfill.arrivals.burst_multiplier = 5.0;
  backfill.arrivals.burst_duration = Time::hours(12);
  s.campaigns = {std::move(atlas), std::move(backfill)};
  return s;
}

ScenarioSpec make_outage_storm(std::uint64_t seed) {
  ScenarioSpec s = base_spec("outage-storm", seed);
  s.summary = "production under collective-service storms and WAN weather";
  s.stressor = "collective outages + WAN degradation";
  s.months = 2;
  s.quick_months = 1;
  s.quick_job_scale = 0.5;
  s.campaigns = {cms_dc04_campaign({60, 90}), atlas_dc2_campaign({80, 120})};
  s.collective_bundles = {"igoc-collective", "uscms-collective"};
  s.calendar.add_collective_storm("igoc-collective", Time::days(10),
                                  Time::days(7), Time::hours(4), 6);
  s.calendar.add_collective_storm("uscms-collective", Time::days(12),
                                  Time::days(10), Time::hours(6), 4);
  s.calendar.add_wan_weather(rotation_sites(), Time::days(2), Time::days(56),
                             Distribution::lognormal_mean_cv(5.0, 0.8), 24,
                             seed);
  return s;
}

ScenarioSpec make_maintenance_season(std::uint64_t seed) {
  ScenarioSpec s = base_spec("maintenance-season", seed);
  s.summary = "rolling scheduled site maintenance under steady production";
  s.stressor = "scheduled-downtime churn (INFN-GRID calendar idiom)";
  s.months = 3;
  s.quick_months = 1;
  s.quick_job_scale = 0.5;
  s.campaigns = {atlas_dc2_campaign({70, 100, 120}),
                 sdss_coadd_campaign({40, 60, 60})};
  s.calendar.add_site_rotation(rotation_sites(), Time::days(3),
                               Time::days(3) + Time::hours(12),
                               Time::hours(8), 24);
  s.calendar.add_wan_weather(rotation_sites(), Time::days(5), Time::days(84),
                             Distribution::lognormal_mean_cv(3.0, 0.6), 8,
                             seed);
  return s;
}

ScenarioSpec make_calib_month(std::uint64_t seed) {
  ScenarioSpec s = base_spec("calib-month", seed);
  s.summary = "small single-month LIGO + SDSS calibration batches";
  s.stressor = "light-load baseline (fast smoke anchor)";
  s.months = 1;
  s.quick_months = 1;
  s.quick_job_scale = 0.3;
  s.campaigns = {ligo_scan_campaign({80}), sdss_coadd_campaign({50})};
  return s;
}

}  // namespace

const std::vector<std::string>& ScenarioCatalog::names() {
  static const std::vector<std::string> kNames{
      "grid30-2month",  "table1-7month",       "sc2003-demo",
      "cms-dc04",       "atlas-dc2",           "mixed-opportunistic",
      "sc2003-burst",   "outage-storm",        "maintenance-season",
      "calib-month",
  };
  return kNames;
}

ScenarioSpec ScenarioCatalog::get(const std::string& name,
                                  std::uint64_t seed) {
  if (name == "grid30-2month") return make_grid30_2month(seed);
  if (name == "table1-7month") return make_table1_7month(seed);
  if (name == "sc2003-demo") return make_sc2003_demo(seed);
  if (name == "cms-dc04") return make_cms_dc04(seed);
  if (name == "atlas-dc2") return make_atlas_dc2(seed);
  if (name == "mixed-opportunistic") return make_mixed_opportunistic(seed);
  if (name == "sc2003-burst") return make_sc2003_burst(seed);
  if (name == "outage-storm") return make_outage_storm(seed);
  if (name == "maintenance-season") return make_maintenance_season(seed);
  if (name == "calib-month") return make_calib_month(seed);
  throw std::out_of_range("unknown catalog scenario: " + name);
}

StackConfig modern_stack() { return {}; }

StackConfig legacy_stack() {
  StackConfig s;
  s.name = "legacy";
  s.policy = broker::PolicyKind::kNone;
  s.placement_leases = false;
  s.health_breakers = false;
  return s;
}

namespace {

/// Users registered for a VO during assembly.
const core::VoUsers* users_for(const core::Assembled& assembled,
                               const std::string& vo) {
  for (const auto& vu : assembled.users) {
    if (vu.vo == vo) return &vu;
  }
  return nullptr;
}

template <typename App>
void wire_users(App& app, const core::Assembled& assembled,
                const std::string& vo) {
  if (const core::VoUsers* vu = users_for(assembled, vo)) {
    app.set_users(vu->app_admins, vu->users);
  }
}

/// A demonstrator driver at the run's horizon and job scale.
template <typename App>
std::unique_ptr<App> make_app(core::Grid3& grid, int months,
                              double job_scale) {
  typename App::Options opts;
  opts.job_scale = job_scale;
  opts.months = months;
  return std::make_unique<App>(grid, opts);
}

}  // namespace

/// The eight historical application demonstrators (paper section 4),
/// calibrated to Table 1.  Declared in construction order; each forks
/// the grid RNG when built.
struct CatalogRun::Demonstrators {
  std::unique_ptr<apps::AtlasGce> atlas;
  std::unique_ptr<apps::CmsMop> cms;
  std::unique_ptr<apps::SdssCoadd> sdss;
  std::unique_ptr<apps::LigoPulsar> ligo;
  std::unique_ptr<apps::BtevSim> btev;
  std::unique_ptr<apps::IvdglApps> ivdgl;
  std::unique_ptr<apps::CondorExerciser> exerciser;
  std::unique_ptr<apps::EntradaDemo> entrada;

  Demonstrators(core::Grid3& grid, const core::Assembled& assembled,
                int months, double job_scale) {
    atlas = make_app<apps::AtlasGce>(grid, months, job_scale);
    wire_users(*atlas, assembled, "usatlas");
    cms = make_app<apps::CmsMop>(grid, months, job_scale);
    wire_users(*cms, assembled, "uscms");
    cms->register_pileup_dataset();
    sdss = make_app<apps::SdssCoadd>(grid, months, job_scale);
    wire_users(*sdss, assembled, "sdss");
    sdss->register_survey_segments(8);
    ligo = make_app<apps::LigoPulsar>(grid, months, job_scale);
    wire_users(*ligo, assembled, "ligo");
    btev = make_app<apps::BtevSim>(grid, months, job_scale);
    wire_users(*btev, assembled, "btev");
    ivdgl = make_app<apps::IvdglApps>(grid, months, job_scale);
    exerciser = make_app<apps::CondorExerciser>(grid, months, job_scale);

    // Table 1 user split inside the iVDGL VO: 24 members ran SnB/GADU, a
    // separate 3-identity Condor-group pool ran the exerciser; the rest
    // are authorized but idle.
    if (const core::VoUsers* iv = users_for(assembled, "ivdgl")) {
      std::vector<vo::Certificate> snb_users{
          iv->users.begin(),
          iv->users.begin() +
              std::min<std::size_t>(22, iv->users.size())};
      ivdgl->set_users(iv->app_admins, snb_users);
      std::vector<vo::Certificate> probe_users{
          iv->users.end() - std::min<std::size_t>(3, iv->users.size()),
          iv->users.end()};
      exerciser->set_users(probe_users, {});
    }

    entrada = make_app<apps::EntradaDemo>(grid, months, job_scale);
    if (const core::VoUsers* iv = users_for(assembled, "ivdgl")) {
      entrada->set_users(iv->app_admins, {});
    }
  }

  void start() {
    atlas->start();
    cms->start();
    sdss->start();
    ligo->start();
    btev->start();
    ivdgl->start();
    exerciser->start();
    entrada->start();
  }
};

CatalogRun::CatalogRun(const ScenarioSpec& spec, bool quick,
                       const StackConfig& stack)
    : spec_{spec},
      stack_{stack},
      months_{quick ? spec.quick_months : spec.months},
      job_scale_{quick ? spec.job_scale * spec.quick_job_scale
                       : spec.job_scale},
      fluct_rng_{spec.seed ^ 0xf1c7u} {
  wall_start_ = std::chrono::steady_clock::now();
  grid_ = std::make_unique<core::Grid3>(sim_, spec_.seed);
  core::Grid3& grid = *grid_;
  core::AssembleOptions ao;
  ao.cpu_scale = spec_.cpu_scale;
  ao.roster_replicas = spec_.roster_replicas;
  const core::Assembled assembled = core::assemble_grid3(grid, ao);

  // Brokers must exist before the demonstrators: each AppBase binds its
  // planner to its VO's broker at construction.
  if (stack.policy != broker::PolicyKind::kNone) {
    broker::BrokerConfig bcfg;
    bcfg.placement_leases = stack.placement_leases;
    for (const std::string& vo : core::canonical_vos()) {
      grid.attach_broker(vo, stack.policy, bcfg);
    }
  }

  // A spec without campaigns replays the historical demonstrators; a
  // campaign spec skips them entirely (their RNG forks included, so
  // campaign streams do not depend on them).
  if (spec_.campaigns.empty()) {
    demonstrators_ =
        std::make_unique<Demonstrators>(grid, assembled, months_, job_scale_);
  }

  if (stack.health_breakers) grid.attach_health();

  // Name the collective bundles the calendar targets; only the
  // scheduled windows take them down.
  for (const std::string& bundle : spec_.collective_bundles) {
    if (bundle == "igoc-collective") {
      grid.arm_igoc_collective_failures();
    } else if (const auto pos = bundle.rfind("-collective");
               pos != std::string::npos && pos > 0) {
      grid.arm_vo_collective_failures(bundle.substr(0, pos));
    }
  }

  // Campaign drivers, in spec order (each forks the grid RNG at
  // construction, so the order is part of the determinism contract).
  // Quick mode scales each campaign's arrival volume with the fabric's
  // job_scale and clips its schedule to the run horizon.
  for (const CampaignSpec& c : spec_.campaigns) {
    CampaignSpec scaled = c;
    scaled.arrivals.scale *= job_scale_;
    if (scaled.arrivals.months() > months_) {
      scaled.arrivals.monthly.resize(static_cast<std::size_t>(months_));
    }
    auto driver = std::make_unique<CampaignDriver>(
        grid, std::move(scaled), spec_.seed ^ fnv1a64(c.vo + "/" + c.app));
    if (const core::VoUsers* vu = users_for(assembled, c.vo)) {
      driver->set_users(vu->app_admins, vu->users);
    }
    drivers_.push_back(std::move(driver));
  }

  spec_.calendar.compile(grid);
}

CatalogRun::~CatalogRun() = default;

void CatalogRun::start() {
  if (started_) return;
  started_ = true;
  for (const auto& site : grid_->sites()) {
    base_cpus_.push_back(site->cpus());
  }
  // The section 7 CPU-count fluctuation: every two weeks, shared sites
  // resize within 80-105% of their base capacity (withdrawing nodes kills
  // the jobs on them, as the paper's disk/node replacements did at
  // unlucky sites); dedicated sites stay fixed.
  fluctuation_ = std::make_unique<sim::PeriodicProcess>(
      sim_, Time::days(14), [this] {
        const auto& sites = grid_->sites();
        for (std::size_t i = 0; i < sites.size(); ++i) {
          if (sites[i]->config().policy.dedicated) continue;
          const int target = std::max(
              2, static_cast<int>(base_cpus_[i] *
                                  fluct_rng_.uniform(0.80, 1.05)));
          sites[i]->scheduler().resize(target, fluct_rng_);
        }
        return true;
      });
  fluctuation_->start(Time::days(10));
  if (demonstrators_) {
    // The SC2003 conference demonstration (paper section 7: "On Nov. 20,
    // 2003 there were sustained periods when over 1300 jobs ran
    // simultaneously"): a coordinated push that floods the grid with
    // medium-length jobs for a day.  Sized to capacity, not to workload.
    if (months_ >= 2) {
      const int burst_jobs = static_cast<int>(1400 * spec_.cpu_scale);
      if (burst_jobs > 0) {
        demonstrators_->ivdgl->demo_burst(util::time_of({2003, 11, 20}),
                                          burst_jobs);
      }
    }
    demonstrators_->start();
  }
  for (auto& d : drivers_) d->start();
}

void CatalogRun::run_until(Time t) {
  start();
  sim_.run_until(t);
}

void CatalogRun::run() { run_until(util::month_start(months_)); }

RunResult CatalogRun::finish() const {
  RunResult out;
  out.scenario = spec_.name;
  out.stack = stack_.name;
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start_)
          .count();
  out.events = sim_.executed();
  core::Grid3& grid = *grid_;
  const auto& db = grid.igoc().job_db();
  out.jobs = db.size();
  for (const monitoring::JobRecord& r : db.records()) {
    if (r.success) {
      ++out.completed;
    } else {
      ++out.failed;
    }
  }
  for (const auto& d : drivers_) out.workflows += d->launched();
  out.downtimes =
      grid.failures().incidents(core::Incident::kScheduledDowntime);
  out.wan_events = grid.failures().incidents(core::Incident::kWanWeather);
  for (const std::string& vo : core::canonical_vos()) {
    if (const broker::ResourceBroker* b = grid.broker(vo)) {
      out.match_log += "== " + vo + " ==\n" + b->serialize_match_log();
    }
  }

  const std::uint64_t h = fnv1a64(out.match_log);
  std::ostringstream tail;
  tail << "jobs=" << out.jobs << "|ok=" << out.completed
       << "|failed=" << out.failed << "|wf=" << out.workflows
       << "|downtime=" << out.downtimes << "|wan=" << out.wan_events;
  out.digest = digest_hex(fnv1a64(tail.str(), h));
  return out;
}

RunResult run_scenario(const ScenarioSpec& spec, bool quick,
                       const StackConfig& stack) {
  CatalogRun run{spec, quick, stack};
  run.run();
  return run.finish();
}

}  // namespace grid3::workload
