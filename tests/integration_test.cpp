// Integration tests: a scaled-down Grid2003 scenario run end to end,
// checking the cross-module invariants the paper's evaluation relies on.
#include <gtest/gtest.h>

#include "core/metrics.h"
#include "util/calendar.h"
#include "workload/catalog.h"

namespace grid3::workload {
namespace {

/// The historical demonstrator mix (a spec without campaigns) under the
/// paper's favorite-sites stack.
ScenarioSpec historical(double cpu_scale, double job_scale, int months) {
  ScenarioSpec spec;
  spec.cpu_scale = cpu_scale;
  spec.job_scale = job_scale;
  spec.months = months;
  return spec;
}

/// One shared scenario run for all integration assertions (building and
/// running it is the expensive part).
class ScenarioTest : public ::testing::Test {
 protected:
  static CatalogRun* scenario;

  static void SetUpTestSuite() {
    // ~330 CPUs, ~15k accounting records, Oct-Dec 2003 covers SC2003.
    scenario = new CatalogRun(historical(0.12, 0.05, 3), /*quick=*/false,
                              legacy_stack());
    scenario->run();
  }

  static void TearDownTestSuite() {
    delete scenario;
    scenario = nullptr;
  }
};

CatalogRun* ScenarioTest::scenario = nullptr;

TEST_F(ScenarioTest, AllVoClassesProducedJobs) {
  const auto& db = scenario->grid().igoc().job_db();
  const auto vos = db.vos();
  // Six classes expected to appear at this scale (LIGO's 3-job schedule
  // may round to zero under job_scale, so it is optional).
  for (const char* vo : {"usatlas", "uscms", "sdss", "btev", "ivdgl",
                         "exerciser"}) {
    const auto stats = db.stats_for(vo, Time::zero(), scenario->sim().now());
    EXPECT_GT(stats.jobs, 0u) << vo;
  }
}

TEST_F(ScenarioTest, RuntimeShapesMatchTable1Ordering) {
  const auto& db = scenario->grid().igoc().job_db();
  const auto w = table1_window();
  const auto cms = db.stats_for("uscms", w.from, w.to);
  const auto atlas = db.stats_for("usatlas", w.from, w.to);
  const auto ivdgl = db.stats_for("ivdgl", w.from, w.to);
  const auto ex = db.stats_for("exerciser", w.from, w.to);
  // Table 1 ordering: CMS runtimes dwarf ATLAS, which dwarf iVDGL,
  // which dwarf the exerciser probes.
  EXPECT_GT(cms.avg_runtime_hours, atlas.avg_runtime_hours);
  EXPECT_GT(atlas.avg_runtime_hours, ivdgl.avg_runtime_hours);
  EXPECT_GT(ivdgl.avg_runtime_hours, ex.avg_runtime_hours);
  // CMS dominates total CPU consumption despite fewer jobs than iVDGL.
  EXPECT_GT(cms.total_cpu_days, ivdgl.total_cpu_days);
  EXPECT_GT(ivdgl.jobs, cms.jobs);
}

TEST_F(ScenarioTest, PeakProductionLandsInSc2003Months) {
  const auto& db = scenario->grid().igoc().job_db();
  const auto w = table1_window();
  const auto ivdgl = db.stats_for("ivdgl", w.from, w.to);
  EXPECT_EQ(ivdgl.peak_month, "11-2003");
  const auto btev = db.stats_for("btev", w.from, w.to);
  EXPECT_EQ(btev.peak_month, "11-2003");
}

TEST_F(ScenarioTest, FavoriteResourceConcentration) {
  const auto& db = scenario->grid().igoc().job_db();
  const auto w = table1_window();
  const auto ivdgl = db.stats_for("ivdgl", w.from, w.to);
  // Table 1: 88.1% of iVDGL peak production from one resource; the shape
  // (heavy concentration) must reproduce.
  EXPECT_GT(ivdgl.max_single_resource_percent, 50.0);
  const auto atlas = db.stats_for("usatlas", w.from, w.to);
  // ATLAS spreads much more evenly (28.2% in the paper).
  EXPECT_LT(atlas.max_single_resource_percent,
            ivdgl.max_single_resource_percent);
}

TEST_F(ScenarioTest, FailuresAreMostlySiteProblems) {
  const auto& db = scenario->grid().igoc().job_db();
  const auto f = db.failures("usatlas", Time::zero(), scenario->sim().now());
  if (f.failed > 10) {
    // Section 6.1: ~90% of failures were site problems.
    EXPECT_GT(f.site_problem_share(), 0.5);
  }
  // Failure rate in a plausible band around the paper's ~30%.
  EXPECT_LT(f.failure_rate(), 0.6);
}

TEST_F(ScenarioTest, MonitoringPathsCrosscheck) {
  const auto viewer = scenario->viewer();
  const auto w = sc2003_window();
  // Redundant paths (MonALISA VO activity vs ACDC records) agree within
  // sampling tolerance when both are healthy.
  EXPECT_LT(viewer.crosscheck_divergence(w.from, w.to), 0.35);
  // Utilization sits in a sane range.
  const double util = viewer.utilization_from_ganglia(w.from, w.to);
  EXPECT_GT(util, 0.01);
  EXPECT_LT(util, 1.0);
}

TEST_F(ScenarioTest, DataFlowedAndDemoDominates) {
  const auto& db = scenario->grid().igoc().job_db();
  const auto w = sc2003_window();
  const auto by_vo = db.bytes_consumed_by_vo(w.from, w.to);
  Bytes total, demo;
  for (const auto& [vo, pair] : by_vo) {
    total += pair.first;
    demo += pair.second;
  }
  EXPECT_GT(total.to_tb(), 1.0);
  // Figure 5: the GridFTP demonstrator accounted for most transferred data.
  EXPECT_GT(demo / total, 0.5);
}

TEST_F(ScenarioTest, MilestoneScorecardComputes) {
  const auto w = sc2003_window();
  const auto m =
      core::compute_milestones(scenario->grid(), w.from, w.to);
  EXPECT_GT(m.cpus_now, 100);
  EXPECT_EQ(m.users, 102u);
  EXPECT_GE(m.applications, 6u);
  EXPECT_GT(m.peak_concurrent_jobs, 0.0);
  EXPECT_FALSE(m.scorecard().empty());
}

TEST_F(ScenarioTest, Figure6RampShape) {
  const auto jobs = scenario->viewer().jobs_by_month(3);
  // Ramp into SC2003: November >> October.
  EXPECT_GT(jobs[1], jobs[0]);
}

TEST_F(ScenarioTest, TroubleTicketsOpenedAndResolved) {
  const auto& tickets = scenario->grid().igoc().tickets();
  EXPECT_GT(tickets.total(), 0u);
  EXPECT_LT(tickets.open_count(), tickets.total());
}

TEST_F(ScenarioTest, SiteCatalogSawAllSites) {
  EXPECT_EQ(scenario->grid().igoc().site_catalog().site_count(), 27u);
}

TEST_F(ScenarioTest, DeterministicUnderSameSeed) {
  // A second, tiny scenario run twice gives identical accounting.
  auto run_once = [] {
    ScenarioSpec spec = historical(0.05, 0.01, 1);
    spec.seed = 777;
    CatalogRun sc{spec, /*quick=*/false, legacy_stack()};
    sc.run();
    return sc.grid().igoc().job_db().size();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 0u);
}

}  // namespace
}  // namespace grid3::workload
