// Unit tests for the application drivers and launch scheduling.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "apps/appbase.h"
#include "apps/atlas.h"
#include "apps/btev.h"
#include "apps/entrada.h"
#include "apps/exerciser.h"
#include "apps/launcher.h"
#include "apps/ligo.h"
#include "core/roster.h"
#include "util/calendar.h"

namespace grid3::apps {
namespace {

TEST(LaunchSchedule, RatesFollowMonthlyTargets) {
  LaunchSchedule s;
  s.monthly = {310, 600};  // Oct 2003 (31 d), Nov 2003 (30 d)
  EXPECT_NEAR(s.rate_per_day(Time::days(5)), 10.0, 1e-9);
  EXPECT_NEAR(s.rate_per_day(Time::days(40)), 20.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.rate_per_day(Time::days(100)), 0.0);  // past end
  EXPECT_DOUBLE_EQ(s.total(), 910.0);
  s.scale = 0.5;
  EXPECT_NEAR(s.rate_per_day(Time::days(5)), 5.0, 1e-9);
}

TEST(PoissonLauncher, LaunchCountTracksSchedule) {
  sim::Simulation sim;
  LaunchSchedule s;
  s.monthly = {620, 0, 300};  // busy, idle, busy
  int launches = 0;
  PoissonLauncher launcher{sim, s, [&] { ++launches; }, util::Rng{99}};
  launcher.start();
  sim.run_until(util::month_start(3));
  // Poisson with mean 920; allow generous tolerance.
  EXPECT_NEAR(static_cast<double>(launches), 920.0, 150.0);
  EXPECT_EQ(launcher.launches(), static_cast<std::uint64_t>(launches));
}

TEST(PoissonLauncher, IdleMonthProducesNothing) {
  sim::Simulation sim;
  LaunchSchedule s;
  s.monthly = {0, 0, 100};
  int launches_before_month2 = -1;
  int launches = 0;
  PoissonLauncher launcher{sim, s, [&] { ++launches; }, util::Rng{5}};
  launcher.start();
  sim.run_until(util::month_start(2));
  launches_before_month2 = launches;
  sim.run_until(util::month_start(3));
  EXPECT_EQ(launches_before_month2, 0);
  EXPECT_GT(launches, 50);
}

TEST(PoissonLauncher, StopCancelsFutureLaunches) {
  sim::Simulation sim;
  LaunchSchedule s;
  s.monthly = {3100};
  int launches = 0;
  PoissonLauncher launcher{sim, s, [&] { ++launches; }, util::Rng{7}};
  launcher.start();
  sim.run_until(Time::days(1));
  const int at_stop = launches;
  launcher.stop();
  sim.run_until(Time::days(20));
  EXPECT_EQ(launches, at_stop);
}

/// Small fabric fixture for app-level tests.
/// Successful jobs ACDC recorded for a VO.
std::size_t jobs_ok(const monitoring::JobDatabase& db, const std::string& vo) {
  std::size_t n = 0;
  for (const auto& r : db.records()) {
    if (r.vo == vo && r.success) ++n;
  }
  return n;
}

/// Bytes ACDC's transfer entries show leaving `site`.
Bytes bytes_from(const monitoring::JobDatabase& db, const std::string& site) {
  Bytes total;
  for (const auto& t : db.transfers()) {
    if (t.src_site == site) total += t.size;
  }
  return total;
}

class AppTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  core::Grid3 grid{sim, 123};
  core::Assembled assembled;

  void SetUp() override {
    core::AssembleOptions opts;
    opts.cpu_scale = 0.1;  // small but complete fabric
    opts.min_reliability = 50.0;  // keep failure noise out of unit tests
    opts.max_reliability = 100.0;
    assembled = core::assemble_grid3(grid, opts);
    sim.run_until(Time::minutes(10));  // monitoring warm-up
  }

  void wire(AppBase& app, const std::string& vo) {
    for (const auto& vu : assembled.users) {
      if (vu.vo == vo) {
        app.set_users(vu.app_admins, vu.users);
        return;
      }
    }
    FAIL() << "no users for " << vo;
  }
};

TEST_F(AppTest, AtlasWorkflowProducesTwoJobRecords) {
  AtlasGce atlas{grid};
  wire(atlas, "usatlas");
  ASSERT_TRUE(atlas.launch_workflow());
  sim.run_until(sim.now() + Time::days(30));
  const auto& db = grid.igoc().job_db();
  std::size_t compute_records = 0;
  for (const auto& r : db.records()) {
    if (r.vo == "usatlas") ++compute_records;
  }
  EXPECT_GE(compute_records, 2u);
  // One workflow: its two jobs succeeded once each.
  EXPECT_EQ(jobs_ok(db, "usatlas"), 2u);
  // Output datasets archived at BNL and registered.
  EXPECT_FALSE(
      grid.rls("usatlas")->locate("usatlas/dc2/1.esd", sim.now()).empty());
}

TEST_F(AppTest, LigoSearchStagesSftData) {
  LigoPulsar ligo{grid};
  wire(ligo, "ligo");
  ASSERT_TRUE(ligo.run_search(2));
  sim.run_until(sim.now() + Time::days(10));
  // SFT staging flowed through the LIGO archive endpoint.
  const auto& db = grid.igoc().job_db();
  EXPECT_GT(bytes_from(db, "LIGO_Hanford").to_gb(), 7.0);
  EXPECT_GE(jobs_ok(db, "ligo"), 2u);
}

TEST_F(AppTest, BtevChallengeYieldsEvents) {
  BtevSim btev{grid};
  wire(btev, "btev");
  ASSERT_TRUE(btev.run_challenge(10, 2.0));
  sim.run_until(sim.now() + Time::days(10));
  // 10 jobs x 2 h at 1/15 events/s = 4800 events each.
  EXPECT_NEAR(btev.events_generated(), 4800.0, 1500.0);
}

TEST_F(AppTest, ExerciserRecordsUnderOwnClassification) {
  CondorExerciser ex{grid};
  wire(ex, "ivdgl");
  for (int i = 0; i < 20; ++i) ex.probe_next_site();
  sim.run_until(sim.now() + Time::days(2));
  const auto stats = grid.igoc().job_db().stats_for(
      "exerciser", Time::zero(), sim.now());
  EXPECT_GE(stats.jobs, 12u);  // most probes land (flaky jobmanagers eat
                               // some; there is no retry layer here)
  EXPECT_LT(stats.avg_runtime_hours, 2.0);
}

/// Runs a hand-built concrete DAG through AppBase's accounting, keeping
/// every node attempt DAGMan reports.
class FixedDagApp : public AppBase {
 public:
  FixedDagApp(core::Grid3& grid, const std::string& vo)
      : AppBase{grid, vo, "fixed-dag"} {}

  void run(workflow::ConcreteDag dag, const vo::VomsProxy& proxy) {
    grid().dagman(vo()).run(
        std::move(dag), proxy,
        [this](const workflow::DagRunStats& s) { stats = s; },
        [this](const workflow::NodeResult& r) {
          attempts.push_back(r);
          record_node(r, "/CN=tester", app_name());
        });
  }

  std::optional<workflow::DagRunStats> stats;
  std::vector<workflow::NodeResult> attempts;
};

// The Figure 5 and section 6.1 data volumes sum ACDC transfer entries.
// A stage-in node and a compute node with jobmanager stage-in each fail
// once (their source GridFTP server is down) and succeed on DAGMan's
// retry: ACDC then holds one entry per node, at the bytes it moved, and
// none for the failed attempts -- though the failed compute attempt's
// result still carries its requested stage-in volume.
TEST(AppAccounting, RetriedNodesRecordOneTransferAtTheBytesMoved) {
  sim::Simulation sim;
  core::Grid3 grid{sim, 77};
  grid.add_vo("usatlas");
  for (const char* name : {"SRC", "EXEC"}) {
    core::SiteConfig cfg;
    cfg.name = name;
    cfg.owner_vo = "usatlas";
    cfg.cpus = 8;
    cfg.policy.dedicated = true;
    grid.add_site(cfg, /*reliability=*/1000.0);
    grid.site(name)->gatekeeper().set_submission_flake_rate(0.0);
    grid.site(name)->gatekeeper().set_environment_error_rate(0.0);
  }
  const vo::Certificate cert =
      grid.add_user("usatlas", "tester", vo::Role::kAppAdmin);
  const auto proxy = grid.make_proxy(cert, "usatlas", Time::hours(200));
  ASSERT_TRUE(proxy.has_value());
  grid.site("EXEC")->refresh_gridmap({grid.voms("usatlas")});

  workflow::ConcreteDag dag;
  workflow::ConcreteNode in;
  in.type = workflow::NodeType::kStageIn;
  in.name = "raw";
  in.site = "EXEC";
  in.source_site = "SRC";
  in.bytes = Bytes::gb(3);
  workflow::ConcreteNode job;
  job.type = workflow::NodeType::kCompute;
  job.name = "reco";
  job.site = "EXEC";
  job.source_site = "SRC";
  job.bytes = Bytes::gb(2);
  job.runtime = Time::hours(1);
  job.requested_walltime = Time::hours(2);
  dag.nodes = {in, job};

  // Both nodes fail at once and retry after 10 minutes, by when their
  // source is back.
  grid.site("SRC")->ftp().set_available(false);
  sim.schedule_in(Time::minutes(5),
                  [&] { grid.site("SRC")->ftp().set_available(true); });

  FixedDagApp app{grid, "usatlas"};
  app.run(dag, *proxy);
  sim.run_until(Time::days(1));
  ASSERT_TRUE(app.stats.has_value());
  EXPECT_TRUE(app.stats->success);
  EXPECT_EQ(app.stats->retries, 2);

  // Each node: one failed attempt, then one that succeeded.
  for (std::size_t idx = 0; idx < dag.nodes.size(); ++idx) {
    std::vector<const workflow::NodeResult*> tries;
    for (const auto& r : app.attempts) {
      if (r.index == idx) tries.push_back(&r);
    }
    ASSERT_EQ(tries.size(), 2u) << dag.nodes[idx].name;
    EXPECT_FALSE(tries[0]->ok) << dag.nodes[idx].name;
    EXPECT_TRUE(tries[1]->ok) << dag.nodes[idx].name;
    if (dag.nodes[idx].type == workflow::NodeType::kCompute) {
      EXPECT_EQ(tries[0]->bytes, Bytes::gb(2));
    }
  }

  const auto& db = grid.igoc().job_db();
  ASSERT_EQ(db.transfers().size(), 2u);
  std::vector<Bytes> sizes;
  for (const monitoring::TransferEntry& t : db.transfers()) {
    EXPECT_EQ(t.src_site, "SRC");
    EXPECT_EQ(t.dst_site, "EXEC");
    EXPECT_EQ(t.vo, "usatlas");
    sizes.push_back(t.size);
  }
  // The compute node's 2 GB and the stage-in node's 3 GB, once each.
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<Bytes>{Bytes::gb(2), Bytes::gb(3)}));
  // Both compute attempts have a job record; only the retry succeeded.
  ASSERT_EQ(db.records().size(), 2u);
  EXPECT_FALSE(db.records()[0].success);
  EXPECT_TRUE(db.records()[1].success);
}

TEST_F(AppTest, EntradaMovesDataAndRecordsDemoTraffic) {
  EntradaDemo entrada{grid};
  wire(entrada, "ivdgl");
  for (int i = 0; i < 10; ++i) entrada.transfer_once();
  sim.run_until(sim.now() + Time::days(2));
  EXPECT_GT(entrada.moved().to_gb(), 50.0);
  const auto by_vo =
      grid.igoc().job_db().bytes_consumed_by_vo(Time::zero(), sim.now());
  ASSERT_TRUE(by_vo.contains("ivdgl"));
  EXPECT_GT(by_vo.at("ivdgl").second.to_gb(), 50.0);  // demo share
}

}  // namespace
}  // namespace grid3::apps
