// Unit tests for the workflow layer: virtual data catalog, DAG
// structures, Pegasus planning, DAGMan execution.
#include <gtest/gtest.h>

#include "broker/broker.h"
#include "broker/rank_policy.h"
#include "core/grid3.h"
#include "core/site.h"
#include "mds/schema.h"
#include "pacman/vdt.h"
#include "sim/simulation.h"
#include "workflow/dag.h"
#include "workflow/dagman.h"
#include "workflow/planner.h"
#include "workflow/vdc.h"

namespace grid3::workflow {
namespace {

Derivation make_derivation(const std::string& id,
                           std::vector<std::string> inputs,
                           std::vector<std::string> outputs,
                           double runtime_h = 1.0) {
  Derivation d;
  d.id = id;
  d.transformation = "tf";
  d.inputs = std::move(inputs);
  d.outputs = std::move(outputs);
  d.runtime = Time::hours(runtime_h);
  d.output_size = Bytes::gb(1);
  d.scratch = Bytes::gb(1);
  return d;
}

TEST(Vdc, RequestBuildsTransitiveClosure) {
  VirtualDataCatalog vdc;
  vdc.add_transformation({"tf", "1", "app"});
  vdc.add_derivation(make_derivation("gen", {}, {"raw"}));
  vdc.add_derivation(make_derivation("sim", {"raw"}, {"hits"}));
  vdc.add_derivation(make_derivation("rec", {"hits"}, {"esd"}));
  const auto dag = vdc.request({"esd"});
  ASSERT_TRUE(dag.has_value());
  EXPECT_EQ(dag->jobs.size(), 3u);
  EXPECT_EQ(dag->edges.size(), 2u);
  EXPECT_TRUE(dag->acyclic());
  EXPECT_EQ(dag->roots().size(), 1u);
}

TEST(Vdc, ExternalInputsAreNotJobs) {
  VirtualDataCatalog vdc;
  vdc.add_transformation({"tf", "1", "app"});
  vdc.add_derivation(make_derivation("analyze", {"external-data"}, {"out"}));
  const auto dag = vdc.request({"out"});
  ASSERT_TRUE(dag.has_value());
  EXPECT_EQ(dag->jobs.size(), 1u);
  EXPECT_TRUE(dag->edges.empty());
}

TEST(Vdc, UnknownTargetFails) {
  VirtualDataCatalog vdc;
  EXPECT_FALSE(vdc.request({"nothing"}).has_value());
}

TEST(Vdc, ProducerLookup) {
  VirtualDataCatalog vdc;
  vdc.add_derivation(make_derivation("d1", {}, {"a", "b"}));
  EXPECT_EQ(vdc.producer_of("a")->id, "d1");
  EXPECT_EQ(vdc.producer_of("b")->id, "d1");
  EXPECT_EQ(vdc.producer_of("c"), nullptr);
}

TEST(Dag, CycleDetection) {
  AbstractDag dag;
  dag.jobs.resize(2);
  dag.edges = {{0, 1}, {1, 0}};
  EXPECT_FALSE(dag.acyclic());
}

TEST(Dag, ConcreteNavigation) {
  ConcreteDag dag;
  dag.nodes.resize(3);
  dag.nodes[0].type = NodeType::kCompute;
  dag.nodes[1].type = NodeType::kStageOut;
  dag.nodes[2].type = NodeType::kRegister;
  dag.edges = {{0, 1}, {1, 2}};
  EXPECT_EQ(dag.roots(), (std::vector<std::size_t>{0}));
  EXPECT_EQ(dag.children(0), (std::vector<std::size_t>{1}));
  EXPECT_EQ(dag.parents(2), (std::vector<std::size_t>{1}));
  EXPECT_EQ(dag.count(NodeType::kCompute), 1u);
  EXPECT_TRUE(dag.acyclic());
}

/// Fixture with a two-site fabric for planner/DAGMan tests.
class WorkflowFixture : public ::testing::Test {
 protected:
  sim::Simulation sim;
  core::Grid3 grid{sim, 77};
  vo::Certificate cert;
  vo::VomsProxy proxy;

  void SetUp() override {
    grid.add_vo("usatlas");
    pacman::add_application_package(grid.igoc().pacman_cache(), "app",
                                    Time::minutes(5));
    core::SiteConfig a;
    a.name = "ALPHA";
    a.owner_vo = "usatlas";
    a.cpus = 16;
    a.policy.max_walltime = Time::hours(48);
    a.policy.dedicated = true;
    core::SiteConfig b = a;
    b.name = "BETA";
    b.cpus = 8;
    b.policy.max_walltime = Time::hours(6);  // short-queue site
    grid.add_site(a, /*reliability=*/1000.0);
    grid.add_site(b, /*reliability=*/1000.0);
    grid.site("ALPHA")->install_application(grid.igoc().pacman_cache(),
                                            "app");
    grid.site("BETA")->install_application(grid.igoc().pacman_cache(),
                                           "app");
    cert = grid.add_user("usatlas", "tester", vo::Role::kAppAdmin);
    proxy = *grid.make_proxy(cert, "usatlas", Time::hours(200));
    // The user joined after site setup: refresh grid-maps so the
    // gatekeepers know the new DN (sites did this on a cron).
    const std::vector<const vo::VomsServer*> servers{grid.voms("usatlas")};
    grid.site("ALPHA")->refresh_gridmap(servers);
    grid.site("BETA")->refresh_gridmap(servers);
    // Deterministic fixtures: disable stochastic jobmanager flake/error
    // rates (covered by gram/integration tests).
    for (const char* site : {"ALPHA", "BETA"}) {
      grid.site(site)->gatekeeper().set_submission_flake_rate(0.0);
      grid.site(site)->gatekeeper().set_environment_error_rate(0.0);
    }
    // Central loops keep the RLI soft-state fresh across long runs.
    grid.start_operations();
    sim.run_until(Time::minutes(1));  // let monitoring publish
  }

  AbstractDag two_step(double runtime_h = 1.0) {
    VirtualDataCatalog vdc;
    vdc.add_transformation({"tf", "1", "app"});
    vdc.add_derivation(make_derivation("s1", {}, {"mid"}, runtime_h));
    vdc.add_derivation(make_derivation("s2", {"mid"}, {"out"}, runtime_h));
    return *vdc.request({"out"});
  }
};

TEST_F(WorkflowFixture, EligibleSitesRespectAppAndWalltime) {
  PegasusPlanner planner{grid.igoc().top_giis(), *grid.rls("usatlas")};
  PlannerConfig cfg;
  cfg.vo = "usatlas";
  // Short job: both sites eligible.
  auto sites = planner.eligible_sites("app", Time::hours(1), cfg, sim.now());
  EXPECT_EQ(sites.size(), 2u);
  // Long job: BETA's 6-hour queue cannot take it.
  sites = planner.eligible_sites("app", Time::hours(20), cfg, sim.now());
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0], "ALPHA");
  // Unknown application: nowhere.
  sites = planner.eligible_sites("ghost-app", Time::hours(1), cfg, sim.now());
  EXPECT_TRUE(sites.empty());
}

TEST_F(WorkflowFixture, PlanBindsSitesAndAddsArchiveNodes) {
  PegasusPlanner planner{grid.igoc().top_giis(), *grid.rls("usatlas")};
  PlannerConfig cfg;
  cfg.vo = "usatlas";
  cfg.archive_site = "ALPHA";
  util::Rng rng{1};
  const auto dag = two_step();
  const auto plan = planner.plan(dag, cfg, rng, sim.now());
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->count(NodeType::kCompute), 2u);
  EXPECT_EQ(plan->count(NodeType::kStageOut), 1u);  // only the final output
  EXPECT_EQ(plan->count(NodeType::kRegister), 1u);
  EXPECT_TRUE(plan->acyclic());
  for (const auto& n : plan->nodes) {
    if (n.type == NodeType::kCompute) {
      EXPECT_TRUE(n.site == "ALPHA" || n.site == "BETA");
      EXPECT_GT(n.requested_walltime, n.runtime);
    }
  }
}

TEST_F(WorkflowFixture, VirtualDataReusePrunesExistingOutputs) {
  grid.rls("usatlas")->register_replica(
      "ALPHA", "out", {"gsiftp://ALPHA/out", Bytes::gb(1), sim.now()},
      sim.now());
  PegasusPlanner planner{grid.igoc().top_giis(), *grid.rls("usatlas")};
  PlannerConfig cfg;
  cfg.vo = "usatlas";
  util::Rng rng{2};
  const auto plan = planner.plan(two_step(), cfg, rng, sim.now());
  ASSERT_TRUE(plan.has_value());
  // Everything pruned: output already exists.
  EXPECT_TRUE(plan->nodes.empty());
}

TEST_F(WorkflowFixture, NoEligibleSiteFailsPlanning) {
  PegasusPlanner planner{grid.igoc().top_giis(), *grid.rls("usatlas")};
  PlannerConfig cfg;
  cfg.vo = "usatlas";
  util::Rng rng{3};
  const auto plan = planner.plan(two_step(100.0), cfg, rng, sim.now());
  // 100 h * 1.5 slack > ALPHA's 48 h queue -> nowhere to run.
  EXPECT_FALSE(plan.has_value());
  EXPECT_EQ(planner.last_error(), PlanError::kNoEligibleSite);
}

TEST_F(WorkflowFixture, DagManRunsChainToCompletion) {
  PegasusPlanner planner{grid.igoc().top_giis(), *grid.rls("usatlas")};
  PlannerConfig cfg;
  cfg.vo = "usatlas";
  cfg.archive_site = "ALPHA";
  util::Rng rng{4};
  auto plan = planner.plan(two_step(), cfg, rng, sim.now());
  ASSERT_TRUE(plan.has_value());

  std::optional<DagRunStats> stats;
  int nodes_seen = 0;
  grid.dagman("usatlas").run(
      std::move(*plan), proxy,
      [&](const DagRunStats& s) { stats = s; },
      [&](const NodeResult&) { ++nodes_seen; });
  sim.run_until(Time::days(2));
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->success);
  EXPECT_EQ(stats->failed, 0u);
  EXPECT_GT(nodes_seen, 0);
  // The archived output is now registered in RLS.
  EXPECT_FALSE(grid.rls("usatlas")->locate("out", sim.now()).empty());
}

TEST_F(WorkflowFixture, EmptyDagSucceedsImmediately) {
  std::optional<DagRunStats> stats;
  grid.dagman("usatlas").run(ConcreteDag{}, proxy,
                             [&](const DagRunStats& s) { stats = s; });
  sim.run_until(Time::minutes(2));
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->success);
  EXPECT_EQ(stats->nodes_total, 0u);
}

TEST_F(WorkflowFixture, FailedNodeSkipsDescendants) {
  // Bind a compute node to a nonexistent site: permanent failure.
  ConcreteDag dag;
  ConcreteNode bad;
  bad.type = NodeType::kCompute;
  bad.name = "bad";
  bad.site = "GHOST";
  bad.runtime = Time::hours(1);
  bad.requested_walltime = Time::hours(2);
  ConcreteNode child = bad;
  child.name = "child";
  child.site = "ALPHA";
  dag.nodes = {bad, child};
  dag.edges = {{0, 1}};

  std::optional<DagRunStats> stats;
  grid.dagman("usatlas").run(dag, proxy,
                             [&](const DagRunStats& s) { stats = s; });
  sim.run_until(Time::days(1));
  ASSERT_TRUE(stats.has_value());
  EXPECT_FALSE(stats->success);
  EXPECT_EQ(stats->failed, 1u);
  EXPECT_EQ(stats->skipped, 1u);
}

TEST_F(WorkflowFixture, RetryRecoversFromTransientOutage) {
  ConcreteDag dag;
  ConcreteNode n;
  n.type = NodeType::kCompute;
  n.name = "solo";
  n.site = "ALPHA";
  n.runtime = Time::hours(1);
  n.requested_walltime = Time::hours(2);
  dag.nodes = {n};

  // Gatekeeper down at submission; recovers before DAGMan's retries
  // (attempts at t=0, 10, 20 minutes) exhaust.
  grid.site("ALPHA")->gatekeeper().set_available(false);
  sim.schedule_in(Time::minutes(15), [&] {
    grid.site("ALPHA")->gatekeeper().set_available(true);
  });
  std::optional<DagRunStats> stats;
  grid.dagman("usatlas").run(dag, proxy,
                             [&](const DagRunStats& s) { stats = s; });
  sim.run_until(Time::days(1));
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->success);
}

TEST_F(WorkflowFixture, CrossSitePlacementInsertsStageNodes) {
  // Force anti-locality so parent and child land on different sites.
  PegasusPlanner planner{grid.igoc().top_giis(), *grid.rls("usatlas")};
  PlannerConfig cfg;
  cfg.vo = "usatlas";
  cfg.locality = 0.0;
  util::Rng rng{5};
  // Try a few times: with locality 0 the two nodes are bound
  // independently, so different sites happen quickly.
  bool saw_stage_in = false;
  for (int i = 0; i < 20 && !saw_stage_in; ++i) {
    const auto plan = planner.plan(two_step(), cfg, rng, sim.now());
    ASSERT_TRUE(plan.has_value());
    saw_stage_in = plan->count(NodeType::kStageIn) > 0;
  }
  EXPECT_TRUE(saw_stage_in);
}

/// WorkflowFixture with a late-binding broker attached (queue-depth
/// ranking: deterministic argmax over free CPUs).
class BrokeredWorkflowFixture : public WorkflowFixture {
 protected:
  void SetUp() override {
    WorkflowFixture::SetUp();
    grid.attach_broker("usatlas", broker::PolicyKind::kQueueDepth);
  }

  PegasusPlanner make_planner() {
    PegasusPlanner planner{grid.igoc().top_giis(), *grid.rls("usatlas")};
    planner.set_broker(grid.broker("usatlas"));
    return planner;
  }

  static std::size_t index_of(const ConcreteDag& dag,
                              const std::string& name) {
    for (std::size_t i = 0; i < dag.nodes.size(); ++i) {
      if (dag.nodes[i].name == name) return i;
    }
    ADD_FAILURE() << "no node named " << name;
    return 0;
  }
};

TEST_F(BrokeredWorkflowFixture, BrokeredPlanCarriesPlacementIntent) {
  auto planner = make_planner();
  PlannerConfig cfg;
  cfg.vo = "usatlas";
  cfg.archive_site = "ALPHA";
  util::Rng rng{6};
  const auto plan = planner.plan(two_step(), cfg, rng, sim.now());
  ASSERT_TRUE(plan.has_value());
  // The archive step travels as a placement intent on the final compute
  // node, not as hard-coded stage-out/register nodes.
  EXPECT_EQ(plan->count(NodeType::kStageOut), 0u);
  EXPECT_EQ(plan->count(NodeType::kRegister), 0u);
  ASSERT_EQ(plan->count(NodeType::kCompute), 2u);
  const auto& final_spec = plan->nodes[index_of(*plan, "s2")].broker_spec;
  ASSERT_TRUE(final_spec.has_value());
  EXPECT_EQ(final_spec->stage_out_site, "ALPHA");
  EXPECT_EQ(final_spec->stage_out, Bytes::gb(1));
  EXPECT_EQ(final_spec->output_lfns, (std::vector<std::string>{"out"}));
  // The intermediate derivation is consumed in-DAG: no intent.
  const auto& mid_spec = plan->nodes[index_of(*plan, "s1")].broker_spec;
  ASSERT_TRUE(mid_spec.has_value());
  EXPECT_TRUE(mid_spec->stage_out_site.empty());
}

TEST_F(BrokeredWorkflowFixture, CompletionSiteFeedsBackIntoChildren) {
  // The child's transformation exists only at BETA; the parent runs
  // anywhere and is provisionally placed at ALPHA (deeper queue).  With
  // ALPHA's gatekeeper down at dispatch the broker re-binds the parent
  // to BETA, and the child must then stage its input from BETA -- not
  // from the provisional site the planner guessed.
  pacman::add_application_package(grid.igoc().pacman_cache(), "appb",
                                  Time::minutes(5));
  grid.site("BETA")->install_application(grid.igoc().pacman_cache(), "appb");
  VirtualDataCatalog vdc;
  vdc.add_transformation({"tf", "1", "app"});
  vdc.add_transformation({"tfb", "1", "appb"});
  vdc.add_derivation(make_derivation("p", {}, {"mid"}));
  Derivation c = make_derivation("c", {"mid"}, {"out"});
  c.transformation = "tfb";
  vdc.add_derivation(c);

  auto planner = make_planner();
  PlannerConfig cfg;
  cfg.vo = "usatlas";
  util::Rng rng{7};
  auto plan = planner.plan(*vdc.request({"out"}), cfg, rng, sim.now());
  ASSERT_TRUE(plan.has_value());
  const std::size_t pi = index_of(*plan, "p");
  const std::size_t ci = index_of(*plan, "c");
  ASSERT_EQ(plan->nodes[pi].site, "ALPHA");  // provisional: 16 > 8 free
  ASSERT_EQ(plan->nodes[ci].site, "BETA");   // only site with appb
  // The fold recorded the provisional staging source and its producer.
  EXPECT_EQ(plan->nodes[ci].source_site, "ALPHA");
  EXPECT_EQ(plan->nodes[ci].source_parent, pi);

  grid.site("ALPHA")->gatekeeper().set_available(false);
  std::optional<DagRunStats> stats;
  grid.dagman("usatlas").run(std::move(*plan), proxy,
                             [&](const DagRunStats& s) { stats = s; });
  sim.run_until(sim.now() + Time::days(2));
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->success);
  // Late binding moved the parent; the child's recorded staging source
  // followed the data to the actual completion site.
  EXPECT_EQ(stats->node_results[pi].site, "BETA");
  EXPECT_EQ(stats->node_results[ci].source_site, "BETA");
}

}  // namespace
}  // namespace grid3::workflow
