// Gang matching: planner level-tagging, whole-gang co-location, the
// documented split fallback (with actual-site feedback into children),
// gang lease lifecycle on failure/rescue paths, and determinism.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "broker/rank_policy.h"
#include "core/grid3.h"
#include "core/site.h"
#include "pacman/vdt.h"
#include "placement/ledger.h"
#include "sim/simulation.h"
#include "workflow/dagman.h"
#include "workflow/planner.h"
#include "workflow/vdc.h"

namespace grid3::workflow {
namespace {

Derivation make_derivation(const std::string& id, const std::string& tf,
                           std::vector<std::string> inputs,
                           std::vector<std::string> outputs) {
  Derivation d;
  d.id = id;
  d.transformation = tf;
  d.inputs = std::move(inputs);
  d.outputs = std::move(outputs);
  d.runtime = Time::hours(1);
  d.output_size = Bytes::gb(1);
  d.scratch = Bytes::gb(1);
  return d;
}

std::size_t index_of(const ConcreteDag& dag, const std::string& id) {
  for (std::size_t i = 0; i < dag.nodes.size(); ++i) {
    if (dag.nodes[i].derivation_id == id) return i;
  }
  ADD_FAILURE() << "node not found: " << id;
  return 0;
}

/// Self-contained brokered fabric (constructible twice per test body for
/// determinism comparisons).  Each entry in `sites` is {name, cpus,
/// apps-installed-there}; every site also gets the base app "app".
struct GangFabric {
  struct SiteSpec {
    std::string name;
    int cpus;
    std::vector<std::string> extra_apps;
  };

  sim::Simulation sim;
  core::Grid3 grid{sim, 77};
  vo::VomsProxy proxy;

  explicit GangFabric(const std::vector<SiteSpec>& sites) {
    grid.add_vo("usatlas");
    std::set<std::string> apps{"app"};
    for (const SiteSpec& s : sites) {
      apps.insert(s.extra_apps.begin(), s.extra_apps.end());
    }
    for (const std::string& app : apps) {
      pacman::add_application_package(grid.igoc().pacman_cache(), app,
                                      Time::minutes(5));
    }
    for (const SiteSpec& s : sites) {
      core::SiteConfig c;
      c.name = s.name;
      c.owner_vo = "usatlas";
      c.cpus = s.cpus;
      c.policy.max_walltime = Time::hours(48);
      c.policy.dedicated = true;
      grid.add_site(c, /*reliability=*/1000.0);
      grid.site(s.name)->install_application(grid.igoc().pacman_cache(),
                                             "app");
      for (const std::string& app : s.extra_apps) {
        grid.site(s.name)->install_application(grid.igoc().pacman_cache(),
                                               app);
      }
    }
    const vo::Certificate cert =
        grid.add_user("usatlas", "tester", vo::Role::kAppAdmin);
    proxy = *grid.make_proxy(cert, "usatlas", Time::hours(400));
    const std::vector<const vo::VomsServer*> servers{grid.voms("usatlas")};
    for (const SiteSpec& s : sites) {
      grid.site(s.name)->refresh_gridmap(servers);
      grid.site(s.name)->gatekeeper().set_submission_flake_rate(0.0);
      grid.site(s.name)->gatekeeper().set_environment_error_rate(0.0);
    }
    grid.attach_broker("usatlas", broker::PolicyKind::kQueueDepth);
    grid.start_operations();
    sim.run_until(Time::minutes(1));
  }

  [[nodiscard]] std::optional<ConcreteDag> plan(const AbstractDag& dag,
                                                PlannerConfig cfg,
                                                std::uint64_t rng_seed) {
    PegasusPlanner planner{grid.igoc().top_giis(), *grid.rls("usatlas")};
    planner.set_broker(grid.broker("usatlas"));
    cfg.vo = "usatlas";
    util::Rng rng{rng_seed};
    return planner.plan(dag, cfg, rng, sim.now());
  }
};

/// N parallel simulations feeding one merge -- the CMS/ATLAS production
/// level shape gang matching exists for.  `extra` optionally appends a
/// private child of the last sim (for split-feedback coverage).
AbstractDag level_dag(int width, bool with_private_child = false,
                      const std::string& child_tf = "tf") {
  VirtualDataCatalog vdc;
  vdc.add_transformation({"tf", "1", "app"});
  if (child_tf != "tf") {
    vdc.add_transformation({child_tf, "1", "app" + child_tf});
  }
  std::vector<std::string> mids;
  for (int i = 0; i < width; ++i) {
    const std::string mid = "mid" + std::to_string(i);
    vdc.add_derivation(
        make_derivation("sim" + std::to_string(i), "tf", {}, {mid}));
    mids.push_back(mid);
  }
  vdc.add_derivation(make_derivation("merge", "tf", mids, {"summary"}));
  std::vector<std::string> targets{"summary"};
  if (with_private_child) {
    Derivation priv = make_derivation(
        "analysis", child_tf, {mids.back()}, {"analysis.out"});
    vdc.add_derivation(priv);
    targets.push_back("analysis.out");
  }
  auto dag = vdc.request(targets);
  EXPECT_TRUE(dag.has_value());
  return *dag;
}

TEST(PlannerGangTagging, LevelSiblingsShareGangIdAndIntermediates) {
  GangFabric f{{{"ALPHA", 16, {}}, {"BETA", 8, {}}}};
  auto plan = f.plan(level_dag(3), {}, 5);
  ASSERT_TRUE(plan.has_value());
  std::string gang_id;
  for (int i = 0; i < 3; ++i) {
    const auto& spec =
        plan->nodes[index_of(*plan, "sim" + std::to_string(i))].broker_spec;
    ASSERT_TRUE(spec.has_value());
    EXPECT_FALSE(spec->gang_id.empty());
    if (gang_id.empty()) gang_id = spec->gang_id;
    EXPECT_EQ(spec->gang_id, gang_id);
    EXPECT_EQ(spec->gang_width, 3);
    // Every sim's 1 GB output is consumed by the merge: the level parks
    // 3 GB of intermediates wherever it lands.
    EXPECT_EQ(spec->gang_intermediates, Bytes::gb(3));
  }
  // The merge is a single-member level: no gang.
  const auto& merge = plan->nodes[index_of(*plan, "merge")].broker_spec;
  ASSERT_TRUE(merge.has_value());
  EXPECT_TRUE(merge->gang_id.empty());
}

TEST(PlannerGangTagging, ChainsAndOptOutStayUntagged) {
  GangFabric f{{{"ALPHA", 16, {}}, {"BETA", 8, {}}}};
  // A linear chain has width-1 levels: nothing to gang.
  VirtualDataCatalog vdc;
  vdc.add_transformation({"tf", "1", "app"});
  vdc.add_derivation(make_derivation("s1", "tf", {}, {"mid"}));
  vdc.add_derivation(make_derivation("s2", "tf", {"mid"}, {"out"}));
  auto chain = f.plan(*vdc.request({"out"}), {}, 5);
  ASSERT_TRUE(chain.has_value());
  for (const auto& n : chain->nodes) {
    ASSERT_TRUE(n.broker_spec.has_value());
    EXPECT_TRUE(n.broker_spec->gang_id.empty());
  }
  // gang_matching=false leaves even a wide level untagged.
  PlannerConfig cfg;
  cfg.gang_matching = false;
  auto flat = f.plan(level_dag(3), cfg, 5);
  ASSERT_TRUE(flat.has_value());
  for (const auto& n : flat->nodes) {
    EXPECT_TRUE(n.broker_spec->gang_id.empty());
  }
}

TEST(GangMatch, WholeLevelBindsToOneSiteAndReleasesLease) {
  GangFabric f{{{"ALPHA", 16, {}}, {"BETA", 8, {}}}};
  auto plan = f.plan(level_dag(4), {}, 5);
  ASSERT_TRUE(plan.has_value());
  const ConcreteDag original = *plan;

  std::optional<DagRunStats> stats;
  f.grid.dagman("usatlas").run(std::move(*plan), f.proxy,
                               [&](const DagRunStats& s) { stats = s; });
  f.sim.run_until(Time::days(2));
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->success);

  broker::ResourceBroker& b = *f.grid.broker("usatlas");
  EXPECT_EQ(b.gang_matches(), 1u);
  EXPECT_EQ(b.gang_splits(), 0u);
  // Every member ran at the same site (free 16 >= width 4 -> whole fit).
  std::set<std::string> member_sites;
  for (int i = 0; i < 4; ++i) {
    member_sites.insert(
        stats->node_results[index_of(original, "sim" + std::to_string(i))]
            .site);
  }
  EXPECT_EQ(member_sites.size(), 1u);

  // The gang-scoped lease came and went exactly once; nothing leaks.
  placement::PlacementLedger* ledger = f.grid.placement("usatlas");
  ASSERT_NE(ledger, nullptr);
  EXPECT_EQ(ledger->acquired(), 1u);
  EXPECT_EQ(ledger->released(), 1u);
  EXPECT_EQ(ledger->active(), 0u);
}

TEST(GangMatch, SplitFallbackPropagatesActualMemberSites) {
  // Two 2-CPU sites cannot host a width-3 gang whole: the documented
  // split policy gives the better-ranked site (ALPHA, tie on name) two
  // members and BETA the third.  The third sim's private child must see
  // the member's *actual* site (BETA), not the gang's primary (ALPHA).
  GangFabric f{{{"ALPHA", 2, {}}, {"BETA", 2, {"apptfb"}}}};
  // Pin the *provisional* placement of the free-to-roam sims to ALPHA
  // (choose_site is preference-weighted) so the planner provably folds a
  // cross-site staging edge for the BETA-only child.
  PlannerConfig cfg;
  cfg.site_preference["ALPHA"] = 1e9;
  auto plan = f.plan(level_dag(3, /*with_private_child=*/true, "tfb"), cfg, 5);
  ASSERT_TRUE(plan.has_value());
  const std::size_t last_sim = index_of(*plan, "sim2");
  const std::size_t child = index_of(*plan, "analysis");
  // Provisionally the sims sit at ALPHA and the child (BETA-only app) at
  // BETA, so the planner folded the cross-site staging edge.
  ASSERT_EQ(plan->nodes[child].source_parent, last_sim);
  ASSERT_EQ(plan->nodes[child].source_site, "ALPHA");
  const ConcreteDag original = *plan;

  std::optional<DagRunStats> stats;
  f.grid.dagman("usatlas").run(std::move(*plan), f.proxy,
                               [&](const DagRunStats& s) { stats = s; });
  f.sim.run_until(Time::days(2));
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->success);

  broker::ResourceBroker& b = *f.grid.broker("usatlas");
  EXPECT_EQ(b.gang_matches(), 1u);
  EXPECT_EQ(b.gang_splits(), 1u);
  EXPECT_EQ(stats->node_results[index_of(original, "sim0")].site, "ALPHA");
  EXPECT_EQ(stats->node_results[index_of(original, "sim1")].site, "ALPHA");
  EXPECT_EQ(stats->node_results[last_sim].site, "BETA");
  // Regression: the feedback carried sim2's own completion site, not the
  // primary ALPHA hosts the larger share on.
  EXPECT_EQ(stats->node_results[child].source_site, "BETA");
}

/// Half-finished-gang scenario: a two-member gang whose only common site
/// (BETA -- one member's app exists nowhere else) is down.  The flexible
/// member rebinds to ALPHA and succeeds; the pinned one exhausts its
/// rebinds and fails, the merge is skipped, and the run needs a rescue.
struct GangRescueRun {
  GangFabric fabric{{{"ALPHA", 16, {}}, {"BETA", 16, {"appB"}}}};
  DagRunStats stats;
  ConcreteDag original;
  ConcreteDag rescue;
  /// Gang-scoped lease transitions (app label "gang:<id>"), counted
  /// through the ledger's audit tap.  A lease's label is read at
  /// acquire, while the ledger still holds it.
  std::set<placement::LeaseId> gang_leases;
  std::size_t gang_acquires = 0;
  std::size_t gang_releases = 0;
  std::size_t gang_consumes = 0;

  GangRescueRun() {
    placement::PlacementLedger* ledger = fabric.grid.placement("usatlas");
    EXPECT_NE(ledger, nullptr);
    if (ledger != nullptr) {
      ledger->set_audit([this, ledger](placement::LeaseId id,
                                       const char* event) {
        const std::string e = event;
        if (e == "acquire") {
          const placement::StageOutLease* l = ledger->find(id);
          if (l != nullptr && l->app.rfind("gang:", 0) == 0) {
            gang_leases.insert(id);
            ++gang_acquires;
          }
        } else if (gang_leases.count(id) != 0) {
          gang_releases += e == "release";
          gang_consumes += e == "consume";
        }
      });
    }
    VirtualDataCatalog vdc;
    vdc.add_transformation({"tf", "1", "app"});
    vdc.add_transformation({"tfB", "1", "appB"});
    vdc.add_derivation(make_derivation("simA", "tf", {}, {"midA"}));
    vdc.add_derivation(make_derivation("simB", "tfB", {}, {"midB"}));
    vdc.add_derivation(
        make_derivation("merge", "tf", {"midA", "midB"}, {"out"}));
    auto plan = fabric.plan(*vdc.request({"out"}), {}, 5);
    EXPECT_TRUE(plan.has_value());
    original = *plan;

    fabric.grid.site("BETA")->gatekeeper().set_available(false);
    std::optional<DagRunStats> s;
    fabric.grid.dagman("usatlas").run(std::move(*plan), fabric.proxy,
                                      [&](const DagRunStats& r) { s = r; });
    fabric.sim.run_until(Time::days(4));
    EXPECT_TRUE(s.has_value());
    stats = *s;

    fabric.grid.site("BETA")->gatekeeper().set_available(true);
    fabric.sim.run_until(fabric.sim.now() + Time::minutes(6));
    rescue = fabric.grid.dagman("usatlas").rescue_dag_refreshed(
        original, stats, fabric.sim.now());
  }
};

TEST(GangRescue, LeaseReleasedExactlyOnceAndCandidatesRederived) {
  GangRescueRun run;
  ASSERT_FALSE(run.stats.success);
  // simA escaped to ALPHA via late binding; simB had nowhere else to go.
  EXPECT_TRUE(run.stats.node_results[index_of(run.original, "simA")].ok);
  EXPECT_FALSE(run.stats.node_results[index_of(run.original, "simB")].ok);

  // The gang-scoped lease (app label "gang:<id>") was acquired once and
  // released exactly once -- when simB, the last member, resolved -- and
  // never consumed.
  EXPECT_EQ(run.gang_acquires, 1u);
  EXPECT_EQ(run.gang_releases, 1u);
  EXPECT_EQ(run.gang_consumes, 0u);
  placement::PlacementLedger* ledger = run.fabric.grid.placement("usatlas");
  ASSERT_NE(ledger, nullptr);
  EXPECT_EQ(ledger->active(), 0u);
  EXPECT_EQ(ledger->leased_bytes(), Bytes::zero());

  // The refreshed rescue re-derived candidates from the live view.
  ASSERT_EQ(run.rescue.nodes.size(), 2u);  // simB + merge
  for (const auto& n : run.rescue.nodes) {
    ASSERT_TRUE(n.broker_spec.has_value());
    if (n.derivation_id == "simB") {
      EXPECT_EQ(n.broker_spec->candidates,
                (std::vector<std::string>{"BETA"}));
    } else {
      EXPECT_EQ(n.broker_spec->candidates,
                (std::vector<std::string>{"ALPHA", "BETA"}));
    }
  }
}

TEST(GangRescue, ByteIdenticalAcrossRuns) {
  GangRescueRun r1;
  GangRescueRun r2;
  const std::string log1 =
      r1.fabric.grid.broker("usatlas")->serialize_match_log();
  ASSERT_FALSE(log1.empty());
  EXPECT_EQ(log1, r2.fabric.grid.broker("usatlas")->serialize_match_log());
  EXPECT_EQ(r1.fabric.grid.broker("usatlas")->gang_matches(),
            r2.fabric.grid.broker("usatlas")->gang_matches());
  ASSERT_EQ(r1.rescue.nodes.size(), r2.rescue.nodes.size());
  for (std::size_t i = 0; i < r1.rescue.nodes.size(); ++i) {
    EXPECT_EQ(r1.rescue.nodes[i].derivation_id,
              r2.rescue.nodes[i].derivation_id);
    EXPECT_EQ(r1.rescue.nodes[i].broker_spec->candidates,
              r2.rescue.nodes[i].broker_spec->candidates);
  }
}

}  // namespace
}  // namespace grid3::workflow
