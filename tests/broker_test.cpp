// Unit tests for the resource-broker subsystem: rank policies,
// matchmaking determinism, late-binding re-match/backoff, and the
// per-gatekeeper throttle.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "broker/job_spec.h"
#include "broker/rank_policy.h"
#include "core/grid3.h"
#include "core/site.h"
#include "mds/schema.h"
#include "pacman/vdt.h"
#include "rls/rls.h"
#include "sim/simulation.h"
#include "workflow/dagman.h"
#include "workflow/planner.h"
#include "workflow/vdc.h"

namespace grid3::broker {
namespace {

SiteView make_view(const std::string& site, int free_cpus, int waiting,
                   double gk_load = 0.0) {
  SiteView v;
  v.site = site;
  v.fresh = true;
  v.total_cpus = free_cpus;
  v.free_cpus = free_cpus;
  v.waiting_jobs = waiting;
  v.gatekeeper_load = gk_load;
  return v;
}

TEST(RankPolicy, FavoriteSitesUsesStaticWeights) {
  FavoriteSitesPolicy policy;
  EXPECT_TRUE(policy.stochastic());
  JobSpec job;
  job.site_preference = {{"BNL", 4.5}};
  EXPECT_DOUBLE_EQ(policy.score(job, make_view("BNL", 0, 99), Time::zero()),
                   4.5);
  // Unlisted sites weigh 1, regardless of live state.
  EXPECT_DOUBLE_EQ(policy.score(job, make_view("UC", 64, 0), Time::zero()),
                   1.0);
}

TEST(RankPolicy, QueueDepthPrefersFreeCpusAndShallowQueues) {
  QueueDepthPolicy policy;
  EXPECT_FALSE(policy.stochastic());
  JobSpec job;
  const double idle = policy.score(job, make_view("A", 64, 0), Time::zero());
  const double busy = policy.score(job, make_view("B", 64, 50), Time::zero());
  const double full = policy.score(job, make_view("C", 0, 50), Time::zero());
  EXPECT_GT(idle, busy);
  EXPECT_GT(busy, full);
}

TEST(RankPolicy, DataLocalityBoostsSitesHoldingReplicas) {
  rls::ReplicaLocationService rls{"testvo"};
  rls.register_replica("NEAR", "input.dat",
                       {"gsiftp://NEAR/input.dat", Bytes::gb(1), Time::zero()},
                       Time::zero());
  DataLocalityPolicy policy;
  JobSpec job;
  job.data_inputs = {"input.dat"};
  job.rls = &rls;
  // Identical load: the replica-holding site must win.
  const double near = policy.score(job, make_view("NEAR", 8, 2), Time::zero());
  const double far = policy.score(job, make_view("FAR", 8, 2), Time::zero());
  EXPECT_GT(near, far);
  // Without RLS wiring it degrades to the queue-depth score.
  job.rls = nullptr;
  EXPECT_DOUBLE_EQ(policy.score(job, make_view("NEAR", 8, 2), Time::zero()),
                   far);
}

TEST(RankPolicy, LoadSheddingZeroesOutHotGatekeepers) {
  LoadSheddingPolicy policy;
  constexpr double kShed = LoadSheddingPolicy::kShedThreshold;
  JobSpec job;
  const double cold =
      policy.score(job, make_view("COLD", 8, 0, 0.0), Time::zero());
  const double warm =
      policy.score(job, make_view("WARM", 8, 0, kShed / 2), Time::zero());
  const double hot =
      policy.score(job, make_view("HOT", 8, 0, kShed), Time::zero());
  EXPECT_GT(cold, warm);
  EXPECT_GT(warm, hot);
  EXPECT_DOUBLE_EQ(hot, 0.0);
}

TEST(RankPolicy, FactoryCoversEveryKind) {
  EXPECT_EQ(make_policy(PolicyKind::kNone), nullptr);
  for (PolicyKind k :
       {PolicyKind::kFavoriteSites, PolicyKind::kQueueDepth,
        PolicyKind::kDataLocality, PolicyKind::kLoadShedding}) {
    auto p = make_policy(k);
    ASSERT_NE(p, nullptr);
    EXPECT_STREQ(p->name(), to_string(k));
  }
}

/// Two-site fabric with an attached broker (mirrors WorkflowFixture).
class BrokerFixture : public ::testing::Test {
 protected:
  sim::Simulation sim;
  core::Grid3 grid{sim, 77};
  vo::VomsProxy proxy;

  void SetUp() override { setup(PolicyKind::kQueueDepth); }

  void setup(PolicyKind kind, BrokerConfig cfg = {}) {
    grid.add_vo("usatlas");
    grid.attach_broker("usatlas", kind, cfg);
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
    b.policy.max_walltime = Time::hours(6);
    grid.add_site(a, /*reliability=*/1000.0);
    grid.add_site(b, /*reliability=*/1000.0);
    grid.site("ALPHA")->install_application(grid.igoc().pacman_cache(),
                                            "app");
    grid.site("BETA")->install_application(grid.igoc().pacman_cache(),
                                           "app");
    const vo::Certificate cert =
        grid.add_user("usatlas", "tester", vo::Role::kAppAdmin);
    proxy = *grid.make_proxy(cert, "usatlas", Time::hours(200));
    const std::vector<const vo::VomsServer*> servers{grid.voms("usatlas")};
    grid.site("ALPHA")->refresh_gridmap(servers);
    grid.site("BETA")->refresh_gridmap(servers);
    for (const char* site : {"ALPHA", "BETA"}) {
      grid.site(site)->gatekeeper().set_submission_flake_rate(0.0);
      grid.site(site)->gatekeeper().set_environment_error_rate(0.0);
    }
    grid.start_operations();
    sim.run_until(Time::minutes(1));  // let monitoring publish
  }

  [[nodiscard]] ResourceBroker& broker() { return *grid.broker("usatlas"); }

  [[nodiscard]] JobSpec short_job() const {
    JobSpec spec;
    spec.vo = "usatlas";
    spec.app = "tf";
    spec.required_app = "app";
    spec.runtime = Time::hours(1);
    return spec;
  }

  [[nodiscard]] gram::GramJob gram_job(Time runtime = Time::hours(1)) const {
    gram::GramJob job;
    job.proxy = proxy;
    job.request.vo = proxy.vo;
    job.request.requested_walltime =
        Time::seconds(runtime.to_seconds() * 1.5);
    job.request.actual_runtime = runtime;
    return job;
  }
};

TEST_F(BrokerFixture, ViewJoinsGiisAndMonalisa) {
  const auto& view = broker().view(sim.now());
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view[0].site, "ALPHA");  // name-sorted
  EXPECT_EQ(view[1].site, "BETA");
  EXPECT_EQ(view[0].total_cpus, 16);
  EXPECT_TRUE(view[0].snapshot.get(mds::app_attribute("app")).has_value());
  EXPECT_FALSE(
      view[0].snapshot.get(mds::app_attribute("ghost")).has_value());
}

TEST_F(BrokerFixture, EligibilityMirrorsPlannerRules) {
  JobSpec spec = short_job();
  EXPECT_EQ(broker().eligible(spec, sim.now()).size(), 2u);
  // 20 h * 1.5 slack exceeds BETA's 6-hour queue.
  spec.runtime = Time::hours(20);
  const auto sites = broker().eligible(spec, sim.now());
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0], "ALPHA");
  spec.required_app = "ghost";
  EXPECT_TRUE(broker().eligible(spec, sim.now()).empty());
}

TEST_F(BrokerFixture, SubmitRunsJobAndLogsMatch) {
  std::optional<BrokeredResult> result;
  broker().submit(short_job(), gram_job(),
                  [&](const BrokeredResult& r) { result = r; });
  sim.run_until(Time::days(1));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok());
  EXPECT_FALSE(result->site.empty());
  ASSERT_EQ(broker().match_log().size(), 1u);
  EXPECT_EQ(broker().match_log()[0].site, result->site);
  EXPECT_EQ(broker().matches(), 1u);
}

TEST_F(BrokerFixture, NoEligibleSiteFailsWithoutMatching) {
  JobSpec spec = short_job();
  spec.required_app = "ghost";
  std::optional<BrokeredResult> result;
  broker().submit(spec, gram_job(),
                  [&](const BrokeredResult& r) { result = r; });
  sim.run_until(sim.now() + Time::minutes(5));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok());
  EXPECT_FALSE(result->matched);
  EXPECT_TRUE(broker().match_log().empty());
}

TEST_F(BrokerFixture, TransientFailureRebindsToAnotherSite) {
  // ALPHA down: the first match fails transiently, the re-match must land
  // on BETA after the backoff.
  grid.site("ALPHA")->gatekeeper().set_available(false);
  JobSpec spec = short_job();
  spec.site_preference = {{"ALPHA", 100.0}};  // irrelevant to queue-depth
  std::optional<BrokeredResult> result;
  broker().submit(spec, gram_job(),
                  [&](const BrokeredResult& r) { result = r; });
  sim.run_until(Time::days(1));
  ASSERT_TRUE(result.has_value());
  if (broker().match_log().front().site == "ALPHA") {
    EXPECT_GE(result->rebinds, 1);
    EXPECT_EQ(broker().match_log().back().site, "BETA");
  }
  EXPECT_TRUE(result->ok());
  EXPECT_EQ(result->site, "BETA");
}

TEST_F(BrokerFixture, RebindExhaustionReportsLastFailure) {
  grid.site("ALPHA")->gatekeeper().set_available(false);
  grid.site("BETA")->gatekeeper().set_available(false);
  std::optional<BrokeredResult> result;
  broker().submit(short_job(), gram_job(),
                  [&](const BrokeredResult& r) { result = r; });
  sim.run_until(Time::days(2));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok());
  EXPECT_TRUE(result->matched);
  EXPECT_EQ(result->rebinds, ResourceBroker::kRebind.max_retries);
  EXPECT_EQ(result->gram.status, gram::GramStatus::kGatekeeperDown);
}

TEST_F(BrokerFixture, ThrottleHoldsJobsInsteadOfPiling) {
  // A local single-site fabric with a 1-submission-per-site throttle:
  // subsequent jobs must wait inside the broker, not pile onto the
  // gatekeeper.
  sim::Simulation sim2;
  BrokerConfig cfg;
  cfg.max_inflight_per_site = 1;
  core::Grid3 g{sim2, 77};
  g.add_vo("usatlas");
  ResourceBroker& b = g.attach_broker("usatlas", PolicyKind::kQueueDepth, cfg);
  pacman::add_application_package(g.igoc().pacman_cache(), "app",
                                  Time::minutes(5));
  core::SiteConfig a;
  a.name = "ALPHA";
  a.owner_vo = "usatlas";
  a.cpus = 4;
  a.policy.max_walltime = Time::hours(48);
  a.policy.dedicated = true;
  g.add_site(a, /*reliability=*/1000.0);
  g.site("ALPHA")->install_application(g.igoc().pacman_cache(), "app");
  const vo::Certificate cert =
      g.add_user("usatlas", "tester", vo::Role::kAppAdmin);
  const vo::VomsProxy p = *g.make_proxy(cert, "usatlas", Time::hours(200));
  const std::vector<const vo::VomsServer*> servers{g.voms("usatlas")};
  g.site("ALPHA")->refresh_gridmap(servers);
  g.site("ALPHA")->gatekeeper().set_submission_flake_rate(0.0);
  g.start_operations();
  sim2.run_until(Time::minutes(1));

  JobSpec spec;
  spec.vo = "usatlas";
  spec.app = "tf";
  spec.required_app = "app";
  spec.runtime = Time::hours(1);
  auto job = [&] {
    gram::GramJob j;
    j.proxy = p;
    j.request.vo = p.vo;
    j.request.requested_walltime = Time::hours(2);
    j.request.actual_runtime = Time::hours(1);
    return j;
  };
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    b.submit(spec, job(), [&](const BrokeredResult& r) {
      EXPECT_TRUE(r.ok());
      ++done;
    });
  }
  EXPECT_LE(b.inflight("ALPHA"), 1);
  sim2.run_until(Time::days(2));
  EXPECT_EQ(done, 3);
  EXPECT_GE(b.holds(), 1u);
}

/// Runs one small brokered scenario and returns the serialized match log.
std::string run_match_log(PolicyKind kind, std::uint64_t seed) {
  sim::Simulation sim;
  core::Grid3 grid{sim, seed};
  grid.add_vo("usatlas");
  ResourceBroker& broker = grid.attach_broker("usatlas", kind);
  pacman::add_application_package(grid.igoc().pacman_cache(), "app",
                                  Time::minutes(5));
  for (const char* name : {"ALPHA", "BETA"}) {
    core::SiteConfig c;
    c.name = name;
    c.owner_vo = "usatlas";
    c.cpus = 8;
    c.policy.max_walltime = Time::hours(48);
    c.policy.dedicated = true;
    grid.add_site(c, /*reliability=*/1000.0);
    grid.site(name)->install_application(grid.igoc().pacman_cache(), "app");
  }
  const vo::Certificate cert =
      grid.add_user("usatlas", "tester", vo::Role::kAppAdmin);
  const vo::VomsProxy proxy =
      *grid.make_proxy(cert, "usatlas", Time::hours(200));
  const std::vector<const vo::VomsServer*> servers{grid.voms("usatlas")};
  for (const char* name : {"ALPHA", "BETA"}) {
    grid.site(name)->refresh_gridmap(servers);
    grid.site(name)->gatekeeper().set_submission_flake_rate(0.0);
  }
  grid.start_operations();
  sim.run_until(Time::minutes(1));

  JobSpec spec;
  spec.vo = "usatlas";
  spec.app = "tf";
  spec.required_app = "app";
  spec.runtime = Time::hours(1);
  spec.site_preference = {{"ALPHA", 3.0}};
  for (int i = 0; i < 12; ++i) {
    gram::GramJob job;
    job.proxy = proxy;
    job.request.vo = proxy.vo;
    job.request.requested_walltime = Time::hours(2);
    job.request.actual_runtime = Time::hours(1);
    broker.submit(spec, std::move(job), {});
    sim.run_until(sim.now() + Time::minutes(7));
  }
  sim.run_until(Time::days(2));
  return broker.serialize_match_log();
}

TEST(BrokerDeterminism, SameSeedSamePolicyGivesByteIdenticalMatchLogs) {
  for (PolicyKind kind :
       {PolicyKind::kFavoriteSites, PolicyKind::kQueueDepth}) {
    const std::string a = run_match_log(kind, 20031025);
    const std::string b = run_match_log(kind, 20031025);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "policy " << to_string(kind);
  }
}

TEST(BrokerDeterminism, DifferentSeedsDivergeUnderStochasticPolicy) {
  const std::string a = run_match_log(PolicyKind::kFavoriteSites, 1);
  const std::string b = run_match_log(PolicyKind::kFavoriteSites, 2);
  // 12 weighted draws over two sites: collision of the full logs is
  // effectively impossible (and would indicate the seed is ignored).
  EXPECT_NE(a, b);
}

/// Minimal single-VO fabric built from the sites a test passes in, so
/// each test shapes its own tie geometry.
struct RankRig {
  sim::Simulation sim;
  core::Grid3 grid{sim, 77};
  ResourceBroker* broker = nullptr;

  explicit RankRig(const std::vector<core::SiteConfig>& sites) {
    grid.add_vo("usatlas");
    broker = &grid.attach_broker("usatlas", PolicyKind::kQueueDepth);
    pacman::add_application_package(grid.igoc().pacman_cache(), "app",
                                    Time::minutes(5));
    for (core::SiteConfig cfg : sites) {
      cfg.owner_vo = "usatlas";
      cfg.policy.max_walltime = Time::hours(48);
      cfg.policy.dedicated = true;
      grid.add_site(cfg, /*reliability=*/1000.0);
      core::Site* site = grid.site(cfg.name);
      site->install_application(grid.igoc().pacman_cache(), "app");
      site->refresh_gridmap({grid.voms("usatlas")});
      site->gatekeeper().set_submission_flake_rate(0.0);
      site->gatekeeper().set_environment_error_rate(0.0);
    }
    grid.start_operations();
    sim.run_until(Time::minutes(1));  // initial GRIS publications
  }

  [[nodiscard]] static core::SiteConfig compute(const std::string& name,
                                                int cpus) {
    core::SiteConfig c;
    c.name = name;
    c.cpus = cpus;
    return c;
  }

  [[nodiscard]] JobSpec spec() const {
    JobSpec s;
    s.vo = "usatlas";
    s.app = "tf";
    s.required_app = "app";
    s.runtime = Time::hours(1);
    return s;
  }
};

TEST(BrokerRanking, TiesResolveInNameOrderRegardlessOfCandidateOrder) {
  // Two byte-identical sites: the deterministic argmax must break the
  // score tie toward the name-sorted first site no matter how the
  // spec's candidate list is ordered (the interned bitset replaced a
  // per-site std::find over that list; membership order must stay
  // irrelevant to rank order).
  RankRig rig{{RankRig::compute("ALPHA", 8), RankRig::compute("OMEGA", 8)}};
  JobSpec spec = rig.spec();
  for (const std::vector<std::string>& order :
       {std::vector<std::string>{"OMEGA", "ALPHA"},
        std::vector<std::string>{"ALPHA", "OMEGA"},
        // Duplicate names must not weight the duplicate's site.
        std::vector<std::string>{"OMEGA", "OMEGA", "ALPHA"}}) {
    spec.candidates = order;
    const auto pick = rig.broker->choose(spec, rig.sim.now());
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, "ALPHA");
  }
}

TEST_F(BrokerFixture, SiteIdsStableAcrossRefreshAndHealthTransitions) {
  // The interned numbering is registration-order-stable: view refreshes,
  // quarantine round-trips, and late growth must never renumber a site
  // (health counters and in-flight maps are keyed by these ids).
  (void)broker().view(sim.now());
  const core::SiteId alpha = broker().site_id("ALPHA");
  const core::SiteId beta = broker().site_id("BETA");
  ASSERT_TRUE(alpha.valid());
  ASSERT_TRUE(beta.valid());
  EXPECT_NE(alpha, beta);
  broker().on_site_quarantined("BETA");
  sim.run_until(sim.now() + Time::minutes(10));  // beyond the view TTL
  (void)broker().view(sim.now());
  EXPECT_EQ(broker().site_id("ALPHA"), alpha);
  EXPECT_EQ(broker().site_id("BETA"), beta);
  // The broker shares the fabric-wide registry, so every subsystem
  // agrees on the numbering.
  EXPECT_EQ(grid.id_registry()->sites.find("ALPHA"), alpha);
}

TEST_F(BrokerFixture, DagManLateBindsThroughBroker) {
  workflow::VirtualDataCatalog vdc;
  vdc.add_transformation({"tf", "1", "app"});
  workflow::Derivation d1;
  d1.id = "s1";
  d1.transformation = "tf";
  d1.outputs = {"mid"};
  d1.runtime = Time::hours(1);
  d1.output_size = Bytes::gb(1);
  workflow::Derivation d2 = d1;
  d2.id = "s2";
  d2.inputs = {"mid"};
  d2.outputs = {"out"};
  vdc.add_derivation(d1);
  vdc.add_derivation(d2);
  const auto dag = vdc.request({"out"});
  ASSERT_TRUE(dag.has_value());

  workflow::PegasusPlanner planner{grid.igoc().top_giis(),
                                   *grid.rls("usatlas")};
  planner.set_broker(&broker());
  workflow::PlannerConfig cfg;
  cfg.vo = "usatlas";
  cfg.archive_site = "ALPHA";
  util::Rng rng{4};
  auto plan = planner.plan(*dag, cfg, rng, sim.now());
  ASSERT_TRUE(plan.has_value());
  // Brokered plans pre-place no movers between compute nodes.
  EXPECT_EQ(plan->count(workflow::NodeType::kStageIn), 0u);
  std::size_t specs = 0;
  for (const auto& n : plan->nodes) {
    if (n.type == workflow::NodeType::kCompute) {
      EXPECT_TRUE(n.broker_spec.has_value());
      ++specs;
    }
  }
  EXPECT_EQ(specs, 2u);

  std::optional<workflow::DagRunStats> stats;
  grid.dagman("usatlas").run(std::move(*plan), proxy,
                             [&](const workflow::DagRunStats& s) {
                               stats = s;
                             });
  sim.run_until(Time::days(2));
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->success);
  // Both compute nodes were matched by the broker...
  EXPECT_GE(broker().matches(), 2u);
  // ...and the match log records a site for each usatlas decision.
  std::size_t placed = 0;
  for (const MatchDecision& d : broker().match_log()) {
    if (d.vo == "usatlas" && !d.site.empty()) ++placed;
  }
  EXPECT_GE(placed, 2u);
}

// --- stale-view brokering through an index outage ----------------------

TEST_F(BrokerFixture, StaleViewServesMatchesThroughAnIndexOutage) {
  // Prime the last-known-good view.
  ASSERT_EQ(broker().view(sim.now()).size(), 2u);
  EXPECT_FALSE(broker().view_stale());
  grid.igoc().top_giis().set_available(false);
  // Outlive the view TTL so the next view() actually consults the
  // (down) index, but stay inside the staleness bound.
  sim.run_until(sim.now() + ResourceBroker::kViewTtl + Time::minutes(1));

  // Within the staleness bound the frozen view keeps serving...
  const auto& view = broker().view(sim.now());
  ASSERT_EQ(view.size(), 2u);
  EXPECT_TRUE(broker().view_stale());

  // ...and matches keep landing, counted as stale.
  std::optional<BrokeredResult> result;
  broker().submit(short_job(), gram_job(),
                  [&](const BrokeredResult& r) { result = r; });
  sim.run_until(sim.now() + Time::hours(3));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok());
  EXPECT_GE(broker().stale_matches(), 1u);
}

TEST_F(BrokerFixture, StaleViewRecoversWhenTheIndexReturns) {
  ASSERT_EQ(broker().view(sim.now()).size(), 2u);
  grid.igoc().top_giis().set_available(false);
  sim.run_until(sim.now() + ResourceBroker::kViewTtl + Time::minutes(1));
  EXPECT_EQ(broker().view(sim.now()).size(), 2u);  // frozen
  EXPECT_TRUE(broker().view_stale());
  grid.igoc().top_giis().set_available(true);
  // No TTL wait: the next view call re-checks and drops the flag.
  const auto& view = broker().view(sim.now());
  ASSERT_EQ(view.size(), 2u);
  EXPECT_FALSE(broker().view_stale());
  EXPECT_EQ(broker().stale_matches(), 0u);
}

TEST_F(BrokerFixture, PastTheStalenessBoundJobsHoldInsteadOfFailing) {
  ASSERT_EQ(broker().view(sim.now()).size(), 2u);
  grid.igoc().top_giis().set_available(false);
  // Outlive the bound: the frozen view is no longer trusted.
  sim.run_until(sim.now() + broker().config().stale_view_max +
                Time::minutes(1));
  EXPECT_TRUE(broker().view(sim.now()).empty());
  EXPECT_TRUE(broker().view_outage());
  EXPECT_FALSE(broker().view_stale());

  // Defer, not fail: the job rides the hold queue until recovery.
  std::optional<BrokeredResult> result;
  broker().submit(short_job(), gram_job(),
                  [&](const BrokeredResult& r) { result = r; });
  sim.run_until(sim.now() + Time::minutes(20));
  EXPECT_FALSE(result.has_value());
  EXPECT_GE(broker().holds(), 1u);
  grid.igoc().top_giis().set_available(true);
  sim.run_until(sim.now() + Time::hours(3));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok());
  EXPECT_GE(result->holds, 1);
  EXPECT_FALSE(broker().view_outage());
}

TEST_F(BrokerFixture, ZeroStalenessBoundKeepsLegacyRejectSemantics) {
  // stale_view_max == 0 disables the freeze: an index outage empties
  // the view and submissions fail permanently, the pre-journal status
  // quo the ablation bench measures against.
  sim::Simulation sim2;
  core::Grid3 g{sim2, 77};
  g.add_vo("usatlas");
  BrokerConfig cfg;
  cfg.stale_view_max = Time::zero();
  ResourceBroker& b = g.attach_broker("usatlas", PolicyKind::kQueueDepth, cfg);
  pacman::add_application_package(g.igoc().pacman_cache(), "app",
                                  Time::minutes(5));
  core::SiteConfig a;
  a.name = "ALPHA";
  a.owner_vo = "usatlas";
  a.cpus = 4;
  a.policy.max_walltime = Time::hours(48);
  a.policy.dedicated = true;
  g.add_site(a, /*reliability=*/1000.0);
  g.site("ALPHA")->install_application(g.igoc().pacman_cache(), "app");
  const vo::Certificate cert =
      g.add_user("usatlas", "tester", vo::Role::kAppAdmin);
  const vo::VomsProxy p = *g.make_proxy(cert, "usatlas", Time::hours(200));
  const std::vector<const vo::VomsServer*> servers{g.voms("usatlas")};
  g.site("ALPHA")->refresh_gridmap(servers);
  g.start_operations();
  sim2.run_until(Time::minutes(1));

  ASSERT_EQ(b.view(sim2.now()).size(), 1u);
  g.igoc().top_giis().set_available(false);
  sim2.run_until(sim2.now() + ResourceBroker::kViewTtl + Time::minutes(1));
  EXPECT_TRUE(b.view(sim2.now()).empty());
  EXPECT_FALSE(b.view_outage());  // the degraded machinery stays off

  JobSpec spec;
  spec.vo = "usatlas";
  spec.app = "tf";
  spec.required_app = "app";
  spec.runtime = Time::hours(1);
  gram::GramJob job;
  job.proxy = p;
  job.request.vo = p.vo;
  job.request.requested_walltime = Time::hours(2);
  job.request.actual_runtime = Time::hours(1);
  std::optional<BrokeredResult> result;
  b.submit(spec, std::move(job),
           [&](const BrokeredResult& r) { result = r; });
  sim2.run_until(sim2.now() + Time::minutes(5));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok());
  EXPECT_FALSE(result->matched);
  EXPECT_EQ(b.stale_matches(), 0u);
}

}  // namespace
}  // namespace grid3::broker
