// Behavioural tests for policy corners not covered by the per-module
// suites: fair-share proportionality under saturation, planner
// eligibility filters, site probe degradation, operations loops, and
// distribution/archive edge cases.
#include <gtest/gtest.h>

#include "core/grid3.h"
#include "core/site.h"
#include "gram/condor_g.h"
#include "mds/schema.h"
#include "pacman/vdt.h"
#include "util/distributions.h"
#include "util/stats.h"
#include "workflow/planner.h"
#include "workflow/vdc.h"

namespace grid3 {
namespace {

// ---------------------------------------------------------------------
// Condor fair share: under saturation, long-run CPU tracks the
// configured weights.
// ---------------------------------------------------------------------
TEST(FairShare, SaturatedPoolDividesCpuByConfiguredWeights) {
  sim::Simulation sim;
  batch::SchedulerConfig cfg;
  cfg.site_name = "S";
  cfg.slots = 16;
  cfg.vo_shares = {{"big", 3.0}, {"small", 1.0}};
  batch::CondorScheduler sched{sim, cfg};

  // Keep both VOs permanently backlogged with 2-hour jobs for 60 days.
  util::Rng rng{5};
  auto feed = [&](const std::string& vo, int n) {
    for (int i = 0; i < n; ++i) {
      batch::JobRequest req;
      req.vo = vo;
      req.actual_runtime = Time::hours(2);
      req.requested_walltime = Time::hours(3);
      sched.submit(req, {});
    }
  };
  feed("big", 800);
  feed("small", 800);
  // Measure while the backlog still saturates the pool (the queues hold
  // ~100 hours of work per slot; at day 3 both are still deep).
  sim.run_until(Time::hours(72));
  ASSERT_GT(sched.queued_count(), 0u);
  const double big = sched.vo_usage("big").to_hours();
  const double small = sched.vo_usage("small").to_hours();
  ASSERT_GT(small, 0.0);
  // 3:1 configured; allow slack for the start-up transient.
  EXPECT_NEAR(big / small, 3.0, 0.8);
}

// ---------------------------------------------------------------------
// Planner eligibility filters beyond app/walltime.
// ---------------------------------------------------------------------
class PlannerFilters : public ::testing::Test {
 protected:
  sim::Simulation sim;
  core::Grid3 grid{sim, 5150};

  core::Site& add(const std::string& name, bool outbound, int cpus) {
    grid.add_vo("vo");
    core::SiteConfig cfg;
    cfg.name = name;
    cfg.owner_vo = "vo";
    cfg.cpus = cpus;
    cfg.policy.outbound = outbound;
    cfg.policy.dedicated = true;
    core::Site& s = grid.add_site(cfg, 1000.0);
    pacman::add_application_package(grid.igoc().pacman_cache(), "app",
                                    Time::minutes(1));
    s.install_application(grid.igoc().pacman_cache(), "app");
    return s;
  }
};

TEST_F(PlannerFilters, OutboundRequirementExcludesPrivateSites) {
  add("OPEN", /*outbound=*/true, 8);
  add("PRIVATE", /*outbound=*/false, 8);
  sim.run_until(Time::minutes(6));  // publish
  workflow::PegasusPlanner planner{grid.igoc().top_giis(), *grid.rls("vo")};
  workflow::PlannerConfig cfg;
  cfg.vo = "vo";
  auto sites = planner.eligible_sites("app", Time::hours(1), cfg, sim.now());
  EXPECT_EQ(sites.size(), 2u);
  cfg.need_outbound = true;  // section 6.4 requirement 1
  sites = planner.eligible_sites("app", Time::hours(1), cfg, sim.now());
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0], "OPEN");
}

TEST_F(PlannerFilters, MinFreeCpusExcludesSaturatedSites) {
  core::Site& busy = add("BUSY", true, 4);
  add("IDLE", true, 8);
  // Saturate BUSY with local jobs.
  for (int i = 0; i < 4; ++i) {
    batch::JobRequest req;
    req.vo = "local";
    req.actual_runtime = Time::days(10);
    req.requested_walltime = Time::days(11);
    busy.scheduler().submit(req, {});
  }
  sim.run_until(Time::minutes(12));  // dynamic attributes republished
  workflow::PegasusPlanner planner{grid.igoc().top_giis(), *grid.rls("vo")};
  workflow::PlannerConfig cfg;
  cfg.vo = "vo";
  cfg.min_free_cpus = 2;
  const auto sites =
      planner.eligible_sites("app", Time::hours(1), cfg, sim.now());
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0], "IDLE");
}

// ---------------------------------------------------------------------
// Site probes degrade and recover with service state.
// ---------------------------------------------------------------------
TEST(SiteProbes, DiskPressureDegradesCatalogStatus) {
  sim::Simulation sim;
  core::Grid3 grid{sim, 616};
  grid.add_vo("vo");
  core::SiteConfig cfg;
  cfg.name = "S";
  cfg.owner_vo = "vo";
  cfg.cpus = 4;
  cfg.disk = Bytes::gb(100);
  core::Site& site = grid.add_site(cfg, 1000.0);
  grid.start_operations();
  sim.run_until(Time::hours(1));
  EXPECT_EQ(grid.igoc().site_catalog().status("S"),
            monitoring::SiteStatus::kPass);
  // Fill the disk past the headroom probe's 98% threshold.
  site.disk().consume_unmanaged(Bytes::gb(99));
  sim.run_until(Time::hours(2));
  EXPECT_EQ(grid.igoc().site_catalog().status("S"),
            monitoring::SiteStatus::kDegraded);
  site.disk().cleanup(Bytes::gb(99));
  sim.run_until(Time::hours(3));
  EXPECT_EQ(grid.igoc().site_catalog().status("S"),
            monitoring::SiteStatus::kPass);
}

// ---------------------------------------------------------------------
// Central operations: grid-map refresh picks up new users on the cron.
// ---------------------------------------------------------------------
TEST(Operations, GridmapCronPicksUpLateUsers) {
  sim::Simulation sim;
  core::Grid3 grid{sim, 99};
  grid.add_vo("vo");
  core::SiteConfig cfg;
  cfg.name = "S";
  cfg.owner_vo = "vo";
  cfg.cpus = 4;
  core::Site& site = grid.add_site(cfg, 1000.0);
  grid.start_operations();  // cron at +1 min, then every kGridmapPeriod
  sim.run_until(Time::hours(2));
  // A user joins after the site came online...
  const auto cert = grid.add_user("vo", "latecomer");
  EXPECT_FALSE(site.gridmap().map(cert.subject_dn).has_value());
  // ...and appears after the next cron tick.
  sim.run_until(core::Grid3::kGridmapPeriod + Time::minutes(2));
  EXPECT_TRUE(site.gridmap().map(cert.subject_dn).has_value());
}

// ---------------------------------------------------------------------
// Condor-G: permanent failures pass through without retry.
// ---------------------------------------------------------------------
TEST(CondorG, NoRetryOnPermanentFailure) {
  sim::Simulation sim;
  net::Network net{sim};
  gridftp::GridFtpClient ftp_client{sim, net};
  vo::CertificateAuthority ca{"CA"};
  vo::GridMapFile gridmap;  // empty: everyone is unauthorized
  srm::DiskVolume scratch{"s", Bytes::tb(1)};
  const auto node = net.add_node({Bandwidth::mbps(100),
                                  Bandwidth::mbps(100), true});
  gridftp::GridFtpServer ftp{"S", node};
  batch::SchedulerConfig scfg{.site_name = "S", .slots = 4};
  batch::CondorScheduler lrms{sim, scfg};
  gram::GatekeeperConfig gkc{.site = "S", .submission_flake_rate = 0.0};
  gram::Gatekeeper gk{sim, gkc, lrms, gridmap, ca, ftp_client, ftp,
                      scratch};
  gram::CondorG condor_g{
      sim, {.retry = {.base = Time::minutes(5), .max_retries = 5}}};

  gram::GramJob job;
  job.proxy.identity = ca.issue("/CN=x", sim.now(), Time::days(1));
  job.proxy.vo = "vo";
  job.proxy.expires = sim.now() + Time::hours(12);
  job.request.vo = "vo";
  job.request.actual_runtime = Time::hours(1);
  job.request.requested_walltime = Time::hours(2);
  int calls = 0;
  gram::GramStatus status{};
  condor_g.submit_to(gk, std::move(job), [&](const gram::GramResult& r) {
    ++calls;
    status = r.status;
  });
  sim.run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(status, gram::GramStatus::kAuthenticationFailed);
  EXPECT_EQ(condor_g.retries(), 0u);
}

// ---------------------------------------------------------------------
// Distribution families: analytic means match sampling.
// ---------------------------------------------------------------------
struct DistCase {
  const char* name;
  util::Distribution dist;
  double tolerance;
};

class DistributionMeans : public ::testing::TestWithParam<int> {};

TEST_P(DistributionMeans, SampleMeanMatchesAnalyticMean) {
  const DistCase cases[] = {
      {"weibull", util::Distribution::weibull(1.5, 10.0), 0.3},
      {"pareto", util::Distribution::pareto(2.0, 3.0), 0.2},
      {"exponential", util::Distribution::exponential(7.0), 0.25},
      {"uniform", util::Distribution::uniform(2.0, 8.0), 0.1},
  };
  const auto& c = cases[static_cast<std::size_t>(GetParam())];
  util::Rng rng{static_cast<std::uint64_t>(GetParam()) + 101};
  util::OnlineStats stats;
  for (int i = 0; i < 40000; ++i) stats.add(c.dist.sample(rng));
  EXPECT_NEAR(stats.mean(), c.dist.mean(), c.tolerance) << c.name;
}

INSTANTIATE_TEST_SUITE_P(Families, DistributionMeans,
                         ::testing::Values(0, 1, 2, 3));

// ---------------------------------------------------------------------
// Exerciser backfill never displaces production on a saturated pool.
// ---------------------------------------------------------------------
TEST(Backfill, ProbesConsumeOnlyIdleSlots) {
  sim::Simulation sim;
  batch::SchedulerConfig cfg;
  cfg.site_name = "S";
  cfg.slots = 4;
  batch::CondorScheduler sched{sim, cfg};
  // Saturate with production, then submit probes and more production.
  int production_done = 0;
  int probes_done = 0;
  for (int i = 0; i < 12; ++i) {
    batch::JobRequest req;
    req.vo = "prod";
    req.actual_runtime = Time::hours(1);
    req.requested_walltime = Time::hours(2);
    sched.submit(req, [&](const batch::JobOutcome& o) {
      if (o.state == batch::JobState::kCompleted) ++production_done;
    });
  }
  for (int i = 0; i < 4; ++i) {
    batch::JobRequest probe;
    probe.vo = "probe";
    probe.priority = -1;
    probe.actual_runtime = Time::minutes(5);
    probe.requested_walltime = Time::hours(1);
    sched.submit(probe, [&](const batch::JobOutcome& o) {
      if (o.state == batch::JobState::kCompleted) ++probes_done;
      // When a probe completes, all production must already be done.
      EXPECT_EQ(production_done, 12);
    });
  }
  sim.run();
  EXPECT_EQ(production_done, 12);
  EXPECT_EQ(probes_done, 4);
}

// ---------------------------------------------------------------------
// VDC request with multiple targets shares common ancestors.
// ---------------------------------------------------------------------
TEST(Vdc, MultiTargetRequestSharesAncestors) {
  workflow::VirtualDataCatalog vdc;
  workflow::Derivation gen;
  gen.id = "gen";
  gen.transformation = "tf";
  gen.outputs = {"raw"};
  gen.runtime = Time::hours(1);
  vdc.add_derivation(gen);
  for (const char* leaf : {"a", "b"}) {
    workflow::Derivation d;
    d.id = leaf;
    d.transformation = "tf";
    d.inputs = {"raw"};
    d.outputs = {leaf};
    d.runtime = Time::hours(1);
    vdc.add_derivation(d);
  }
  const auto dag = vdc.request({"a", "b"});
  ASSERT_TRUE(dag.has_value());
  EXPECT_EQ(dag->jobs.size(), 3u);  // gen appears once, not twice
  EXPECT_EQ(dag->edges.size(), 2u);
  EXPECT_EQ(dag->roots().size(), 1u);
}

}  // namespace
}  // namespace grid3
