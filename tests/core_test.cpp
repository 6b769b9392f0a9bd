// Unit tests for the core fabric: sites, Grid3 assembly, iGOC, failure
// injection, roster, milestones.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/failure.h"
#include "core/grid3.h"
#include "core/igoc.h"
#include "core/metrics.h"
#include "core/roster.h"
#include "core/site.h"
#include "mds/schema.h"

namespace grid3::core {
namespace {

TEST(TroubleTickets, OpenCloseAndMetrics) {
  TroubleTicketSystem tickets;
  const auto id = tickets.open("BNL", "disk-fill", Time::hours(1));
  EXPECT_EQ(tickets.open_count(), 1u);
  EXPECT_TRUE(tickets.close(id, Time::hours(5)));
  EXPECT_FALSE(tickets.close(id, Time::hours(6)));  // already closed
  EXPECT_EQ(tickets.open_count(), 0u);
  EXPECT_EQ(tickets.mean_resolution(), Time::hours(4));
}

TEST(Roster, TwentySevenSitesShapedLikeGrid3) {
  const auto roster = grid3_roster();
  EXPECT_EQ(roster.size(), 27u);
  int cpus = 0;
  int dedicated_cpus = 0;
  bool has_condor = false, has_pbs = false, has_lsf = false;
  for (const auto& cfg : roster) {
    cpus += cfg.cpus;
    if (cfg.policy.dedicated) dedicated_cpus += cfg.cpus;
    has_condor |= cfg.lrms == LrmsType::kCondor;
    has_pbs |= cfg.lrms == LrmsType::kPbs;
    has_lsf |= cfg.lrms == LrmsType::kLsf;
  }
  // Paper: >2500 CPUs most of the time, peak 2800+.
  EXPECT_GE(cpus, 2500);
  EXPECT_LE(cpus, 3200);
  // Paper: >60% of CPUs from non-dedicated facilities.
  EXPECT_LT(static_cast<double>(dedicated_cpus), 0.4 * cpus);
  EXPECT_TRUE(has_condor && has_pbs && has_lsf);
}

TEST(Roster, CpuScaleShrinksSites) {
  const auto small = grid3_roster(0.1);
  const auto full = grid3_roster(1.0);
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_LE(small[i].cpus, full[i].cpus);
    EXPECT_GE(small[i].cpus, 2);
  }
}

TEST(Roster, ApplicationSiteCountsMatchTable1) {
  const auto roster = grid3_roster();
  EXPECT_EQ(application_sites(app::kAtlasGce, roster).size(), 18u);
  EXPECT_EQ(application_sites(app::kCmsMop, roster).size(), 18u);
  EXPECT_EQ(application_sites(app::kSdssCoadd, roster).size(), 13u);
  EXPECT_EQ(application_sites(app::kLigoPulsar, roster).size(), 1u);
  EXPECT_EQ(application_sites(app::kBtevSim, roster).size(), 8u);
  EXPECT_EQ(application_sites(app::kExerciser, roster).size(), 14u);
  EXPECT_TRUE(application_sites("unknown-app", roster).empty());
  // Owner-VO sites come first.
  EXPECT_EQ(application_sites(app::kLigoPulsar, roster)[0], "UWM_LIGO");
}

class FabricTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  Grid3 grid{sim, 42};
};

TEST_F(FabricTest, AddVoWiresServices) {
  grid.add_vo("usatlas");
  EXPECT_NE(grid.voms("usatlas"), nullptr);
  EXPECT_NE(grid.rls("usatlas"), nullptr);
  EXPECT_NE(grid.vo_giis("usatlas"), nullptr);
  EXPECT_EQ(grid.voms("ghost"), nullptr);
}

TEST_F(FabricTest, AddUserIssuesCertAndMembership) {
  const auto cert = grid.add_user("uscms", "bob", vo::Role::kAppAdmin);
  EXPECT_TRUE(grid.ca().verify(cert, sim.now()));
  EXPECT_TRUE(grid.voms("uscms")->is_member(cert.subject_dn));
  const auto proxy = grid.make_proxy(cert, "uscms");
  ASSERT_TRUE(proxy.has_value());
  EXPECT_EQ(proxy->role, vo::Role::kAppAdmin);
  EXPECT_EQ(grid.total_users(), 1u);
}

TEST_F(FabricTest, AddSiteInstallsAndRegisters) {
  grid.add_vo("usatlas");
  SiteConfig cfg;
  cfg.name = "TESTSITE";
  cfg.owner_vo = "usatlas";
  cfg.cpus = 16;
  Site& site = grid.add_site(cfg, /*reliability=*/1000.0);
  EXPECT_TRUE(site.installed());
  // GRIS reachable through the hierarchy.
  const auto snap = grid.igoc().top_giis().lookup("TESTSITE", sim.now());
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->get_int(mds::glue::kTotalCpus), 16);
  // Grid-map knows the VO's users after refresh.
  const auto cert = grid.add_user("usatlas", "alice");
  std::vector<const vo::VomsServer*> servers{grid.voms("usatlas")};
  site.refresh_gridmap(servers);
  EXPECT_TRUE(site.gridmap().map(cert.subject_dn).has_value());
  // SiteServices resolution.
  EXPECT_EQ(grid.gatekeeper("TESTSITE"), &site.gatekeeper());
  EXPECT_EQ(grid.ftp("TESTSITE"), &site.ftp());
  EXPECT_EQ(grid.volume("TESTSITE"), &site.disk());
  EXPECT_EQ(grid.gatekeeper("GHOST"), nullptr);
}

TEST_F(FabricTest, ExternalHostResolvesForTransfers) {
  auto& cern = grid.add_external_host("CERN");
  EXPECT_EQ(grid.ftp("CERN"), cern.ftp.get());
  EXPECT_NE(grid.volume("CERN"), nullptr);
}

TEST_F(FabricTest, SitePublishesDynamicStateOnMonitorLoop) {
  grid.add_vo("usatlas");
  SiteConfig cfg;
  cfg.name = "S";
  cfg.owner_vo = "usatlas";
  cfg.cpus = 4;
  cfg.policy.dedicated = true;
  Site& site = grid.add_site(cfg, 1000.0);
  sim.run_until(Time::minutes(12));
  // Ganglia heartbeats flowed over the bus to gmetad.
  EXPECT_FALSE(grid.igoc()
                   .gmetad()
                   .history()
                   .series("S", monitoring::gmetric::kHeartbeat)
                   .empty());
  // Free CPUs published in GRIS.
  const auto snap = grid.igoc().top_giis().lookup("S", sim.now());
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->get_int(mds::glue::kFreeCpus), 4);
  (void)site;
}

TEST_F(FabricTest, FirstSweepPublishesOnlyTheKeysSomethingReads) {
  for (const char* vo : {"usatlas", "uscms", "ivdgl"}) grid.add_vo(vo);
  SiteConfig cfg;
  cfg.name = "S";
  cfg.owner_vo = "usatlas";
  cfg.cpus = 4;
  cfg.policy.dedicated = true;
  grid.add_site(cfg, 1000.0);
  // The site's first sweep fires within its first minute.
  sim.run_until(Time::minutes(2));
  // gmetad holds the five gmetric keys its summaries, the Ganglia
  // utilization and the milestones read.
  std::size_t ganglia_keys = 0;
  grid.igoc().gmetad().history().for_each(
      "ganglia.*",
      [&](const monitoring::MetricKey& key, const util::TimeSeries&) {
        if (key.site == "S") ++ganglia_keys;
      });
  EXPECT_EQ(ganglia_keys, 5u);
  // The repository holds one running-jobs gauge per supported VO (the
  // crosscheck reads them) plus the gatekeeper load the broker ranks on.
  EXPECT_EQ(grid.igoc().ml_repository().archived_keys(), 3u + 1u);
}

TEST_F(FabricTest, SharedSiteCarriesLocalLoad) {
  grid.add_vo("ivdgl");
  SiteConfig cfg;
  cfg.name = "SHARED";
  cfg.owner_vo = "ivdgl";
  cfg.cpus = 40;
  cfg.policy.dedicated = false;
  cfg.policy.local_load = 0.5;
  Site& site = grid.add_site(cfg, 1000.0);
  sim.run_until(Time::hours(4));
  // Around half the slots busy with local users.
  EXPECT_GT(site.scheduler().busy_slots(), 10);
  EXPECT_EQ(site.grid_jobs_running(), 0);
}

TEST_F(FabricTest, GridJobsRunningIgnoresQueuedLocalJobs) {
  grid.add_vo("ivdgl");
  SiteConfig cfg;
  cfg.name = "SMALL";
  cfg.owner_vo = "ivdgl";
  cfg.cpus = 4;
  cfg.policy.dedicated = false;
  cfg.policy.local_load = 0.5;
  Site& site = grid.add_site(cfg, 1000.0);
  // Grid jobs fill every slot before the local-load loop first fires
  // (within its first 30 minutes).
  for (int i = 0; i < cfg.cpus; ++i) {
    batch::JobRequest req;
    req.vo = "ivdgl";
    req.requested_walltime = Time::hours(48);
    req.actual_runtime = Time::hours(24);
    ASSERT_TRUE(site.scheduler().submit(req, {}).accepted);
  }
  sim.run_until(Time::minutes(31));
  // The local top-up waits behind them and runs nothing yet.
  EXPECT_EQ(site.scheduler().queued_count(), 2u);
  EXPECT_EQ(site.scheduler().running_for_vo(
                site.scheduler().vo_index("local")),
            0);
  EXPECT_EQ(site.grid_jobs_running(), cfg.cpus);
}

TEST_F(FabricTest, LocalTopUpNeverExceedsItsTarget) {
  grid.add_vo("ivdgl");
  SiteConfig cfg;
  cfg.name = "SHARED";
  cfg.owner_vo = "ivdgl";
  cfg.cpus = 10;
  cfg.policy.dedicated = false;
  cfg.policy.local_load = 0.5;
  Site& site = grid.add_site(cfg, 1000.0);
  batch::BatchScheduler& sched = site.scheduler();
  const batch::VoIndex local = sched.vo_index("local");
  const int target = 5;  // local_load * cpus
  int peak = 0;
  // Two days in 10-minute steps: every 30-minute top-up and the
  // completions between them.
  for (int step = 0; step < 2 * 24 * 6; ++step) {
    sim.run_until(sim.now() + Time::minutes(10));
    const int outstanding = sched.outstanding_for_vo(local);
    ASSERT_LE(outstanding, target) << "step " << step;
    ASSERT_EQ(sched.busy_slots() + static_cast<int>(sched.queued_count()),
              outstanding)
        << "step " << step;
    peak = std::max(peak, outstanding);
  }
  EXPECT_EQ(peak, target);
}

TEST_F(FabricTest, RejectedLocalJobsAreNotCounted) {
  grid.add_vo("ivdgl");
  SiteConfig cfg;
  cfg.name = "CLOSED";
  cfg.owner_vo = "ivdgl";
  cfg.cpus = 10;
  cfg.policy.dedicated = false;
  cfg.policy.local_load = 0.5;
  // The local users' group is not on the closed share list, so the
  // scheduler refuses every top-up.
  cfg.policy.vo_shares = {{"ivdgl", 1.0}};
  cfg.policy.closed_shares = true;
  Site& site = grid.add_site(cfg, 1000.0);
  sim.run_until(Time::hours(6));
  batch::BatchScheduler& sched = site.scheduler();
  EXPECT_EQ(sched.outstanding_for_vo(sched.vo_index("local")), 0);
  EXPECT_EQ(sched.busy_slots(), 0);
  EXPECT_EQ(sched.queued_count(), 0u);
  // Refused local work holds no slot: grid jobs get all ten.
  for (int i = 0; i < cfg.cpus; ++i) {
    batch::JobRequest req;
    req.vo = "ivdgl";
    req.requested_walltime = Time::hours(48);
    req.actual_runtime = Time::hours(24);
    ASSERT_TRUE(sched.submit(req, {}).accepted);
  }
  sim.run_until(Time::hours(7));
  EXPECT_EQ(site.grid_jobs_running(), cfg.cpus);
  EXPECT_EQ(sched.outstanding_for_vo(sched.vo_index("local")), 0);
}

TEST_F(FabricTest, SiteCatalogSweepTracksOutages) {
  grid.add_vo("usatlas");
  SiteConfig cfg;
  cfg.name = "S";
  cfg.owner_vo = "usatlas";
  cfg.cpus = 4;
  Site& site = grid.add_site(cfg, 1000.0);
  grid.start_operations();
  sim.run_until(Time::hours(1));
  EXPECT_EQ(grid.igoc().site_catalog().status("S"),
            monitoring::SiteStatus::kPass);
  site.gatekeeper().set_available(false);
  sim.run_until(Time::hours(2));
  EXPECT_EQ(grid.igoc().site_catalog().status("S"),
            monitoring::SiteStatus::kDegraded);
}

TEST(FailureInjection, IncidentsOpenAndCloseTickets) {
  sim::Simulation sim;
  Grid3 grid{sim, 7};
  grid.add_vo("usatlas");
  SiteConfig cfg;
  cfg.name = "FLAKY";
  cfg.owner_vo = "usatlas";
  cfg.cpus = 8;
  // Very flaky: MTBFs scaled way down.
  FailureRates rates;
  rates.disk_fill_mtbf = Time::hours(12);
  rates.gatekeeper_crash_mtbf = Time::hours(12);
  rates.network_cut_mtbf = Time::hours(12);
  rates.service_crash_mtbf = Time::hours(12);
  Site& site = grid.add_site(cfg, 1000.0);  // default injector quiet
  grid.failures().attach(site, rates);      // re-attach replaces? no: adds
  sim.run_until(Time::days(14));
  EXPECT_GT(grid.failures().total_incidents(), 5u);
  EXPECT_GT(grid.igoc().tickets().total(), 5u);
  // Tickets eventually close (repairs happen).
  EXPECT_LT(grid.igoc().tickets().open_count(),
            grid.igoc().tickets().total());
}

TEST(FailureInjection, DetachedSiteStopsReceivingIncidents) {
  sim::Simulation sim;
  Grid3 grid{sim, 9};
  grid.add_vo("usatlas");
  SiteConfig cfg;
  cfg.name = "FLAKY";
  cfg.owner_vo = "usatlas";
  cfg.cpus = 8;
  FailureRates rates;
  rates.disk_fill_mtbf = Time::hours(6);
  rates.gatekeeper_crash_mtbf = Time::hours(6);
  rates.network_cut_mtbf = Time::hours(6);
  rates.service_crash_mtbf = Time::hours(6);
  Site& site = grid.add_site(cfg, 1000.0);
  grid.failures().attach(site, rates);
  sim.run_until(Time::days(7));
  const std::size_t before = grid.failures().total_incidents();
  ASSERT_GT(before, 0u);

  grid.failures().detach("FLAKY");
  sim.run_until(Time::days(30));
  EXPECT_EQ(grid.failures().total_incidents(), before);
}

TEST(FailureInjection, DetachLeavesOpenTicketsClosable) {
  sim::Simulation sim;
  Grid3 grid{sim, 10};
  grid.add_vo("usatlas");
  SiteConfig cfg;
  cfg.name = "FLAKY";
  cfg.owner_vo = "usatlas";
  cfg.cpus = 8;
  FailureRates rates;
  rates.disk_fill_mtbf = Time::hours(4);
  rates.gatekeeper_crash_mtbf = Time::hours(4);
  rates.network_cut_mtbf = Time::hours(4);
  rates.service_crash_mtbf = Time::hours(4);
  Site& site = grid.add_site(cfg, 1000.0);
  grid.failures().attach(site, rates);
  // Run until at least one incident has a ticket open, then detach
  // mid-repair: the already-scheduled repair must still close it.
  while (grid.igoc().tickets().open_count() == 0 &&
         sim.now() < Time::days(10)) {
    sim.run_until(sim.now() + Time::hours(1));
  }
  ASSERT_GT(grid.igoc().tickets().open_count(), 0u);
  grid.failures().detach("FLAKY");
  sim.run_until(sim.now() + Time::days(3));
  EXPECT_EQ(grid.igoc().tickets().open_count(), 0u);
}

TEST(FailureInjection, RolloverKillsRunningJobs) {
  sim::Simulation sim;
  Grid3 grid{sim, 8};
  grid.add_vo("ivdgl");
  SiteConfig cfg;
  cfg.name = "ACDC";
  cfg.owner_vo = "ivdgl";
  cfg.cpus = 8;
  cfg.policy.dedicated = true;
  Site& site = grid.add_site(cfg, 1000.0, /*nightly_rollover=*/true);
  int killed = 0;
  for (int i = 0; i < 8; ++i) {
    batch::JobRequest req;
    req.vo = "ivdgl";
    req.actual_runtime = Time::days(10);
    req.requested_walltime = Time::days(11);
    site.scheduler().submit(req, [&](const batch::JobOutcome& o) {
      if (o.state == batch::JobState::kKilledNodeFailure) ++killed;
    });
  }
  sim.run_until(Time::days(2));
  EXPECT_GT(killed, 0);
}

TEST(CollectiveFailures, AttachingABundleFiresNothing) {
  // Attaching a bundle fires nothing by itself: no incidents, no
  // tickets, no RNG draws; only calendar windows take it down.
  sim::Simulation sim;
  Grid3 grid{sim, 12};
  grid.add_vo("usatlas");
  grid.arm_vo_collective_failures("usatlas");
  grid.arm_igoc_collective_failures();
  sim.run_until(Time::days(30));
  EXPECT_EQ(grid.failures().total_incidents(), 0u);
  EXPECT_EQ(grid.igoc().tickets().total(), 0u);
  EXPECT_TRUE(grid.vo_giis("usatlas")->available());
  EXPECT_TRUE(grid.rls("usatlas")->available());
}

TEST(CollectiveFailures, ScheduledRlsDowntimeJournalsAndReplays) {
  sim::Simulation sim;
  Grid3 grid{sim, 13};
  grid.add_vo("usatlas");
  grid.arm_vo_collective_failures("usatlas");
  grid.failures().schedule_downtime(
      {"usatlas-collective", Time::hours(1), Time::hours(2)});
  rls::ReplicaLocationService* rls = grid.rls("usatlas");
  mds::Giis* giis = grid.vo_giis("usatlas");

  sim.run_until(Time::hours(1) + Time::minutes(30));  // inside the window
  // The window takes the whole bundle down: VO GIIS, RLS and its RLI.
  EXPECT_FALSE(giis->available());
  EXPECT_FALSE(rls->available());
  EXPECT_FALSE(rls->rli().available());
  EXPECT_EQ(grid.failures().incidents(Incident::kScheduledDowntime), 1u);
  EXPECT_EQ(grid.igoc().tickets().total(), 1u);
  EXPECT_EQ(grid.igoc().tickets().open_count(), 1u);
  rls->register_replica("BNL", "aod",
                        {"gsiftp://BNL/aod", Bytes::gb(1), sim.now()},
                        sim.now());
  EXPECT_EQ(rls->journal().pending(), 1u);

  // Just past the window (inside the RLI's 30-min soft-state TTL; no
  // ops refresh loop runs in this test to keep the entry alive).
  sim.run_until(Time::hours(3) + Time::minutes(5));
  EXPECT_TRUE(giis->available());
  EXPECT_TRUE(rls->available());
  EXPECT_TRUE(rls->rli().available());
  // The restore replayed the journal; the maintenance ticket is closed.
  EXPECT_EQ(rls->journal().pending(), 0u);
  EXPECT_EQ(rls->journal().replayed(), 1u);
  EXPECT_EQ(rls->locate("aod", sim.now()).size(), 1u);
  EXPECT_EQ(grid.igoc().tickets().open_count(), 0u);
}

TEST(CollectiveFailures, ScheduledSiteDowntimeFiresAndRestores) {
  sim::Simulation sim;
  Grid3 grid{sim, 14};
  grid.add_vo("usatlas");
  SiteConfig cfg;
  cfg.name = "MAINT";
  cfg.owner_vo = "usatlas";
  cfg.cpus = 8;
  Site& site = grid.add_site(cfg, 1000.0);
  grid.failures().schedule_downtime(
      {"MAINT", Time::hours(2), Time::hours(3)});
  // An unknown target never fires an incident.
  grid.failures().schedule_downtime(
      {"GHOST", Time::hours(2), Time::hours(3)});

  sim.run_until(Time::hours(3));
  EXPECT_FALSE(site.gatekeeper().available());
  EXPECT_FALSE(site.gris().available());
  EXPECT_EQ(grid.failures().incidents(Incident::kScheduledDowntime), 1u);
  sim.run_until(Time::hours(6));
  EXPECT_TRUE(site.gatekeeper().available());
  EXPECT_TRUE(site.gris().available());
  EXPECT_EQ(grid.igoc().tickets().open_count(), 0u);
}

TEST(CollectiveFailures, TicketQueueDowntimeDropsOpens) {
  sim::Simulation sim;
  Grid3 grid{sim, 15};
  grid.add_vo("usatlas");
  grid.arm_igoc_collective_failures();
  grid.failures().schedule_downtime(
      {"igoc-collective", Time::hours(1), Time::hours(1)});
  sim.run_until(Time::hours(1) + Time::minutes(30));
  // The window takes the whole bundle down: top GIIS, MonALISA
  // repository and ticket queue.
  EXPECT_FALSE(grid.igoc().top_giis().available());
  EXPECT_EQ(grid.failures().incidents(Incident::kScheduledDowntime), 1u);
  // The queue is down -- even the maintenance ticket for this very
  // window was dropped (nobody tickets the ticket system).
  EXPECT_FALSE(grid.igoc().tickets().available());
  EXPECT_GE(grid.igoc().tickets().dropped(), 1u);
  EXPECT_EQ(grid.igoc().tickets().open("BNL", "disk", sim.now()), 0u);
  EXPECT_EQ(grid.igoc().tickets().total(), 0u);
  // MonALISA drops updates while down and answers nothing.
  EXPECT_FALSE(grid.igoc().ml_repository().available());
  EXPECT_FALSE(grid.igoc()
                   .ml_repository()
                   .read(grid.igoc().bus().find(
                             "BNL", monitoring::mlmetric::kGatekeeperLoad),
                         sim.now())
                   .has_value());
  sim.run_until(Time::hours(3));
  EXPECT_TRUE(grid.igoc().top_giis().available());
  EXPECT_TRUE(grid.igoc().tickets().available());
  EXPECT_TRUE(grid.igoc().ml_repository().available());
  // Closing the dropped maintenance ticket left nothing open.
  EXPECT_EQ(grid.igoc().tickets().open_count(), 0u);
  EXPECT_GT(grid.igoc().tickets().open("BNL", "disk", sim.now()), 0u);
}

TEST(Milestones, ScorecardReflectsComputedValues) {
  Milestones m;
  m.cpus_now = 2700;
  m.users = 102;
  m.applications = 10;
  m.multi_vo_sites = 17;
  m.data_tb_per_day = 3.5;
  m.utilization = 0.45;
  m.peak_concurrent_jobs = 1300;
  m.efficiency_by_vo = {{"usatlas", 0.7}, {"uscms", 0.72}};
  m.ops_ftes = 1.5;
  const auto card = m.scorecard();
  ASSERT_EQ(card.size(), 9u);
  for (const auto& row : card) {
    EXPECT_TRUE(row.met) << row.name << " measured " << row.measured;
  }
}

TEST(Milestones, UnmetTargetsFlagged) {
  Milestones m;  // all zero
  const auto card = m.scorecard();
  int unmet = 0;
  for (const auto& row : card) {
    if (!row.met) ++unmet;
  }
  EXPECT_GT(unmet, 4);
}

}  // namespace
}  // namespace grid3::core
