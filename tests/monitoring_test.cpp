// Unit tests for the monitoring framework: metric bus, Ganglia,
// MonALISA repository, ACDC job DB / Table 1 queries, site catalog,
// MDViewer figures.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "monitoring/acdc.h"
#include "monitoring/bus.h"
#include "monitoring/ganglia.h"
#include "monitoring/mdviewer.h"
#include "monitoring/monalisa.h"
#include "monitoring/site_catalog.h"

namespace grid3::monitoring {
namespace {

TEST(MetricBus, PublishLatestSeries) {
  // The bus keeps no samples: a subscriber sees each one in order, with
  // the key's id, which names the key.
  MetricBus bus;
  std::vector<double> seen;
  std::vector<MetricId> ids;
  bus.subscribe("BNL", "m", [&](MetricId id, Time, double value) {
    EXPECT_EQ(bus.key(id), (MetricKey{"BNL", "m"}));
    ids.push_back(id);
    seen.push_back(value);
  });
  bus.publish("BNL", "m", Time::seconds(1), 10.0);
  bus.publish("BNL", "m", Time::seconds(2), 20.0);
  bus.publish("BNL", "other", Time::seconds(2), 30.0);
  EXPECT_EQ(seen, (std::vector<double>{10.0, 20.0}));
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], ids[1]);
  EXPECT_EQ(bus.published(), 3u);
  EXPECT_EQ(bus.key_count(), 2u);
}

TEST(MetricBus, ResolvedIdsPublishLikeStrings) {
  MetricBus bus;
  std::vector<double> seen;
  bus.subscribe("*", "m", [&](MetricId, Time, double value) {
    seen.push_back(value);
  });
  const MetricId id = bus.resolve("BNL", "m");
  EXPECT_EQ(bus.resolve("BNL", "m"), id);
  EXPECT_EQ(bus.find("BNL", "m"), id);
  EXPECT_FALSE(bus.find("BNL", "never").valid());
  // A resolved key counts once it carries a sample.
  EXPECT_EQ(bus.key_count(), 0u);
  bus.publish(id, Time::seconds(1), 1.0);
  bus.publish("BNL", "m", Time::seconds(2), 2.0);
  EXPECT_EQ(seen, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(bus.key_count(), 1u);
  EXPECT_EQ(bus.published(), 2u);
}

TEST(MetricBus, SubscriptionExactAndWildcards) {
  MetricBus bus;
  int exact = 0, any_site = 0, prefix = 0;
  bus.subscribe("BNL", "m.x",
                [&](MetricId, Time, double) { ++exact; });
  bus.subscribe("*", "m.x",
                [&](MetricId, Time, double) { ++any_site; });
  bus.subscribe("*", "m.*",
                [&](MetricId, Time, double) { ++prefix; });
  bus.publish("BNL", "m.x", Time::zero(), 1.0);
  bus.publish("FNAL", "m.x", Time::zero(), 1.0);
  bus.publish("BNL", "m.y", Time::zero(), 1.0);
  EXPECT_EQ(exact, 1);
  EXPECT_EQ(any_site, 2);
  EXPECT_EQ(prefix, 3);
}

TEST(MetricBus, UnsubscribeStopsDelivery) {
  MetricBus bus;
  int calls = 0;
  const auto id =
      bus.subscribe("*", "m", [&](MetricId, Time, double) { ++calls; });
  bus.publish("a", "m", Time::zero(), 1.0);
  bus.unsubscribe(id);
  bus.publish("a", "m", Time::zero(), 1.0);
  EXPECT_EQ(calls, 1);
}

TEST(Ganglia, GmondPublishesAllMetrics) {
  MetricBus bus;
  GangliaGmetad gmetad{bus};
  GangliaGmond gmond{"BNL", bus, [] {
                       HostMetrics m;
                       m.cpus_total = 360;
                       m.cpus_busy = 100;
                       m.load_one = 3.2;
                       m.disk_free_gb = 500.0;
                       return m;
                     }};
  gmond.sample(Time::minutes(5));
  const MetricStore& history = gmetad.history();
  EXPECT_EQ(history.series("BNL", gmetric::kCpusTotal).latest().value, 360.0);
  EXPECT_EQ(history.series("BNL", gmetric::kCpusBusy).latest().value, 100.0);
  EXPECT_FALSE(history.series("BNL", gmetric::kHeartbeat).empty());
  gmond.set_available(false);
  gmond.sample(Time::minutes(10));
  EXPECT_EQ(gmond.samples(), 1u);  // down daemon samples nothing
}

TEST(Ganglia, GmetadAggregatesAndFlagsStaleSites) {
  MetricBus bus;
  GangliaGmetad gmetad{bus};
  GangliaGmond a{"A", bus, [] {
                   HostMetrics m;
                   m.cpus_total = 100;
                   m.cpus_busy = 40;
                   return m;
                 }};
  GangliaGmond b{"B", bus, [] {
                   HostMetrics m;
                   m.cpus_total = 50;
                   m.cpus_busy = 10;
                   return m;
                 }};
  a.sample(Time::minutes(0));
  b.sample(Time::minutes(0));
  auto s = gmetad.summarize(Time::minutes(5));
  EXPECT_EQ(s.sites_reporting, 2);
  EXPECT_EQ(s.cpus_total, 150);
  EXPECT_EQ(s.cpus_busy, 50);
  // Only A keeps reporting; B goes stale.
  a.sample(Time::minutes(20));
  s = gmetad.summarize(Time::minutes(25));
  EXPECT_EQ(s.sites_reporting, 1);
  ASSERT_EQ(s.missing_sites.size(), 1u);
  EXPECT_EQ(s.missing_sites[0], "B");
}

TEST(Ganglia, GmetadHistoryStartsAtConstruction) {
  MetricBus bus;
  GangliaGmond gmond{"A", bus, [] {
                       HostMetrics m;
                       m.cpus_total = 8;
                       return m;
                     }};
  gmond.sample(Time::minutes(0));  // before gmetad exists: never collected
  GangliaGmetad gmetad{bus};
  EXPECT_EQ(gmetad.history().size(), 0u);
  EXPECT_EQ(gmetad.summarize(Time::minutes(1)).sites_reporting, 0);
  gmond.sample(Time::minutes(5));
  const auto& cpus = gmetad.history().series("A", gmetric::kCpusTotal);
  ASSERT_EQ(cpus.size(), 1u);
  EXPECT_EQ(cpus.points().front().t, Time::minutes(5));
  EXPECT_EQ(gmetad.history().size(), 5u);  // every metric of one sweep
  EXPECT_EQ(gmetad.summarize(Time::minutes(6)).cpus_total, 8);
}

TEST(Monalisa, RepositoryArchivesPrefixMetrics) {
  MetricBus bus;
  MonalisaRepository repo{bus};
  MonalisaAgent agent{"BNL", bus};
  agent.report(vo_metric(mlmetric::kVoJobsRunning, "usatlas"),
               Time::minutes(1), 42.0);
  agent.report(mlmetric::kGatekeeperLoad, Time::minutes(1), 200.0);
  bus.publish("BNL", "ganglia.load_one", Time::minutes(1), 1.0);  // ignored
  EXPECT_EQ(repo.archived_keys(), 2u);
  const auto v = repo.read(
      bus.find("BNL", vo_metric(mlmetric::kVoJobsRunning, "usatlas")),
      Time::minutes(2));
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(*v, 42.0);
}

TEST(Monalisa, ReadServesTheSlotAverageTheBrokerRanksOn) {
  MetricBus bus;
  MonalisaRepository repo{bus};
  MonalisaAgent agent{"BNL", bus};
  const std::string name = mlmetric::kGatekeeperLoad;
  // Before the first report the key has no id, and reads answer nothing.
  EXPECT_FALSE(bus.find("BNL", name).valid());
  EXPECT_FALSE(repo.read(bus.find("BNL", name), Time::minutes(1)).has_value());
  agent.report(name, Time::minutes(1), 100.0);
  const MetricId load = bus.find("BNL", name);
  EXPECT_EQ(repo.find("BNL", name), load);
  EXPECT_EQ(repo.read(load, Time::minutes(1)), 100.0);
  // A new 5-minute slot answers nothing before its first sample...
  EXPECT_FALSE(repo.read(load, Time::minutes(6)).has_value());
  // ...then the running average of the samples it holds.
  agent.report(name, Time::minutes(7), 40.0);
  EXPECT_EQ(repo.read(load, Time::minutes(7)), 40.0);
  agent.report(name, Time::minutes(8), 60.0);
  EXPECT_EQ(repo.read(load, Time::minutes(8)), 50.0);
  // Only the latest slot with samples is kept: a past slot answers
  // nothing.
  EXPECT_FALSE(repo.read(load, Time::minutes(2)).has_value());
  // A down repository answers nothing.
  repo.set_available(false);
  EXPECT_FALSE(repo.read(load, Time::minutes(9)).has_value());
  // A sample dropped while down is not served after a recovery later in
  // the same slot.
  agent.report(name, Time::minutes(11), 70.0);
  repo.set_available(true);
  EXPECT_EQ(repo.dropped_updates(), 1u);
  EXPECT_FALSE(repo.read(load, Time::minutes(13)).has_value());
}

TEST(Monalisa, SameInstantSampleReplacesTheFirstInTheSlotAverage) {
  MetricBus bus;
  MonalisaRepository repo{bus};
  MonalisaAgent agent{"BNL", bus};
  const MetricId load = agent.resolve(mlmetric::kGatekeeperLoad);
  agent.report(load, Time::minutes(1), 10.0);
  agent.report(load, Time::minutes(2), 20.0);
  EXPECT_EQ(repo.read(load, Time::minutes(2)), 15.0);
  // A second sample at minute 2 replaces the first: (10 + 40) / 2.
  agent.report(load, Time::minutes(2), 40.0);
  EXPECT_EQ(repo.read(load, Time::minutes(2)), 25.0);
  // So does a third, and later samples average with the survivor.
  agent.report(load, Time::minutes(2), 10.0);
  agent.report(load, Time::minutes(3), 40.0);
  EXPECT_EQ(repo.read(load, Time::minutes(3)), 20.0);
  // The first sample of a slot replaces nothing from the slot before.
  agent.report(load, Time::minutes(5), 7.0);
  EXPECT_EQ(repo.read(load, Time::minutes(5)), 7.0);
  EXPECT_EQ(agent.reports(), 6u);
  EXPECT_EQ(repo.updates(), 6u);
}

TEST(Monalisa, DownAgentReportsNothing) {
  MetricBus bus;
  MonalisaAgent agent{"BNL", bus};
  agent.set_available(false);
  agent.report(mlmetric::kGatekeeperLoad, Time::zero(), 5.0);
  EXPECT_EQ(agent.reports(), 0u);
  EXPECT_EQ(bus.published(), 0u);
}

/// The iGOC collectors an MdViewer reads, fed by one bus.
struct Collectors {
  MetricBus bus;
  GangliaGmetad gmetad{bus};
  MonalisaRepository repository{bus};

  [[nodiscard]] MdViewer viewer(const JobDatabase& db) const {
    return {db, gmetad, repository};
  }
};

JobRecord make_job(const std::string& vo, const std::string& site,
                   const std::string& user, double start_day,
                   double runtime_h, bool success = true) {
  JobRecord r;
  r.vo = vo;
  r.site = site;
  r.user_dn = user;
  r.app = "app";
  r.submitted = Time::days(start_day);
  r.started = Time::days(start_day);
  r.finished = Time::days(start_day) + Time::hours(runtime_h);
  r.success = success;
  return r;
}

TEST(JobDatabase, Table1StatsColumns) {
  JobDatabase db;
  // Two jobs in Nov 2003 (days 31..60) at site X, one in Dec at Y.
  db.insert(make_job("usatlas", "X", "/CN=a", 35, 10.0));
  db.insert(make_job("usatlas", "X", "/CN=b", 40, 6.0));
  db.insert(make_job("usatlas", "Y", "/CN=a", 70, 2.0));
  db.insert(make_job("uscms", "Z", "/CN=c", 40, 40.0));  // other VO
  const auto s = db.stats_for("usatlas", Time::zero(), Time::days(365));
  EXPECT_EQ(s.jobs, 3u);
  EXPECT_EQ(s.users, 2u);
  EXPECT_EQ(s.sites_used, 2u);
  EXPECT_NEAR(s.avg_runtime_hours, 6.0, 1e-9);
  EXPECT_NEAR(s.max_runtime_hours, 10.0, 1e-9);
  EXPECT_NEAR(s.total_cpu_days, 18.0 / 24.0, 1e-9);
  EXPECT_EQ(s.peak_rate_jobs_per_month, 2u);
  EXPECT_EQ(s.peak_month, "11-2003");
  EXPECT_EQ(s.peak_resources, 1u);
  EXPECT_EQ(s.max_single_resource_jobs, 2u);
  EXPECT_NEAR(s.max_single_resource_percent, 100.0, 1e-9);
}

TEST(JobDatabase, FailedJobsExcludedFromStats) {
  JobDatabase db;
  db.insert(make_job("ligo", "X", "/CN=a", 5, 1.0, false));
  const auto s = db.stats_for("ligo", Time::zero(), Time::days(365));
  EXPECT_EQ(s.jobs, 0u);
}

TEST(JobDatabase, FailureSummaryAttribution) {
  JobDatabase db;
  db.insert(make_job("usatlas", "X", "/CN=a", 5, 1.0, true));
  auto bad = make_job("usatlas", "X", "/CN=a", 6, 1.0, false);
  bad.site_problem = true;
  bad.failure = "disk-full";
  db.insert(bad);
  auto bad2 = make_job("usatlas", "X", "/CN=a", 7, 1.0, false);
  bad2.site_problem = false;
  bad2.failure = "authentication-failed";
  db.insert(bad2);
  const auto f = db.failures("usatlas", Time::zero(), Time::days(30));
  EXPECT_EQ(f.total, 3u);
  EXPECT_EQ(f.failed, 2u);
  EXPECT_EQ(f.site_problem, 1u);
  EXPECT_NEAR(f.failure_rate(), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(f.site_problem_share(), 0.5, 1e-9);
  EXPECT_EQ(f.by_class.at("disk-full"), 1u);
}

TEST(JobDatabase, JobsByMonthHistogram) {
  JobDatabase db;
  db.insert(make_job("a", "X", "/CN=a", 5, 1.0));    // Oct 2003
  db.insert(make_job("a", "X", "/CN=a", 40, 1.0));   // Nov
  db.insert(make_job("a", "X", "/CN=a", 45, 1.0));   // Nov
  db.insert(make_job("a", "X", "/CN=a", 100, 1.0));  // Jan 2004
  const auto hist = db.jobs_by_month(7);
  EXPECT_EQ(hist[0], 1u);
  EXPECT_EQ(hist[1], 2u);
  EXPECT_EQ(hist[2], 0u);
  EXPECT_EQ(hist[3], 1u);
}

TEST(JobDatabase, TransferAccountingByVoAndSite) {
  JobDatabase db;
  db.insert_transfer({"A", "B", "ivdgl", Bytes::tb(1), Time::days(1), true});
  db.insert_transfer({"A", "C", "uscms", Bytes::gb(500), Time::days(2),
                      false});
  const auto by_vo = db.bytes_consumed_by_vo(Time::zero(), Time::days(10));
  EXPECT_EQ(by_vo.at("ivdgl").first, Bytes::tb(1));
  EXPECT_EQ(by_vo.at("ivdgl").second, Bytes::tb(1));  // demo traffic
  EXPECT_EQ(by_vo.at("uscms").second, Bytes::zero());
  const auto by_site = db.bytes_consumed_by_site(Time::zero(), Time::days(10));
  EXPECT_EQ(by_site.at("B"), Bytes::tb(1));
  EXPECT_EQ(by_site.at("C"), Bytes::gb(500));
}

TEST(SiteCatalog, StatusDerivation) {
  SiteStatusCatalog catalog;
  bool gatekeeper_ok = true;
  catalog.register_site("X", "Somewhere U.", [&] {
    return std::vector<ProbeResult>{{"gk", gatekeeper_ok}, {"ftp", true}};
  });
  catalog.run_sweep(Time::minutes(30));
  EXPECT_EQ(catalog.status("X"), SiteStatus::kPass);
  gatekeeper_ok = false;
  const auto changed = catalog.run_sweep(Time::minutes(60));
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(catalog.status("X"), SiteStatus::kDegraded);
  EXPECT_EQ(catalog.count(SiteStatus::kDegraded), 1u);
  const SiteEntry* entry = catalog.entry("X");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->last_tested, Time::minutes(60));
  EXPECT_EQ(entry->location, "Somewhere U.");
}

TEST(SiteCatalog, AllFailingProbesMeanFail) {
  SiteStatusCatalog catalog;
  catalog.register_site("Y", "loc", [] {
    return std::vector<ProbeResult>{{"a", false}, {"b", false}};
  });
  catalog.run_sweep(Time::zero());
  EXPECT_EQ(catalog.status("Y"), SiteStatus::kFail);
}

TEST(MdViewer, IntegratedCpuDaysByVo) {
  JobDatabase db;
  db.insert(make_job("uscms", "X", "/CN=a", 1, 48.0));   // 2 CPU-days
  db.insert(make_job("usatlas", "Y", "/CN=b", 2, 24.0)); // 1 CPU-day
  Collectors c;
  const MdViewer viewer = c.viewer(db);
  const auto fig2 =
      viewer.integrated_cpu_days_by_vo(Time::zero(), Time::days(30));
  ASSERT_EQ(fig2.size(), 2u);
  EXPECT_EQ(fig2[0].first, "uscms");  // sorted descending
  EXPECT_NEAR(fig2[0].second, 2.0, 1e-9);
  EXPECT_NEAR(fig2[1].second, 1.0, 1e-9);
}

TEST(MdViewer, WindowClipsPartialOverlap) {
  JobDatabase db;
  // Runs days 1..3; window covers only day 2 -> 1 CPU-day counted.
  db.insert(make_job("sdss", "X", "/CN=a", 1, 48.0));
  Collectors c;
  const MdViewer viewer = c.viewer(db);
  const auto fig2 =
      viewer.integrated_cpu_days_by_vo(Time::days(2), Time::days(3));
  ASSERT_EQ(fig2.size(), 1u);
  EXPECT_NEAR(fig2[0].second, 1.0, 1e-9);
}

TEST(MdViewer, ConcurrencyAndPeak) {
  JobDatabase db;
  db.insert(make_job("a", "X", "/CN=a", 1.0, 24.0));
  db.insert(make_job("a", "X", "/CN=a", 1.5, 24.0));
  db.insert(make_job("a", "X", "/CN=a", 1.7, 4.8));
  Collectors c;
  const MdViewer viewer = c.viewer(db);
  EXPECT_DOUBLE_EQ(viewer.peak_concurrent_jobs(Time::zero(), Time::days(5)),
                   3.0);
}

TEST(MdViewer, CrosscheckDivergenceNearZeroWhenPathsAgree) {
  JobDatabase db;
  // One job busy the whole window.
  db.insert(make_job("a", "X", "/CN=a", 0.0, 240.0));
  Collectors c;
  // The MonALISA VO-activity path reports 1 running job too.
  c.bus.publish("X", "monalisa.vo_jobs_running.a", Time::zero(), 1.0);
  c.bus.publish("X", gmetric::kCpusBusy, Time::zero(), 1.0);
  c.bus.publish("X", gmetric::kCpusTotal, Time::zero(), 10.0);
  const MdViewer viewer = c.viewer(db);
  EXPECT_LT(viewer.crosscheck_divergence(Time::zero(), Time::days(10)), 0.05);
  EXPECT_NEAR(viewer.utilization_from_ganglia(Time::zero(), Time::days(10)),
              0.1, 1e-9);
}

TEST(MdViewer, CrosscheckDetectsLostPath) {
  JobDatabase db;
  db.insert(make_job("a", "X", "/CN=a", 0.0, 240.0));
  Collectors c;
  // The MonALISA agent wedged: reports zero running jobs.
  c.bus.publish("X", "monalisa.vo_jobs_running.a", Time::zero(), 0.0);
  const MdViewer viewer = c.viewer(db);
  EXPECT_GT(viewer.crosscheck_divergence(Time::zero(), Time::days(10)), 0.9);
}

TEST(MdViewer, CrosscheckCountsRepositoryOutageAsLostData) {
  JobDatabase db;
  db.insert(make_job("a", "X", "/CN=a", 1.0, 48.0));  // runs days 1..3
  Collectors c;
  MonalisaAgent agent{"X", c.bus};
  const std::string running = vo_metric(mlmetric::kVoJobsRunning, "a");
  agent.report(running, Time::zero(), 0.0);
  // The agent reports the job faithfully, but the repository is down for
  // its whole run, so those reports are lost.
  c.repository.set_available(false);
  agent.report(running, Time::days(1), 1.0);
  agent.report(running, Time::days(3), 0.0);
  c.repository.set_available(true);
  const MdViewer viewer = c.viewer(db);
  EXPECT_GT(viewer.crosscheck_divergence(Time::zero(), Time::days(4)), 0.9);
}

}  // namespace
}  // namespace grid3::monitoring
