// Unit tests for the section 8 troubleshooting API: ID linking, burst
// detection, incident correlation.
#include <gtest/gtest.h>

#include "monitoring/troubleshoot.h"

namespace grid3::monitoring {
namespace {

JobRecord record(const std::string& site, double finished_h, bool success,
                 const std::string& failure = {}) {
  JobRecord r;
  r.vo = "usatlas";
  r.site = site;
  r.user_dn = "/CN=x";
  r.submitted = Time::hours(finished_h - 1.0);
  r.started = Time::hours(finished_h - 1.0);
  r.finished = Time::hours(finished_h);
  r.success = success;
  r.failure = failure;
  r.site_problem = !success;
  return r;
}

TEST(Troubleshooter, LinksSubmitAndExecutionIds) {
  JobDatabase db;
  JobRecord r = record("BNL", 5.0, true);
  r.submit_id = "usatlas/gce-atlas/17";
  r.gram_contact = "BNL/jobmanager/42";
  db.insert(r);
  Troubleshooter ts{db};
  const JobRecord* by_submit = ts.find_by_submit_id("usatlas/gce-atlas/17");
  ASSERT_NE(by_submit, nullptr);
  EXPECT_EQ(by_submit->gram_contact, "BNL/jobmanager/42");
  const JobRecord* by_gram = ts.find_by_gram_contact("BNL/jobmanager/42");
  ASSERT_NE(by_gram, nullptr);
  EXPECT_EQ(by_gram->submit_id, "usatlas/gce-atlas/17");
  EXPECT_EQ(ts.find_by_submit_id("nope"), nullptr);
  EXPECT_EQ(ts.find_by_gram_contact(""), nullptr);
}

TEST(Troubleshooter, FailuresAtSiteNewestFirst) {
  JobDatabase db;
  db.insert(record("X", 1.0, false, "disk-full"));
  db.insert(record("X", 3.0, false, "disk-full"));
  db.insert(record("X", 2.0, true));
  db.insert(record("Y", 2.5, false, "network"));
  Troubleshooter ts{db};
  const auto failures = ts.failures_at("X", Time::zero(), Time::days(1));
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_GT(failures[0]->finished, failures[1]->finished);
}

TEST(Troubleshooter, DetectsBurstAndDominantClass) {
  JobDatabase db;
  // Six failures within two hours at X (a burst), plus scattered noise.
  for (int i = 0; i < 6; ++i) {
    db.insert(record("X", 10.0 + 0.3 * i, false,
                     i < 4 ? "disk-full" : "stage-out-failed"));
  }
  db.insert(record("X", 40.0, false, "application-error"));  // isolated
  db.insert(record("Y", 11.0, false, "network"));            // other site
  Troubleshooter ts{db};
  const auto bursts = ts.find_bursts(Time::zero(), Time::days(5),
                                     /*min_failures=*/5);
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0].site, "X");
  // The isolated failure at t=40h is more than 6h after the burst, but
  // within the 6 h burst gap of nothing -- excluded.
  EXPECT_EQ(bursts[0].failures, 6u);
  EXPECT_EQ(bursts[0].dominant_class, "disk-full");
}

TEST(Troubleshooter, GapSplitsBursts) {
  JobDatabase db;
  for (int i = 0; i < 5; ++i) db.insert(record("X", 1.0 + 0.1 * i, false));
  for (int i = 0; i < 5; ++i) db.insert(record("X", 30.0 + 0.1 * i, false));
  Troubleshooter ts{db};
  const auto bursts = ts.find_bursts(Time::zero(), Time::days(5), 5);
  EXPECT_EQ(bursts.size(), 2u);
}

TEST(Troubleshooter, CorrelatesBurstWithIncident) {
  FailureBurst burst;
  burst.site = "X";
  burst.from = Time::hours(10);
  burst.to = Time::hours(12);
  burst.failures = 8;

  IncidentWindow match{1, "X", "disk-fill", Time::hours(9), Time::hours(13)};
  IncidentWindow other_site{2, "Y", "disk-fill", Time::hours(9),
                            Time::hours(13)};
  IncidentWindow too_early{3, "X", "network-cut", Time::hours(1),
                           Time::hours(3)};

  auto correlated = Troubleshooter::correlate(
      {burst}, {other_site, too_early, match});
  ASSERT_EQ(correlated.size(), 1u);
  ASSERT_TRUE(correlated[0].ticket.has_value());
  EXPECT_EQ(*correlated[0].ticket, 1u);
}

TEST(Troubleshooter, OpenIncidentStillCorrelates) {
  FailureBurst burst;
  burst.site = "X";
  burst.from = Time::hours(10);
  burst.to = Time::hours(20);
  IncidentWindow open_ticket{7, "X", "gatekeeper-crash", Time::hours(9),
                             Time::max()};
  auto correlated = Troubleshooter::correlate({burst}, {open_ticket});
  ASSERT_TRUE(correlated[0].ticket.has_value());
}

TEST(Troubleshooter, UnexplainedBurstStaysUnattributed) {
  FailureBurst burst;
  burst.site = "X";
  burst.from = Time::hours(10);
  burst.to = Time::hours(12);
  auto correlated = Troubleshooter::correlate({burst}, {});
  EXPECT_FALSE(correlated[0].ticket.has_value());
}

TEST(Troubleshooter, TopFailureClassesSortedAndLimited) {
  JobDatabase db;
  for (int i = 0; i < 5; ++i) db.insert(record("X", 1.0 + i, false, "a"));
  for (int i = 0; i < 3; ++i) db.insert(record("X", 10.0 + i, false, "b"));
  db.insert(record("X", 20.0, false, "c"));
  Troubleshooter ts{db};
  const auto top = ts.top_failure_classes(Time::zero(), Time::days(5), 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, "a");
  EXPECT_EQ(top[0].second, 5u);
  EXPECT_EQ(top[1].first, "b");
}

}  // namespace
}  // namespace grid3::monitoring
