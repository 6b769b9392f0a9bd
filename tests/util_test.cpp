// Unit tests for the util substrate: RNG determinism, distributions,
// statistics, time series, calendar, tables.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/calendar.h"
#include "util/distributions.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timeseries.h"
#include "util/units.h"

namespace grid3::util {
namespace {

TEST(Units, TimeArithmeticAndConversions) {
  const Time t = Time::hours(2) + Time::minutes(30);
  EXPECT_DOUBLE_EQ(t.to_hours(), 2.5);
  EXPECT_DOUBLE_EQ(t.to_minutes(), 150.0);
  EXPECT_EQ(Time::days(1).ticks(), 86400LL * 1000000LL);
  EXPECT_LT(Time::seconds(1), Time::minutes(1));
  EXPECT_DOUBLE_EQ(Time::days(2) / Time::days(1), 2.0);
  EXPECT_DOUBLE_EQ((Time::hours(4) * 0.5).to_hours(), 2.0);
}

TEST(Units, BytesScalesAndBandwidth) {
  EXPECT_EQ(Bytes::gb(2).count(), 2'000'000'000LL);
  EXPECT_DOUBLE_EQ(Bytes::tb(1.5).to_tb(), 1.5);
  const Bandwidth bw = Bandwidth::mbps(100);
  EXPECT_DOUBLE_EQ(bw.bps(), 100e6 / 8.0);
  // 1 GB at 100 Mb/s = 80 seconds.
  EXPECT_NEAR(bw.transfer_time(Bytes::gb(1)).to_seconds(), 80.0, 1e-6);
  EXPECT_EQ(Bandwidth{}.transfer_time(Bytes::gb(1)), Time::max());
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a{7};
  Rng child = a.fork();
  // The fork advanced the parent; child and parent should not mirror.
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Rng, UniformBounds) {
  Rng rng{3};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const auto v = rng.uniform_int(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng{11};
  double acc = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) acc += rng.exponential(4.0);
  EXPECT_NEAR(acc / kN, 4.0, 0.15);
}

TEST(Rng, NormalMoments) {
  Rng rng{13};
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng{17};
  const std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 4000; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0] * 2);
}

TEST(Distributions, ConstantAndClamp) {
  Rng rng{5};
  const auto c = Distribution::constant(7.0);
  EXPECT_DOUBLE_EQ(c.sample(rng), 7.0);
  EXPECT_DOUBLE_EQ(c.mean(), 7.0);
  const auto clamped =
      Distribution::clamped(Distribution::constant(100.0), 0.0, 10.0);
  EXPECT_DOUBLE_EQ(clamped.sample(rng), 10.0);
}

TEST(Distributions, LognormalMeanCv) {
  Rng rng{19};
  const auto d = Distribution::lognormal_mean_cv(8.81, 1.0);
  EXPECT_DOUBLE_EQ(d.mean(), 8.81);
  OnlineStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(d.sample(rng));
  EXPECT_NEAR(stats.mean(), 8.81, 0.35);
  // cv should be near 1.
  EXPECT_NEAR(stats.stddev() / stats.mean(), 1.0, 0.1);
}

TEST(Distributions, MixtureMean) {
  Rng rng{23};
  auto mix = Distribution::mixture(
      {Distribution::constant(1.0), Distribution::constant(3.0)},
      {1.0, 1.0});
  EXPECT_DOUBLE_EQ(mix.mean(), 2.0);
  OnlineStats stats;
  for (int i = 0; i < 1000; ++i) stats.add(mix.sample(rng));
  EXPECT_NEAR(stats.mean(), 2.0, 0.1);
}

TEST(OnlineStats, WelfordMatchesDirect) {
  OnlineStats s;
  const std::vector<double> xs = {1, 2, 3, 4, 100};
  double sum = 0;
  for (double x : xs) {
    s.add(x);
    sum += x;
  }
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.sum(), sum);
  EXPECT_DOUBLE_EQ(s.mean(), sum / 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
}

TEST(OnlineStats, MergeEqualsSingleStream) {
  OnlineStats a;
  OnlineStats b;
  OnlineStats all;
  Rng rng{31};
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(0, 10);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Histogram, BinningAndQuantiles) {
  Histogram h{0.0, 10.0, 10};
  for (int i = 0; i < 100; ++i) h.add(0.5 + (i % 10));
  EXPECT_DOUBLE_EQ(h.total(), 100.0);
  EXPECT_DOUBLE_EQ(h.count(0), 10.0);
  h.add(-1);
  h.add(42);
  EXPECT_DOUBLE_EQ(h.underflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 1.0);
  EXPECT_NEAR(h.quantile(0.5), 5.0, 1.0);
}

TEST(TimeSeries, StepSemanticsAndIntegration) {
  TimeSeries ts;
  ts.append(Time::seconds(0), 2.0);
  ts.append(Time::seconds(10), 4.0);
  EXPECT_DOUBLE_EQ(ts.at(Time::seconds(5)), 2.0);
  EXPECT_DOUBLE_EQ(ts.at(Time::seconds(10)), 4.0);
  EXPECT_DOUBLE_EQ(ts.at(Time::seconds(50)), 4.0);
  // Integral over [0, 20): 2*10 + 4*10 = 60.
  EXPECT_DOUBLE_EQ(ts.integrate(Time::seconds(0), Time::seconds(20)), 60.0);
  EXPECT_DOUBLE_EQ(ts.time_average(Time::seconds(0), Time::seconds(20)), 3.0);
}

TEST(TimeSeries, BinnedAverageUnderReportsPeaks) {
  // The paper notes binned averages can report less than the peak; a
  // short spike inside a wide bin averages down.
  TimeSeries ts;
  ts.append(Time::seconds(0), 0.0);
  ts.append(Time::seconds(450), 100.0);
  ts.append(Time::seconds(550), 0.0);
  const auto bins = ts.binned_average(Time::zero(), Time::seconds(1000), 2);
  EXPECT_LT(bins[0], 100.0);
  EXPECT_DOUBLE_EQ(ts.max_over(Time::zero(), Time::seconds(1000)), 100.0);
}

TEST(Calendar, EpochAndMonthLabels) {
  EXPECT_EQ(month_label_at(Time::zero()), "10-2003");
  EXPECT_EQ(month_label_at(Time::days(31)), "11-2003");
  EXPECT_EQ(month_label_at(Time::days(31 + 30)), "12-2003");
  EXPECT_EQ(month_label_at(Time::days(31 + 30 + 31)), "01-2004");
  EXPECT_EQ(month_index_at(Time::days(31)), 1);
  EXPECT_EQ(month_start(1), Time::days(31));
}

TEST(Calendar, LeapYear2004) {
  EXPECT_EQ(days_in_month(2004, 2), 29);
  EXPECT_EQ(days_in_month(2003, 2), 28);
  // Feb 29, 2004 exists on the timeline.
  const Time t = time_of({2004, 2, 29});
  const CalendarDate d = date_at(t);
  EXPECT_EQ(d.year, 2004);
  EXPECT_EQ(d.month, 2);
  EXPECT_EQ(d.day, 29);
}

TEST(Calendar, RoundTrip) {
  for (int m = 0; m < 12; ++m) {
    const Time t = month_start(m);
    EXPECT_EQ(month_index_at(t), m);
    const CalendarDate d = date_at(t);
    EXPECT_EQ(time_of(d), t);
  }
}

TEST(Table, AlignmentAndCsv) {
  AsciiTable t{{"vo", "jobs"}};
  t.add_row({"usatlas", "7455"});
  t.add_row({"uscms", "19354"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("usatlas"), std::string::npos);
  EXPECT_NE(s.find("| jobs"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("usatlas,7455"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(AsciiTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(AsciiTable::percent(0.305), "30.5%");
  EXPECT_EQ(AsciiTable::integer(42), "42");
}

TEST(Table, BarChartScales) {
  const std::string chart =
      bar_chart({{"a", 10.0}, {"b", 5.0}}, 10, "units");
  EXPECT_NE(chart.find("##########"), std::string::npos);
  EXPECT_NE(chart.find("#####"), std::string::npos);
}

TEST(RetryPolicy, FlatScheduleReturnsTheBaseBitIdentically) {
  // factor == 1.0 must hand back the stored Time, never a
  // seconds-roundtrip that could truncate odd tick counts.
  RetryPolicy p;
  p.base = Time::micros(1'000'001);  // not a whole number of seconds
  for (int attempt = 1; attempt <= 5; ++attempt) {
    EXPECT_EQ(p.delay(attempt), p.base);
  }
}

TEST(RetryPolicy, GeometricBackoffMatchesTheLegacyLoop) {
  RetryPolicy p;
  p.base = Time::minutes(2);
  p.factor = 2.0;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    // The pre-policy call sites computed backoff by repeated
    // multiplication; the policy must reproduce that sequence exactly.
    double legacy = p.base.to_seconds();
    for (int i = 1; i < attempt; ++i) legacy *= p.factor;
    EXPECT_DOUBLE_EQ(p.delay_seconds(attempt), legacy);
  }
  EXPECT_DOUBLE_EQ(p.delay_seconds(1), 120.0);
  EXPECT_DOUBLE_EQ(p.delay_seconds(3), 480.0);
}

TEST(RetryPolicy, JitterIsDeterministicAndBounded) {
  RetryPolicy p;
  p.base = Time::minutes(5);
  p.jitter = 0.25;
  const double flat = p.base.to_seconds();
  std::set<double> seen;
  for (std::uint64_t key = 1; key <= 32; ++key) {
    const double d = p.delay_seconds(1, key);
    EXPECT_GE(d, flat);
    EXPECT_LT(d, flat * 1.25);
    EXPECT_DOUBLE_EQ(d, p.delay_seconds(1, key));  // pure in the key
    seen.insert(d);
  }
  EXPECT_GT(seen.size(), 16u);  // the hash actually spreads
  // Zero jitter ignores the key entirely.
  p.jitter = 0.0;
  EXPECT_DOUBLE_EQ(p.delay_seconds(1, 12345), flat);
}

TEST(RetryPolicy, RetryCountAndDeadlineBudgets) {
  RetryPolicy p;
  p.max_retries = 2;
  EXPECT_TRUE(p.allows(0));
  EXPECT_TRUE(p.allows(1));
  EXPECT_FALSE(p.allows(2));
  EXPECT_FALSE(p.budget_exhausted(Time::hours(1)));  // default: no deadline
  p.deadline = Time::hours(12);
  EXPECT_FALSE(p.budget_exhausted(Time::hours(12)));  // at the line is fine
  EXPECT_TRUE(p.budget_exhausted(Time::hours(12) + Time::micros(1)));
}

TEST(Jitter01, SplitmixHashIsUniformishAndPure) {
  std::set<double> seen;
  for (std::uint64_t x = 0; x < 64; ++x) {
    const double u = jitter01(x);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_DOUBLE_EQ(u, jitter01(x));
    seen.insert(u);
  }
  EXPECT_EQ(seen.size(), 64u);
}

}  // namespace
}  // namespace grid3::util
