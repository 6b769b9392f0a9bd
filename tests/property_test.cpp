// Property-style parameterized suites: invariants that must hold across
// parameter sweeps (scheduler types, network fan-in, RNG seeds).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "batch/scheduler.h"
#include "monitoring/bus.h"
#include "monitoring/monalisa.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "util/timeseries.h"

namespace grid3 {
namespace {

// ---------------------------------------------------------------------
// Property: every scheduler conserves jobs -- each submission reaches
// exactly one terminal state, and CPU charged never exceeds slot-time.
// ---------------------------------------------------------------------
enum class Lrms { kCondor, kPbs, kLsf };

struct SchedulerCase {
  Lrms lrms;
  int slots;
  int jobs;
  std::uint64_t seed;
};

class SchedulerConservation
    : public ::testing::TestWithParam<SchedulerCase> {};

std::unique_ptr<batch::BatchScheduler> make(sim::Simulation& sim,
                                            const SchedulerCase& c) {
  batch::SchedulerConfig cfg;
  cfg.site_name = "P";
  cfg.slots = c.slots;
  cfg.max_walltime = Time::hours(50);
  switch (c.lrms) {
    case Lrms::kCondor:
      return std::make_unique<batch::CondorScheduler>(sim, cfg);
    case Lrms::kPbs:
      return std::make_unique<batch::PbsScheduler>(sim, cfg);
    case Lrms::kLsf:
      return std::make_unique<batch::LsfScheduler>(sim, cfg);
  }
  return nullptr;
}

TEST_P(SchedulerConservation, EveryJobTerminatesExactlyOnce) {
  const auto c = GetParam();
  sim::Simulation sim;
  auto sched = make(sim, c);
  util::Rng rng{c.seed};

  int terminal = 0;
  double cpu_hours = 0.0;
  const Time horizon = Time::days(30);
  for (int i = 0; i < c.jobs; ++i) {
    batch::JobRequest req;
    req.vo = "vo" + std::to_string(i % 3);
    const double runtime = rng.uniform(0.1, 20.0);
    req.actual_runtime = Time::hours(runtime);
    req.requested_walltime = Time::hours(rng.uniform(runtime, 40.0));
    req.priority = rng.chance(0.1) ? -1 : 0;
    const Time submit_at = Time::hours(rng.uniform(0.0, 100.0));
    sim.schedule_at(submit_at, [&, req] {
      sched->submit(req, [&](const batch::JobOutcome& o) {
        ++terminal;
        cpu_hours += o.cpu_used().to_hours();
      });
    });
  }
  sim.run_until(horizon);
  sim.run();  // drain
  EXPECT_EQ(terminal, c.jobs);
  // CPU charged cannot exceed slots * makespan.
  EXPECT_LE(cpu_hours, c.slots * sim.now().to_hours() + 1e-6);
  EXPECT_EQ(sched->busy_slots(), 0);
  EXPECT_EQ(sched->queued_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, SchedulerConservation,
    ::testing::Values(
        SchedulerCase{Lrms::kCondor, 4, 50, 1},
        SchedulerCase{Lrms::kCondor, 16, 200, 2},
        SchedulerCase{Lrms::kPbs, 4, 50, 3},
        SchedulerCase{Lrms::kPbs, 16, 200, 4},
        SchedulerCase{Lrms::kLsf, 4, 50, 5},
        SchedulerCase{Lrms::kLsf, 16, 200, 6},
        SchedulerCase{Lrms::kCondor, 1, 30, 7},
        SchedulerCase{Lrms::kPbs, 1, 30, 8},
        SchedulerCase{Lrms::kLsf, 1, 30, 9}));

// ---------------------------------------------------------------------
// Property: the per-VO running/queued counts a scheduler keeps agree with
// a recount of its job tables after every operation that moves a job.
// ---------------------------------------------------------------------

/// A policy scheduler that can recount its own tables.
template <class Policy>
class Recounted : public Policy {
 public:
  using Policy::Policy;

  [[nodiscard]] int recount_running(const std::string& vo) const {
    return this->count_running(
        [&](const batch::JobRequest& r) { return r.vo == vo; });
  }
  [[nodiscard]] std::size_t recount_queued(const std::string& vo) const {
    const auto& q = this->queue();
    return static_cast<std::size_t>(
        std::count_if(q.begin(), q.end(), [&](const auto& j) {
          return j.req.vo == vo;
        }));
  }
};

struct CountCase {
  Lrms lrms;
  std::uint64_t seed;
  bool closed_shares;
};

class VoCounts : public ::testing::TestWithParam<CountCase> {};

template <class Policy>
void drive_and_recount(const CountCase& c) {
  sim::Simulation sim;
  batch::SchedulerConfig cfg;
  cfg.site_name = "P";
  cfg.slots = 6;
  cfg.max_walltime = Time::hours(10);
  cfg.vo_shares = {{"atlas", 2.0}, {"cms", 1.0}, {"local", 1.0}};
  cfg.closed_shares = c.closed_shares;
  Recounted<Policy> sched{sim, cfg};
  util::Rng rng{c.seed};
  // "sdss" is outside the share list: rejected when shares are closed.
  const std::vector<std::string> vos{"atlas", "cms", "local", "sdss"};
  std::vector<batch::LocalJobId> ids;

  const auto check = [&](int step) {
    int running = 0;
    std::size_t queued = 0;
    for (const std::string& vo : vos) {
      ASSERT_EQ(sched.running_for_vo(vo), sched.recount_running(vo))
          << vo << " at step " << step;
      ASSERT_EQ(sched.queued_for_vo(vo), sched.recount_queued(vo))
          << vo << " at step " << step;
      running += sched.running_for_vo(vo);
      queued += sched.queued_for_vo(vo);
    }
    ASSERT_EQ(running, sched.busy_slots()) << step;
    ASSERT_EQ(queued, sched.queued_count()) << step;
  };

  for (int step = 0; step < 600; ++step) {
    const double op = rng.uniform();
    if (op < 0.45) {
      batch::JobRequest req;
      req.vo = vos[static_cast<std::size_t>(rng.uniform_int(0, 3))];
      // Some run past their request (walltime kills on PBS/LSF), some
      // ask past the queue limit (walltime rejections).
      const double runtime = rng.uniform(0.1, 12.0);
      req.actual_runtime = Time::hours(runtime);
      req.requested_walltime = Time::hours(rng.uniform(0.1, 14.0));
      req.priority = static_cast<int>(rng.uniform_int(-1, 1));
      const auto result = sched.submit(req, {});
      if (result.accepted) ids.push_back(result.id);
    } else if (op < 0.6) {
      if (!ids.empty()) {
        // Queued, running or already finished: cancel handles all three.
        sched.cancel(ids[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(ids.size()) - 1))]);
      }
    } else if (op < 0.65) {
      sched.kill_running(rng.uniform(0.0, 0.5), rng);
    } else if (op < 0.72) {
      sched.resize(static_cast<int>(rng.uniform_int(1, 10)), rng);
    } else if (op < 0.77) {
      sched.drain();
    } else if (op < 0.82) {
      sched.resume();
    } else {
      // Natural completions and walltime kills.
      sim.run_until(sim.now() + Time::minutes(rng.uniform(1.0, 240.0)));
    }
    check(step);
    if (::testing::Test::HasFatalFailure()) return;
  }
  sched.resume();
  sim.run();
  check(-1);
  EXPECT_EQ(sched.busy_slots(), 0);
  EXPECT_EQ(sched.queued_count(), 0u);
}

TEST_P(VoCounts, MatchARecountAfterEveryStep) {
  const CountCase c = GetParam();
  switch (c.lrms) {
    case Lrms::kCondor:
      drive_and_recount<batch::CondorScheduler>(c);
      break;
    case Lrms::kPbs:
      drive_and_recount<batch::PbsScheduler>(c);
      break;
    case Lrms::kLsf:
      drive_and_recount<batch::LsfScheduler>(c);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, VoCounts,
    ::testing::Values(CountCase{Lrms::kCondor, 51, false},
                      CountCase{Lrms::kCondor, 52, true},
                      CountCase{Lrms::kCondor, 53, false},
                      CountCase{Lrms::kPbs, 54, false},
                      CountCase{Lrms::kPbs, 55, true},
                      CountCase{Lrms::kPbs, 56, false},
                      CountCase{Lrms::kLsf, 57, false},
                      CountCase{Lrms::kLsf, 58, true},
                      CountCase{Lrms::kLsf, 59, false}),
    [](const ::testing::TestParamInfo<CountCase>& info) {
      const char* lrms = info.param.lrms == Lrms::kCondor ? "condor"
                         : info.param.lrms == Lrms::kPbs  ? "pbs"
                                                          : "lsf";
      return std::string{lrms} + "_seed" + std::to_string(info.param.seed) +
             (info.param.closed_shares ? "_closed" : "_open");
    });

// ---------------------------------------------------------------------
// Property: network byte conservation -- completed flows deliver exactly
// the requested bytes regardless of fan-in/fan-out shape.
// ---------------------------------------------------------------------
struct NetCase {
  int sources;
  int flows_per_source;
  double sink_mbps;
  std::uint64_t seed;
};

class NetworkConservation : public ::testing::TestWithParam<NetCase> {};

TEST_P(NetworkConservation, BytesDeliveredMatchRequested) {
  const auto c = GetParam();
  sim::Simulation sim;
  net::Network net{sim};
  const auto sink = net.add_node({"sink", Bandwidth::mbps(c.sink_mbps),
                                  Bandwidth::mbps(c.sink_mbps), true});
  util::Rng rng{c.seed};
  std::int64_t requested = 0;
  std::int64_t delivered = 0;
  int completions = 0;
  for (int s = 0; s < c.sources; ++s) {
    const auto src = net.add_node({"s" + std::to_string(s),
                                   Bandwidth::mbps(100),
                                   Bandwidth::mbps(100), true});
    for (int f = 0; f < c.flows_per_source; ++f) {
      const Bytes size = Bytes::mb(rng.uniform(1.0, 50.0));
      requested += size.count();
      sim.schedule_at(Time::seconds(rng.uniform(0.0, 30.0)), [&, src, size] {
        net.start_flow(src, sink, size, [&](const net::FlowResult& r) {
          if (r.ok()) {
            ++completions;
            delivered += r.transferred.count();
          }
        });
      });
    }
  }
  sim.run();
  EXPECT_EQ(completions, c.sources * c.flows_per_source);
  EXPECT_EQ(delivered, requested);
  EXPECT_EQ(net.active_flows(), 0u);
  // Sink byte counter within rounding of the requested total.
  EXPECT_NEAR(static_cast<double>(net.bytes_received(sink).count()),
              static_cast<double>(requested),
              static_cast<double>(c.sources * c.flows_per_source) * 4.0);
}

INSTANTIATE_TEST_SUITE_P(
    FanInShapes, NetworkConservation,
    ::testing::Values(NetCase{1, 5, 100, 11}, NetCase{4, 5, 100, 12},
                      NetCase{8, 3, 50, 13}, NetCase{16, 2, 622, 14},
                      NetCase{2, 20, 10, 15}));

// ---------------------------------------------------------------------
// Property: the MonALISA repository's 5-minute reads (the finest view of
// the paper's round-robin database) match the exact average of the
// samples published in each slot, for any seed.  The repository keeps
// only each key's latest slot, so each slot is read once its fifth
// sample is in.
// ---------------------------------------------------------------------
class RrdConsistency : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RrdConsistency, ConsolidatedAverageTracksExactSeries) {
  util::Rng rng{GetParam()};
  monitoring::MetricBus bus;
  monitoring::MonalisaRepository repo{bus};
  const std::string metric = monitoring::mlmetric::kIoMbps;
  // Regular 1-minute samples over 6 hours.
  std::vector<double> values;
  for (int i = 0; i < 360; ++i) {
    const double v = rng.uniform(0.0, 100.0);
    values.push_back(v);
    bus.publish("BNL", metric, Time::minutes(i), v);
    if (i % 5 != 4) continue;
    // Each 5-minute slot equals the average of its 5 samples.
    const int slot = i / 5;
    const auto got = repo.read("BNL", metric, Time::minutes(slot * 5 + 2));
    ASSERT_TRUE(got.has_value()) << slot;
    double expect = 0.0;
    for (int k = 0; k < 5; ++k) {
      expect += values[static_cast<std::size_t>(slot * 5 + k)];
    }
    expect /= 5.0;
    EXPECT_NEAR(*got, expect, 1e-9) << slot;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RrdConsistency,
                         ::testing::Values(21u, 22u, 23u, 24u, 25u));

// ---------------------------------------------------------------------
// Property: a step-compressed TimeSeries answers every query as a naive
// list of every sample does -- exactly for point values, peaks and the
// latest sample, and within 1e-12 relative for integrals, where merging
// equal adjacent segments may move an ulp.
// ---------------------------------------------------------------------

/// Every sample, with the same-instant overwrite TimeSeries applies.
class NaiveSeries {
 public:
  void append(Time t, double value) {
    if (!points_.empty() && points_.back().t == t) {
      points_.back().value = value;
    } else {
      points_.push_back({t, value});
    }
  }
  [[nodiscard]] const util::TimePoint& latest() const {
    return points_.back();
  }
  [[nodiscard]] double at(Time t) const {
    double v = 0.0;
    for (const auto& p : points_) {
      if (p.t > t) break;
      v = p.value;
    }
    return v;
  }
  [[nodiscard]] double max_over(Time from, Time to) const {
    double peak = at(from);
    for (const auto& p : points_) {
      if (p.t >= from && p.t <= to) peak = std::max(peak, p.value);
    }
    return peak;
  }
  [[nodiscard]] double integrate(Time from, Time to) const {
    if (to <= from) return 0.0;
    double acc = 0.0;
    Time cursor = from;
    double current = at(from);
    for (const auto& p : points_) {
      if (p.t <= from) continue;
      if (p.t >= to) break;
      acc += current * (p.t - cursor).to_seconds();
      cursor = p.t;
      current = p.value;
    }
    return acc + current * (to - cursor).to_seconds();
  }
  [[nodiscard]] std::size_t size() const { return points_.size(); }

 private:
  std::vector<util::TimePoint> points_;
};

void expect_close(double got, double want) {
  EXPECT_LE(std::abs(got - want), 1e-12 * std::abs(want))
      << got << " vs " << want;
}

class CompressedSeries : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompressedSeries, AnswersLikeEverySample) {
  util::Rng rng{GetParam()};
  util::TimeSeries ts;
  NaiveSeries naive;
  // Values from a small set, usually repeating the last one, with
  // same-instant overwrites mixed in.
  const std::vector<double> levels{0.0, 1.0, 2.5, 7.0, 64.0};
  double value = 0.0;
  Time t = Time::seconds(rng.uniform(0.0, 100.0));
  for (int i = 0; i < 3000; ++i) {
    if (!rng.chance(0.15)) t += Time::seconds(rng.uniform(1.0, 600.0));
    if (rng.chance(0.2)) {
      value = levels[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(levels.size()) - 1))];
    }
    ts.append(t, value);
    naive.append(t, value);
    ASSERT_EQ(ts.latest().t, naive.latest().t);
    ASSERT_EQ(ts.latest().value, naive.latest().value);
  }
  // Compression must actually drop repeats.
  EXPECT_LT(ts.size(), naive.size() / 2);
  // No two adjacent stored points hold the same value.
  for (std::size_t i = 1; i < ts.size(); ++i) {
    EXPECT_NE(ts.points()[i].value, ts.points()[i - 1].value) << i;
  }

  const Time end = t + Time::hours(1);
  for (int q = 0; q < 400; ++q) {
    Time a = Time::seconds(rng.uniform(0.0, end.to_seconds()));
    Time b = Time::seconds(rng.uniform(0.0, end.to_seconds()));
    if (b < a) std::swap(a, b);
    ASSERT_EQ(ts.at(a), naive.at(a));
    ASSERT_EQ(ts.max_over(a, b), naive.max_over(a, b));
    expect_close(ts.integrate(a, b), naive.integrate(a, b));
    if (b > a) {
      expect_close(ts.time_average(a, b),
                   naive.integrate(a, b) / (b - a).to_seconds());
    }
  }
  // Bin edges as binned_average draws them.
  const Time from = Time::zero();
  const std::size_t bins = 24;
  const auto got = ts.binned_average(from, end, bins);
  const std::int64_t width =
      (end - from).ticks() / static_cast<std::int64_t>(bins);
  for (std::size_t i = 0; i < bins; ++i) {
    const Time lo =
        from + Time::micros(width * static_cast<std::int64_t>(i));
    const Time hi = (i + 1 == bins) ? end : lo + Time::micros(width);
    expect_close(got[i], naive.integrate(lo, hi) / (hi - lo).to_seconds());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressedSeries,
                         ::testing::Values(41u, 42u, 43u, 44u, 45u, 46u));

// ---------------------------------------------------------------------
// Property: time-series integration is additive over adjacent windows.
// ---------------------------------------------------------------------
class SeriesAdditivity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeriesAdditivity, IntegralSplitsAcrossWindows) {
  util::Rng rng{GetParam()};
  util::TimeSeries ts;
  Time t;
  for (int i = 0; i < 200; ++i) {
    t += Time::seconds(rng.uniform(1.0, 100.0));
    ts.append(t, rng.uniform(0.0, 50.0));
  }
  const Time lo = Time::seconds(100);
  const Time hi = t;
  const Time mid = Time::seconds((lo.to_seconds() + hi.to_seconds()) / 2);
  const double whole = ts.integrate(lo, hi);
  const double parts = ts.integrate(lo, mid) + ts.integrate(mid, hi);
  EXPECT_NEAR(whole, parts, 1e-6 * std::max(1.0, whole));
  // Average of binned averages weighted equally = window average.
  const auto bins = ts.binned_average(lo, hi, 8);
  const double avg =
      std::accumulate(bins.begin(), bins.end(), 0.0) / 8.0;
  EXPECT_NEAR(avg, ts.time_average(lo, hi), 0.5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeriesAdditivity,
                         ::testing::Values(31u, 32u, 33u, 34u));

}  // namespace
}  // namespace grid3
