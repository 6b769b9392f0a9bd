// Property-style parameterized suites: invariants that must hold across
// parameter sweeps (scheduler types, network fan-in, RNG seeds).
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>

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
// samples published in each slot, for any seed.
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
  }
  // Each 5-minute slot equals the average of its 5 samples.
  for (int slot = 0; slot < 72; ++slot) {
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
