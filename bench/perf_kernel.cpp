// Microbenchmarks for the simulator kernel: event queue throughput,
// network fair-share reallocation, scheduler matchmaking, metric bus
// fan-out.  These bound how large a Grid3 scenario the simulator can
// sustain.
//
// `perf_kernel --snapshot PATH` skips google-benchmark and writes a
// small JSON snapshot (events/sec executed, queue schedule/cancel ops
// per second, broker match cycles/sec, timer-storm events/sec,
// flow-churn reallocs/sec; best of N) that scripts/check_bench.py diffs
// against the committed bench/BENCH_kernel.json baseline as a
// regression gate.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "batch/scheduler.h"
#include "broker/broker.h"
#include "broker/rank_policy.h"
#include "core/grid3.h"
#include "core/site.h"
#include "monitoring/bus.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace {

using namespace grid3;

void BM_EventQueueThroughput(benchmark::State& state) {
  const auto events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    util::Rng rng{1};
    for (int i = 0; i < events; ++i) {
      sim.schedule_at(Time::seconds(rng.uniform(0.0, 1000.0)), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventQueueThroughput)->Arg(1000)->Arg(100000);

void BM_NetworkReallocate(benchmark::State& state) {
  const auto flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    net::Network net{sim};
    std::vector<net::NodeId> nodes;
    for (int i = 0; i < 16; ++i) {
      nodes.push_back(net.add_node({Bandwidth::mbps(100),
                                    Bandwidth::mbps(100), true}));
    }
    util::Rng rng{2};
    for (int i = 0; i < flows; ++i) {
      const auto a = nodes[rng.index(nodes.size())];
      auto b = nodes[rng.index(nodes.size())];
      if (b == a) b = nodes[(a + 1) % nodes.size()];
      net.start_flow(a, b, Bytes::mb(rng.uniform(1, 50)),
                     [](const net::FlowResult&) {});
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_NetworkReallocate)->Arg(16)->Arg(128);

void BM_SchedulerChurn(benchmark::State& state) {
  const auto jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    batch::SchedulerConfig cfg;
    cfg.site_name = "bench";
    cfg.slots = 64;
    batch::CondorScheduler sched{sim, cfg};
    util::Rng rng{3};
    for (int i = 0; i < jobs; ++i) {
      batch::JobRequest req;
      req.vo = "vo";
      req.vo.append(std::to_string(i % 6));
      req.actual_runtime = Time::minutes(rng.uniform(5, 120));
      req.requested_walltime = Time::hours(3);
      sched.submit(req, {});
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * jobs);
}
BENCHMARK(BM_SchedulerChurn)->Arg(256)->Arg(4096);

/// A small brokered fabric for the match-cycle workload: `sites`
/// uniform sites behind one GIIS, one queue-depth broker.
struct MatchRig {
  sim::Simulation sim;
  core::Grid3 grid{sim, 7};
  broker::ResourceBroker* broker = nullptr;

  explicit MatchRig(int sites) {
    grid.add_vo("benchvo");
    broker = &grid.attach_broker("benchvo", broker::PolicyKind::kQueueDepth);
    for (int i = 0; i < sites; ++i) {
      core::SiteConfig cfg;
      cfg.name = "S";
      cfg.name.append(std::to_string(i));
      cfg.owner_vo = "benchvo";
      cfg.cpus = 32;
      grid.add_site(cfg, /*reliability=*/1000.0);
    }
    grid.start_operations();
    sim.run_until(Time::minutes(1));  // initial GRIS publications
  }
};

void BM_BrokerMatchCycle(benchmark::State& state) {
  MatchRig rig{static_cast<int>(state.range(0))};
  broker::JobSpec spec;
  spec.vo = "benchvo";
  spec.runtime = Time::hours(1);
  const Time now = rig.sim.now();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.broker->choose(spec, now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BrokerMatchCycle)->Arg(32)->Arg(256);

/// Timer storm: 2000 periodic timers with near-uniform intervals -- the
/// monitoring-sweep shape that dominates scenario event counts.
void BM_TimerStorm(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    util::Rng rng{11};
    std::vector<std::unique_ptr<sim::PeriodicProcess>> procs;
    procs.reserve(2'000);
    for (int i = 0; i < 2'000; ++i) {
      const auto interval = Time::millis(
          static_cast<std::int64_t>(rng.uniform(15'000.0, 500'000.0)));
      procs.push_back(std::make_unique<sim::PeriodicProcess>(
          sim, interval, [] { return true; }));
      procs.back()->start(Time::millis(
          static_cast<std::int64_t>(rng.uniform(0.0, 15'000.0))));
    }
    sim.run_until(Time::seconds(600));
    benchmark::DoNotOptimize(sim.executed());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(sim.executed()));
  }
}
BENCHMARK(BM_TimerStorm);

/// Flow churn: chained transfers inside small disjoint node clusters.
void BM_FlowChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    net::Network net{sim};
    util::Rng rng{12};
    struct Chain {
      net::Network* net;
      util::Rng* rng;
      net::NodeId base;
      int remaining;
      void launch() {
        if (remaining-- <= 0) return;
        const auto a = base + static_cast<net::NodeId>(rng->index(4));
        auto b = base + static_cast<net::NodeId>(rng->index(4));
        if (b == a) b = base + static_cast<net::NodeId>((a - base + 1) % 4);
        net->start_flow(a, b, Bytes::mb(rng->uniform(1.0, 20.0)),
                        [this](const net::FlowResult&) { launch(); });
      }
    };
    std::vector<Chain> chains;
    chains.reserve(16 * 2);
    for (int c = 0; c < 16; ++c) {
      net::NodeId base = 0;
      for (int n = 0; n < 4; ++n) {
        const auto id = net.add_node({Bandwidth::mbps(100),
                                      Bandwidth::mbps(100), true});
        if (n == 0) base = id;
      }
      for (int k = 0; k < 2; ++k) {
        chains.push_back({&net, &rng, base, 10});
        chains.back().launch();
      }
    }
    sim.run();
    benchmark::DoNotOptimize(net.reallocs());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(net.reallocs()));
  }
}
BENCHMARK(BM_FlowChurn);

void BM_MetricBusFanout(benchmark::State& state) {
  const auto subs = static_cast<int>(state.range(0));
  monitoring::MetricBus bus;
  std::size_t hits = 0;
  for (int i = 0; i < subs; ++i) {
    bus.subscribe("*", "monalisa.*",
                  [&hits](monitoring::MetricId, Time, double) {
                    ++hits;
                  });
  }
  std::int64_t t = 0;
  for (auto _ : state) {
    bus.publish("site", "monalisa.load", Time::micros(++t), 1.0);
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricBusFanout)->Arg(1)->Arg(32);

// --- snapshot mode ----------------------------------------------------

/// Wall-clock rate (items/sec) of `work`, best of `rounds` runs.
template <typename Fn>
double best_rate(int rounds, std::int64_t items, Fn work) {
  double best = 0.0;
  for (int r = 0; r < rounds; ++r) {
    const auto start = std::chrono::steady_clock::now();
    work();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    const double rate = static_cast<double>(items) / elapsed.count();
    if (rate > best) best = rate;
  }
  return best;
}

/// Schedule-heavy workload: `events` randomly-timed no-op events pushed
/// and drained -- the hot loop of every scenario run.
double measure_events_per_sec() {
  constexpr int kEvents = 200'000;
  return best_rate(3, kEvents, [] {
    sim::Simulation sim;
    util::Rng rng{1};
    for (int i = 0; i < kEvents; ++i) {
      sim.schedule_at(Time::seconds(rng.uniform(0.0, 1000.0)), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed());
  });
}

/// Queue-op workload: schedule/cancel churn with periodic drains, the
/// pattern timers and retry paths put on the cancel bookkeeping.
double measure_queue_ops_per_sec() {
  constexpr int kRounds = 2'000;
  constexpr int kPerRound = 50;
  // Each round: 50 schedules + 25 cancels + drain.
  constexpr std::int64_t kOps = static_cast<std::int64_t>(kRounds) *
                                (kPerRound + kPerRound / 2);
  return best_rate(3, kOps, [] {
    sim::Simulation sim;
    std::vector<sim::EventId> ids;
    for (int round = 0; round < kRounds; ++round) {
      ids.clear();
      for (int i = 0; i < kPerRound; ++i) {
        ids.push_back(sim.schedule_in(Time::seconds(1), [] {}));
      }
      for (std::size_t i = 0; i < ids.size(); i += 2) sim.cancel(ids[i]);
      sim.run();
    }
    benchmark::DoNotOptimize(sim.cancel_backlog());
  });
}

/// Match-cycle workload: steady-state choose() passes over a 64-site
/// view, each scoring every site fresh -- the broker-side hot loop.
double measure_match_cycles_per_sec() {
  constexpr int kCycles = 20'000;
  MatchRig rig{64};
  broker::JobSpec spec;
  spec.vo = "benchvo";
  spec.runtime = Time::hours(1);
  const Time now = rig.sim.now();
  (void)rig.broker->choose(spec, now);  // warm the view
  return best_rate(3, kCycles, [&] {
    for (int i = 0; i < kCycles; ++i) {
      benchmark::DoNotOptimize(rig.broker->choose(spec, now));
    }
  });
}

/// Timer-storm workload: a million near-uniform periodic timers (the
/// monitoring-sweep event mix) driven through the event queue.
double measure_timer_events_per_sec() {
  // 1M concurrent timers: the heap's sift paths walk ~20 levels of a
  // ~56 MB array, a cache miss per level.  Timers self-reschedule
  // directly through the Simulation API so the measurement is the queue
  // plus the irreducible per-event machinery, nothing else.
  constexpr int kProcs = 1'000'000;
  const Time warmup = Time::seconds(20);    // absorb the start transient
  const Time horizon = Time::seconds(60);   // steady-state window
  struct Timer {
    sim::Simulation* sim;
    Time interval;
    void fire() {
      sim->schedule_in(interval, [this] { fire(); });
    }
  };
  double best = 0.0;
  for (int round = 0; round < 3; ++round) {
    sim::Simulation sim;
    util::Rng rng{11};
    std::vector<Timer> timers(static_cast<std::size_t>(kProcs));
    for (Timer& t : timers) {
      t = {&sim, Time::millis(static_cast<std::int64_t>(
                     rng.uniform(15'000.0, 500'000.0)))};
      Timer* tp = &t;
      sim.schedule_at(
          Time::millis(static_cast<std::int64_t>(rng.uniform(0.0, 15'000.0))),
          [tp] { tp->fire(); });
    }
    sim.run_until(warmup);
    const std::uint64_t warm = sim.executed();
    const auto start = std::chrono::steady_clock::now();
    sim.run_until(horizon);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    const double rate =
        static_cast<double>(sim.executed() - warm) / elapsed.count();
    if (rate > best) best = rate;
  }
  return best;
}

/// Flow-churn workload: chained bulk transfers inside 32 small node
/// clusters, ~100 flows in flight.  Every start and completion re-solves
/// every active link, so reallocs/sec measures the solver at that size.
double measure_flow_reallocs_per_sec() {
  constexpr int kClusters = 32;
  constexpr int kNodesPerCluster = 4;
  constexpr int kChainsPerCluster = 3;
  constexpr int kFlowsPerChain = 20;
  struct Chain {
    net::Network* net;
    util::Rng* rng;
    net::NodeId base;
    int remaining;
    void launch() {
      if (remaining-- <= 0) return;
      const auto a =
          base + static_cast<net::NodeId>(rng->index(kNodesPerCluster));
      auto b = base + static_cast<net::NodeId>(rng->index(kNodesPerCluster));
      if (b == a) {
        b = base + static_cast<net::NodeId>((a - base + 1) % kNodesPerCluster);
      }
      net->start_flow(a, b, Bytes::mb(rng->uniform(1.0, 20.0)),
                      [this](const net::FlowResult&) { launch(); });
    }
  };
  double best = 0.0;
  for (int round = 0; round < 2; ++round) {
    sim::Simulation sim;
    net::Network net{sim};
    util::Rng rng{12};
    std::vector<Chain> chains;
    chains.reserve(kClusters * kChainsPerCluster);
    for (int c = 0; c < kClusters; ++c) {
      net::NodeId base = 0;
      for (int n = 0; n < kNodesPerCluster; ++n) {
        const auto id = net.add_node(
            {Bandwidth::mbps(100), Bandwidth::mbps(100), true});
        if (n == 0) base = id;
      }
      for (int k = 0; k < kChainsPerCluster; ++k) {
        chains.push_back({&net, &rng, base, kFlowsPerChain});
      }
    }
    const auto start = std::chrono::steady_clock::now();
    for (Chain& chain : chains) chain.launch();
    sim.run();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    const double rate =
        static_cast<double>(net.reallocs()) / elapsed.count();
    if (rate > best) best = rate;
  }
  return best;
}

int write_snapshot(const char* path) {
  const double events = measure_events_per_sec();
  const double queue_ops = measure_queue_ops_per_sec();
  const double match_cycles = measure_match_cycles_per_sec();
  const double timer_events = measure_timer_events_per_sec();
  const double reallocs = measure_flow_reallocs_per_sec();
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perf_kernel: cannot write %s\n", path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"schema\": \"grid3-bench-kernel-v3\",\n"
               "  \"events_per_sec\": %.0f,\n"
               "  \"queue_ops_per_sec\": %.0f,\n"
               "  \"match_cycles_per_sec\": %.0f,\n"
               "  \"timer_events_per_sec\": %.0f,\n"
               "  \"flow_reallocs_per_sec\": %.0f\n"
               "}\n",
               events, queue_ops, match_cycles, timer_events, reallocs);
  std::fclose(out);
  std::printf(
      "perf_kernel snapshot: events_per_sec=%.0f queue_ops_per_sec=%.0f "
      "match_cycles_per_sec=%.0f timer_events_per_sec=%.0f "
      "flow_reallocs_per_sec=%.0f -> %s\n",
      events, queue_ops, match_cycles, timer_events, reallocs, path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--snapshot") == 0 && i + 1 < argc) {
      return write_snapshot(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
