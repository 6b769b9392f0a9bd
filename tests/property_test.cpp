// Property-style parameterized suites: invariants that must hold across
// parameter sweeps (scheduler types, network fan-in, RNG seeds).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "batch/scheduler.h"
#include "mds/giis.h"
#include "mds/gris.h"
#include "monitoring/bus.h"
#include "monitoring/monalisa.h"
#include "net/network.h"
#include "rls/rls.h"
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
// Property: the per-VO running and queued-plus-running counts a
// scheduler keeps agree with a recount of its queue and running jobs
// after every operation that moves a job.
// ---------------------------------------------------------------------

/// A policy scheduler that can recount its own tables.
template <class Policy>
class Recounted : public Policy {
 public:
  using Policy::Policy;

  [[nodiscard]] int recount_running(const std::string& vo) {
    const batch::VoIndex v = this->vo_index(vo);
    return this->count_running(
        [&](const auto& job) { return job.vo == v; });
  }

  [[nodiscard]] int recount_outstanding(const std::string& vo) {
    int queued = 0;
    for (const auto& job : this->queue()) {
      if (job.req.vo == vo) ++queued;
    }
    return queued + recount_running(vo);
  }
};

struct CountCase {
  Lrms lrms;
  std::uint64_t seed;
  /// A 2-hour queue limit instead of 10 hours, which closes the queue
  /// to most requests: on PBS and LSF the walltime gate refuses them.
  bool closed;
};

class VoCounts : public ::testing::TestWithParam<CountCase> {};

template <class Policy>
void drive_and_recount(const CountCase& c) {
  sim::Simulation sim;
  batch::SchedulerConfig cfg;
  cfg.site_name = "P";
  cfg.slots = 6;
  cfg.max_walltime = Time::hours(c.closed ? 2 : 10);
  Recounted<Policy> sched{sim, cfg};
  util::Rng rng{c.seed};
  const std::vector<std::string> vos{"atlas", "cms", "local", "sdss"};

  const auto check = [&](int step) {
    int running = 0;
    int outstanding = 0;
    for (const std::string& vo : vos) {
      const batch::VoIndex v = sched.vo_index(vo);
      ASSERT_EQ(sched.running_for_vo(v), sched.recount_running(vo))
          << vo << " at step " << step;
      ASSERT_EQ(sched.outstanding_for_vo(v), sched.recount_outstanding(vo))
          << vo << " at step " << step;
      running += sched.running_for_vo(v);
      outstanding += sched.outstanding_for_vo(v);
    }
    ASSERT_EQ(running, sched.busy_slots()) << step;
    ASSERT_EQ(outstanding, sched.busy_slots() +
                               static_cast<int>(sched.queued_count()))
        << step;
  };

  for (int step = 0; step < 600; ++step) {
    const double op = rng.uniform();
    if (op < 0.55) {
      batch::JobRequest req;
      req.vo = vos[static_cast<std::size_t>(rng.uniform_int(0, 3))];
      // Some run past their request (walltime kills on PBS/LSF), some
      // ask past the queue limit (walltime rejections).
      const double runtime = rng.uniform(0.1, 12.0);
      req.actual_runtime = Time::hours(runtime);
      req.requested_walltime = Time::hours(rng.uniform(0.1, 14.0));
      req.priority = static_cast<int>(rng.uniform_int(-1, 1));
      sched.submit(req, {});
    } else if (op < 0.62) {
      sched.kill_running(rng.uniform(0.0, 0.5), rng);
    } else if (op < 0.72) {
      sched.resize(static_cast<int>(rng.uniform_int(1, 10)), rng);
    } else {
      // Natural completions and walltime kills.
      sim.run_until(sim.now() + Time::minutes(rng.uniform(1.0, 240.0)));
    }
    check(step);
    if (::testing::Test::HasFatalFailure()) return;
  }
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
             (info.param.closed ? "_closed" : "_open");
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
  const auto sink = net.add_node({Bandwidth::mbps(c.sink_mbps),
                                  Bandwidth::mbps(c.sink_mbps), true});
  util::Rng rng{c.seed};
  std::int64_t requested = 0;
  std::int64_t delivered = 0;
  int completions = 0;
  for (int s = 0; s < c.sources; ++s) {
    const auto src = net.add_node({Bandwidth::mbps(100),
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
  const std::string metric = monitoring::mlmetric::kGatekeeperLoad;
  // Regular 1-minute samples over 6 hours.
  std::vector<double> values;
  for (int i = 0; i < 360; ++i) {
    const double v = rng.uniform(0.0, 100.0);
    values.push_back(v);
    bus.publish("BNL", metric, Time::minutes(i), v);
    if (i % 5 != 4) continue;
    // Each 5-minute slot equals the average of its 5 samples.
    const int slot = i / 5;
    const auto got =
        repo.read(bus.find("BNL", metric), Time::minutes(slot * 5 + 2));
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

// ---------------------------------------------------------------------
// Property: a GIIS answers from its flat directory exactly as the
// recursive walk it replaced -- the same names in the same order, with
// the same fetch times, freshness and attribute values, from find,
// lookup and sites() at every tier -- after every step of a random
// sequence of registrations, outages, publishes and clock advances.
// The walk is kept here as the reference.
// ---------------------------------------------------------------------

/// The reference GRIS: every attribute, slot keys included, in one map
/// held by value, changed by the same publishes as the real GRIS it
/// shadows (which answers for its name and availability).
struct WalkGris {
  const mds::Gris* real;
  mds::AttributeMap attrs;
};

/// A snapshot as the walk served it: the attribute map held by value.
struct WalkSnapshot {
  std::string site;
  Time fetched;
  bool fresh = false;
  mds::AttributeMap attrs;
};

/// The recursive GIIS: sites() collects, sorts and de-duplicates every
/// name below; lookup() asks the first GRIS registered here under the
/// name, else each child in turn; the cache lives where the GRIS
/// registered.
class WalkGiis {
 public:
  explicit WalkGiis(Time ttl) : ttl_{ttl} {}

  void register_gris(const WalkGris* g) { direct_.push_back(g); }
  void register_child(const WalkGiis* c) { children_.push_back(c); }
  void set_available(bool up) { up_ = up; }

  [[nodiscard]] std::vector<std::string> sites() const {
    std::vector<std::string> out;
    for (const WalkGris* g : direct_) out.push_back(g->real->site());
    for (const WalkGiis* c : children_) {
      for (auto& s : c->sites()) out.push_back(std::move(s));
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  [[nodiscard]] std::optional<WalkSnapshot> lookup(const std::string& site,
                                                   Time now) const {
    if (!up_) return std::nullopt;
    for (const WalkGris* g : direct_) {
      if (g->real->site() == site) return fetch(*g, now);
    }
    for (const WalkGiis* c : children_) {
      if (auto snap = c->lookup(site, now)) return snap;
    }
    return std::nullopt;
  }

  [[nodiscard]] std::vector<WalkSnapshot> find(
      const std::function<bool(const WalkSnapshot&)>& pred, Time now) const {
    std::vector<WalkSnapshot> out;
    if (!up_) return out;
    for (const std::string& site : sites()) {
      auto snap = lookup(site, now);
      if (snap && pred(*snap)) out.push_back(std::move(*snap));
    }
    return out;
  }

 private:
  [[nodiscard]] std::optional<WalkSnapshot> fetch(const WalkGris& gris,
                                                  Time now) const {
    auto cached = cache_.find(gris.real->site());
    const bool have_cache = cached != cache_.end();
    if (have_cache && now - cached->second.fetched < ttl_) {
      return cached->second;
    }
    if (gris.real->available()) {
      WalkSnapshot snap{gris.real->site(), now, true, gris.attrs};
      cache_[snap.site] = snap;
      return snap;
    }
    if (have_cache && now - cached->second.fetched < ttl_ + ttl_) {
      WalkSnapshot stale = cached->second;
      stale.fresh = false;
      return stale;
    }
    return std::nullopt;
  }

  Time ttl_;
  bool up_ = true;
  std::vector<const WalkGris*> direct_;
  std::vector<const WalkGiis*> children_;
  mutable std::map<std::string, WalkSnapshot> cache_;
};

void expect_same_snapshot(const mds::SiteSnapshot& got,
                          const WalkSnapshot& want, const std::string& at) {
  EXPECT_EQ(got.site, want.site) << at;
  EXPECT_EQ(got.fetched.ticks(), want.fetched.ticks()) << at;
  EXPECT_EQ(got.fresh, want.fresh) << at;
  ASSERT_NE(got.attrs, nullptr) << at;
  // Both stores merged by key: the shared map holds no slot key.
  mds::AttributeMap all;
  for (const auto& [key, attr] : *got.attrs) {
    EXPECT_FALSE(mds::dynamic_attr(key).has_value()) << at << " " << key;
    all.emplace(key, attr);
  }
  for (std::size_t i = 0; i < mds::kDynamicAttrCount; ++i) {
    const auto slot = static_cast<mds::DynamicAttr>(i);
    if (const mds::Attribute* attr = got.dynamic.find(slot)) {
      all.emplace(std::string{mds::key_of(slot)}, *attr);
    }
  }
  ASSERT_EQ(all.size(), want.attrs.size()) << at;
  auto w = want.attrs.begin();
  for (const auto& [key, attr] : all) {
    EXPECT_EQ(key, w->first) << at;
    EXPECT_TRUE(attr.value == w->second.value) << at << " " << key;
    EXPECT_EQ(attr.updated.ticks(), w->second.updated.ticks())
        << at << " " << key;
    // Every getter reads what the merged view holds.
    const mds::Attribute* by_key = got.find(key);
    ASSERT_NE(by_key, nullptr) << at << " " << key;
    EXPECT_TRUE(by_key->value == w->second.value) << at << " " << key;
    ++w;
  }
}

void expect_same_snapshots(const std::vector<mds::SiteSnapshot>& got,
                           const std::vector<WalkSnapshot>& want,
                           const std::string& at) {
  ASSERT_EQ(got.size(), want.size()) << at;
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_same_snapshot(got[i], want[i], at + " #" + std::to_string(i));
  }
}

struct GiisCase {
  std::uint64_t seed;
  int levels;  ///< 2: top + VO indices; 3: plus indices below the VOs
};

class GiisDirectory : public ::testing::TestWithParam<GiisCase> {};

TEST_P(GiisDirectory, MatchesTheRecursiveWalkAfterEveryStep) {
  const GiisCase c = GetParam();
  util::Rng rng{c.seed};
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };

  // Index 0 is the top; 1-3 hang below it; with three levels, 4-5 hang
  // below a random one of 1-3.  Per-index TTLs differ, so each cache
  // ages by its own owner's TTL.
  const int count = c.levels == 2 ? 4 : 6;
  std::vector<std::unique_ptr<mds::Giis>> real;
  std::vector<std::unique_ptr<WalkGiis>> walk;
  std::vector<int> parent_of(static_cast<std::size_t>(count), -1);
  std::vector<bool> linked(static_cast<std::size_t>(count), false);
  for (int i = 0; i < count; ++i) {
    const Time ttl = Time::minutes(i % 2 == 0 ? 10 : 5);
    real.push_back(
        std::make_unique<mds::Giis>("giis" + std::to_string(i), ttl));
    walk.push_back(std::make_unique<WalkGiis>(ttl));
    if (i > 3) {
      parent_of[static_cast<std::size_t>(i)] = static_cast<int>(1 + pick(3));
    } else if (i > 0) {
      parent_of[static_cast<std::size_t>(i)] = 0;
    }
  }
  const auto link = [&](std::size_t i) {
    if (i == 0 || linked[i]) return;
    const auto p = static_cast<std::size_t>(parent_of[i]);
    real[p]->register_child(real[i].get());
    walk[p]->register_child(walk[i].get());
    linked[i] = true;
  };
  // Some indices join their parent before any GRIS registers, the rest
  // at a random later step (after GRISes registered with them).
  for (std::size_t i = 1; i < linked.size(); ++i) {
    if (rng.uniform() < 0.5) link(i);
  }

  // Seven GRISes over five names: two names are published twice.  Each
  // real GRIS has a shadow; every publish goes to both.
  const std::vector<std::string> names{"ALPHA", "BETA", "DELTA", "EPSILON",
                                       "GAMMA"};
  std::vector<std::unique_ptr<mds::Gris>> gris;
  std::vector<std::unique_ptr<WalkGris>> shadow;
  Time now;
  const auto publish = [&](std::size_t g, std::string_view key,
                           const mds::AttrValue& value) {
    gris[g]->publish(key, value, now);
    shadow[g]->attrs[std::string{key}] = {value, now};
  };
  // The sweep's path: a slot by index.
  const auto publish_slot = [&](std::size_t g, mds::DynamicAttr slot,
                                std::string_view key,
                                const mds::AttrValue& value) {
    gris[g]->publish(slot, value, now);
    shadow[g]->attrs[std::string{key}] = {value, now};
  };
  for (std::size_t i = 0; i < 7; ++i) {
    gris.push_back(std::make_unique<mds::Gris>(names[i % names.size()]));
    shadow.push_back(
        std::make_unique<WalkGris>(WalkGris{gris.back().get(), {}}));
    publish(i, "n", std::int64_t{0});
    publish(i, "tag", std::string{"g" + std::to_string(i)});
    if (i % 2 == 0) {
      publish(i, mds::glue::kTotalCpus, std::int64_t{64});
    }
  }

  const auto even_n = [](std::optional<std::int64_t> n) {
    return n.has_value() && *n % 2 == 0;
  };
  const auto walk_int = [](const WalkSnapshot& s, std::string_view key) {
    auto it = s.attrs.find(key);
    if (it == s.attrs.end()) return std::optional<std::int64_t>{};
    const auto* v = std::get_if<std::int64_t>(&it->second.value);
    return v == nullptr ? std::optional<std::int64_t>{} : *v;
  };
  const auto check = [&](int step) {
    for (std::size_t i = 0; i < real.size(); ++i) {
      const std::string at =
          "giis" + std::to_string(i) + " at step " + std::to_string(step);
      ASSERT_EQ(real[i]->sites(), walk[i]->sites()) << at;
      expect_same_snapshots(
          real[i]->find([](const mds::SiteSnapshot&) { return true; }, now),
          walk[i]->find([](const WalkSnapshot&) { return true; }, now),
          at + " find(all)");
      expect_same_snapshots(
          real[i]->find(
              [&](const mds::SiteSnapshot& s) {
                return even_n(s.get_int("n"));
              },
              now),
          walk[i]->find(
              [&](const WalkSnapshot& s) { return even_n(walk_int(s, "n")); },
              now),
          at + " find(even n)");
      expect_same_snapshots(
          real[i]->find(
              [&](const mds::SiteSnapshot& s) {
                return even_n(s.get_int(mds::DynamicAttr::kFreeCpus));
              },
              now),
          walk[i]->find(
              [&](const WalkSnapshot& s) {
                return even_n(walk_int(s, mds::glue::kFreeCpus));
              },
              now),
          at + " find(even free CPUs)");
      for (const std::string& name : {names[0], names[1], names[2], names[3],
                                      names[4], std::string{"UNKNOWN"}}) {
        const auto got = real[i]->lookup(name, now);
        const auto want = walk[i]->lookup(name, now);
        ASSERT_EQ(got.has_value(), want.has_value()) << at << " " << name;
        if (got) expect_same_snapshot(*got, *want, at + " lookup " + name);
      }
    }
  };

  for (int step = 0; step < 500; ++step) {
    const double op = rng.uniform();
    if (op < 0.30) {
      const std::size_t i = pick(real.size());
      const std::size_t g = pick(gris.size());
      real[i]->register_gris(gris[g].get());
      walk[i]->register_gris(shadow[g].get());
    } else if (op < 0.36) {
      link(pick(real.size()));
    } else if (op < 0.48) {
      mds::Gris& g = *gris[pick(gris.size())];
      g.set_available(!g.available());
    } else if (op < 0.56) {
      const std::size_t i = pick(real.size());
      const bool up = !real[i]->available();
      real[i]->set_available(up);
      walk[i]->set_available(up);
    } else if (op < 0.72) {
      // Publishes land in the GRIS, and show only once a cache refetches.
      const std::size_t g = pick(gris.size());
      publish(g, "n", std::int64_t{step});
      if (rng.uniform() < 0.7) {
        publish(g, "tag", std::string{"s" + std::to_string(step)});
      }
      // A slot key: by name or by index, once in a while holding a
      // string.
      static const std::pair<mds::DynamicAttr, std::string_view> kSlots[] = {
          {mds::DynamicAttr::kFreeCpus, mds::glue::kFreeCpus},
          {mds::DynamicAttr::kSeAvailableGb, mds::glue::kSeAvailableGb},
          {mds::DynamicAttr::kWaitingJobs, mds::glue::kWaitingJobs},
      };
      const auto& [slot, key] = kSlots[pick(std::size(kSlots))];
      mds::AttrValue value = std::int64_t{step % 5};
      if (slot == mds::DynamicAttr::kSeAvailableGb) {
        value = 0.5 * step;
      } else if (rng.uniform() < 0.1) {
        value = std::string{"n/a"};
      }
      if (rng.uniform() < 0.45) {
        publish(g, key, value);
      } else {
        publish_slot(g, slot, key, value);
      }
    } else {
      // Cross the 5- and 10-minute TTLs and their grace periods, landing
      // on the boundaries exactly now and then.
      static const int kMinutes[] = {0, 1, 3, 5, 5, 10, 10, 15, 20, 25};
      now += Time::minutes(kMinutes[pick(std::size(kMinutes))]);
    }
    check(step);
    if (::testing::Test::HasFatalFailure() || HasNonfatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomTrees, GiisDirectory,
    ::testing::Values(GiisCase{61, 2}, GiisCase{62, 2}, GiisCase{63, 2},
                      GiisCase{64, 3}, GiisCase{65, 3}, GiisCase{66, 3}),
    [](const ::testing::TestParamInfo<GiisCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_levels" +
             std::to_string(info.param.levels);
    });

// ---------------------------------------------------------------------
// Property: an RLI fed incremental registrations and version-checked
// digests answers exactly as the whole-index rewrite it replaced, after
// every step of a random sequence of registrations (journal on and
// off), catalog adds outside the service, outages, replays, refreshes,
// direct digests and TTL crossings.  The rewrite is kept here as the
// reference, fed the digests the service sends (the journal's audit tap
// shows each apply and replay).
// ---------------------------------------------------------------------

/// The full-rewrite RLI: each digest wipes its site from every LFN,
/// then re-adds the site under each LFN its catalog holds.
class RewriteIndex {
 public:
  void update_from(const rls::LocalReplicaCatalog& lrc, Time now) {
    if (!up_) return;
    for (auto it = index_.begin(); it != index_.end();) {
      it->second.erase(lrc.site());
      it = it->second.empty() ? index_.erase(it) : std::next(it);
    }
    for (const auto& [lfn, replicas] : lrc.mappings()) {
      index_[lfn][lrc.site()] = now;
    }
  }
  [[nodiscard]] std::vector<std::string> sites_with(const std::string& lfn,
                                                    Time now) const {
    std::vector<std::string> out;
    if (!up_) return out;
    auto it = index_.find(lfn);
    if (it == index_.end()) return out;
    for (const auto& [site, refreshed] : it->second) {
      if (now - refreshed <= ttl_) out.push_back(site);
    }
    return out;
  }
  [[nodiscard]] bool knows(const std::string& lfn, const std::string& site,
                           Time now) const {
    if (!up_) return false;
    auto it = index_.find(lfn);
    if (it == index_.end()) return false;
    auto jt = it->second.find(site);
    return jt != it->second.end() && now - jt->second <= ttl_;
  }
  [[nodiscard]] std::size_t indexed_lfns() const { return index_.size(); }
  void set_available(bool up) { up_ = up; }
  [[nodiscard]] bool available() const { return up_; }

 private:
  bool up_ = true;
  Time ttl_ = Time::minutes(30);
  std::map<std::string, std::map<std::string, Time>> index_;
};

class RliDeltas : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RliDeltas, MatchTheWholeIndexRewriteAfterEveryStep) {
  util::Rng rng{GetParam()};
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const std::vector<std::string> sites{"BNL", "FNAL", "UC", "UFL"};
  std::vector<std::string> lfns;
  for (int i = 0; i < 10; ++i) lfns.push_back("lfn" + std::to_string(i));

  rls::ReplicaLocationService svc{"vo"};
  RewriteIndex ref;
  Time now;
  svc.journal().set_audit([&](const rls::JournalEntry& e, const char* event) {
    if (std::string_view{event} != "log") {
      ref.update_from(*svc.find_lrc(e.site), now);
    }
  });
  const auto replica = [&](const std::string& site, const std::string& lfn) {
    return rls::Replica{"gsiftp://" + site + "/" + lfn + "/" +
                            std::to_string(pick(2)),
                        Bytes::mb(static_cast<double>(1 + pick(100))), now};
  };

  // The service's locate and has_replica_at over the reference index.
  const auto ref_locate = [&](const std::string& lfn) {
    std::vector<std::pair<std::string, rls::Replica>> out;
    const auto add = [&](const std::string& site) {
      if (const auto* lrc = svc.find_lrc(site)) {
        for (const rls::Replica& r : lrc->lookup(lfn)) {
          out.emplace_back(site, r);
        }
      }
    };
    if (!ref.available()) {
      for (const std::string& site : sites) add(site);
    } else {
      for (const std::string& site : ref.sites_with(lfn, now)) add(site);
    }
    return out;
  };
  const auto ref_has = [&](const std::string& lfn, const std::string& site) {
    if (ref.available() && !ref.knows(lfn, site, now)) return false;
    const auto* lrc = svc.find_lrc(site);
    return lrc != nullptr && lrc->has(lfn);
  };

  const auto check = [&](int step) {
    const std::string at = "step " + std::to_string(step);
    ASSERT_EQ(svc.rli().indexed_lfns(), ref.indexed_lfns()) << at;
    for (const std::string& lfn : lfns) {
      ASSERT_EQ(svc.rli().sites_with(lfn, now), ref.sites_with(lfn, now))
          << at << " " << lfn;
      const auto got = svc.locate(lfn, now);
      const auto want = ref_locate(lfn);
      ASSERT_EQ(got.size(), want.size()) << at << " " << lfn;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].first, want[i].first) << at << " " << lfn;
        EXPECT_EQ(got[i].second.pfn, want[i].second.pfn) << at << " " << lfn;
        EXPECT_EQ(got[i].second.size.count(), want[i].second.size.count())
            << at << " " << lfn;
        EXPECT_EQ(got[i].second.registered.ticks(),
                  want[i].second.registered.ticks())
            << at << " " << lfn;
      }
      for (const std::string& site : sites) {
        ASSERT_EQ(svc.rli().knows(lfn, site, now), ref.knows(lfn, site, now))
            << at << " " << lfn << "@" << site;
        ASSERT_EQ(svc.has_replica_at(lfn, site, now), ref_has(lfn, site))
            << at << " " << lfn << "@" << site;
      }
    }
  };

  for (int step = 0; step < 800; ++step) {
    const std::string& site = sites[pick(sites.size())];
    const std::string& lfn = lfns[pick(lfns.size())];
    const double op = rng.uniform();
    if (op < 0.30) {
      // With the journal on, the audit tap mirrors the digest; without
      // it the registration digests only when the write goes through.
      const bool direct = !svc.journal_enabled() && svc.available() &&
                          svc.lrc_for(site).available();
      svc.register_replica(site, lfn, replica(site, lfn), now);
      if (direct) ref.update_from(*svc.find_lrc(site), now);
    } else if (op < 0.35) {
      svc.set_journal_enabled(!svc.journal_enabled());
    } else if (op < 0.53) {
      // A catalog change the index never hears of: the next delta finds
      // a version gap and digests the site in full.
      svc.lrc_for(site).add(lfn, replica(site, lfn));
    } else if (op < 0.59) {
      const bool up = !svc.rli().available();
      svc.rli().set_available(up);
      ref.set_available(up);
    } else if (op < 0.64) {
      svc.set_available(!svc.available());
    } else if (op < 0.71) {
      rls::LocalReplicaCatalog& lrc = svc.lrc_for(site);
      lrc.set_available(!lrc.available());
    } else if (op < 0.75) {
      svc.replay(now);
    } else if (op < 0.81) {
      svc.refresh_all(now);
      for (const std::string& s : sites) {
        const auto* lrc = svc.find_lrc(s);
        if (lrc != nullptr && lrc->available()) ref.update_from(*lrc, now);
      }
    } else if (op < 0.87) {
      // A direct digest, down catalogs included.
      const rls::LocalReplicaCatalog& lrc = svc.lrc_for(site);
      svc.rli().update_from(lrc, now);
      ref.update_from(lrc, now);
    } else {
      // Cross the 30-minute TTL, landing on it exactly now and then.
      static const int kMinutes[] = {0, 1, 5, 10, 15, 20, 30, 30, 31, 45};
      now += Time::minutes(kMinutes[pick(std::size(kMinutes))]);
    }
    check(step);
    if (::testing::Test::HasFatalFailure() || HasNonfatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RliDeltas,
                         ::testing::Values(71u, 72u, 73u, 74u, 75u, 76u));

}  // namespace
}  // namespace grid3
