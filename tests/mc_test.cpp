// Unit tests for the exhaustive-interleaving checker: the independence
// relation, sleep-set pruning, Foata-class determinism checking,
// invariant plumbing -- and the acceptance case, the seeded
// stale-hold-release bug the explorer finds but a single-ordering run
// of the very same scenario cannot.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mc/explorer.h"
#include "mc/scenarios.h"
#include "sim/simulation.h"

namespace grid3::mc {
namespace {

TEST(Independence, ActorIsFirstTagComponent) {
  EXPECT_EQ(Explorer::actor_of("job:J|rb"), "job:J");
  EXPECT_EQ(Explorer::actor_of("ops"), "ops");
  EXPECT_EQ(Explorer::actor_of(""), "");
}

TEST(Independence, SharedComponentOrUntaggedConflicts) {
  EXPECT_TRUE(Explorer::dependent("a|x", "b|x"));   // shared resource
  EXPECT_TRUE(Explorer::dependent("a", "a|x"));     // shared actor
  EXPECT_FALSE(Explorer::dependent("a|x", "b|y"));  // disjoint
  EXPECT_TRUE(Explorer::dependent("", "b|y"));      // untagged hits all
  EXPECT_TRUE(Explorer::dependent("", ""));
}

/// Minimal transition system for explorer unit tests: the setup lambda
/// schedules tagged events against the bare kernel; `state` is what they
/// mutate; the digest renders it.
class ToyRun final : public ExploredRun {
 public:
  using Setup = std::function<void(ToyRun&)>;
  explicit ToyRun(const Setup& setup) { setup(*this); }

  sim::Simulation& sim() override { return sim_; }
  std::vector<Invariant*> invariants() override {
    std::vector<Invariant*> out;
    for (auto& inv : invariants_) out.push_back(inv.get());
    return out;
  }
  std::string digest() override {
    std::string out;
    for (const auto& [k, v] : counters) {
      out += k + "=" + std::to_string(v) + ";";
    }
    out += "log:";
    for (const auto& e : log) out += e + ",";
    return out;
  }

  sim::Simulation sim_;
  std::map<std::string, int> counters;  ///< per-actor state (commutes)
  std::vector<std::string> log;         ///< shared state (does not)
  std::vector<std::unique_ptr<Invariant>> invariants_;
};

ScenarioFactory toy(ToyRun::Setup setup) {
  return [setup = std::move(setup)] {
    return std::make_unique<ToyRun>(setup);
  };
}

TEST(Explorer, SingleActorNeverBranches) {
  Explorer ex{toy([](ToyRun& r) {
    for (int i = 0; i < 3; ++i) {
      sim::Simulation::ScopedTag tag{r.sim_, "a"};
      r.sim_.schedule_at(Time::seconds(1), [&r] { ++r.counters["a"]; });
    }
  })};
  EXPECT_TRUE(ex.explore().empty());
  EXPECT_EQ(ex.stats().runs, 1u);
  EXPECT_EQ(ex.stats().decision_points, 0u);
  EXPECT_EQ(ex.stats().terminals, 1u);
  EXPECT_EQ(ex.stats().transitions, 3u);
}

TEST(Explorer, SleepSetsCollapseIndependentPermutations) {
  // Three independent actors at one instant: 3! = 6 interleavings, one
  // Mazurkiewicz trace.  Sleep sets must explore far fewer than 6 full
  // paths and the Foata check must see exactly one class.
  const auto setup = [](ToyRun& r) {
    for (const char* a : {"a", "b", "c"}) {
      sim::Simulation::ScopedTag tag{r.sim_, a};
      r.sim_.schedule_at(Time::seconds(1), [&r, a] { ++r.counters[a]; });
    }
  };
  Explorer pruned{toy(setup)};
  EXPECT_TRUE(pruned.explore().empty());
  EXPECT_EQ(pruned.stats().terminals, 1u);  // one trace survives
  EXPECT_GT(pruned.stats().sleep_pruned, 0u);
  EXPECT_EQ(pruned.stats().foata_classes, 1u);

  McConfig all;
  all.use_sleep_sets = false;
  Explorer full{toy(setup), all};
  EXPECT_TRUE(full.explore().empty());
  EXPECT_EQ(full.stats().terminals, 6u);  // every linearization
  EXPECT_EQ(full.stats().sleep_pruned, 0u);
  EXPECT_EQ(full.stats().foata_classes, 1u);  // all digests agree
  EXPECT_LT(pruned.stats().runs, full.stats().runs);
}

TEST(Explorer, DependentActorsExploreBothOrders) {
  // Shared resource key: both orders are distinct traces and both must
  // be executed (different final logs, different Foata classes).
  const auto setup = [](ToyRun& r) {
    for (const char* a : {"a", "b"}) {
      sim::Simulation::ScopedTag tag{r.sim_, std::string{a} + "|shared"};
      r.sim_.schedule_at(Time::seconds(1), [&r, a] { r.log.push_back(a); });
    }
  };
  Explorer ex{toy(setup)};
  EXPECT_TRUE(ex.explore().empty());
  EXPECT_EQ(ex.stats().terminals, 2u);
  EXPECT_EQ(ex.stats().sleep_pruned, 0u);
  EXPECT_EQ(ex.stats().foata_classes, 2u);
}

TEST(Explorer, FoataCheckCatchesOverDeclaredIndependence) {
  // Two events with disjoint tags -- declared independent -- that do NOT
  // commute (both append to the shared log).  With sleep sets off every
  // interleaving runs, the two orders land in the same Foata class with
  // different digests, and the determinism invariant must fire.
  McConfig cfg;
  cfg.use_sleep_sets = false;
  Explorer ex{toy([](ToyRun& r) {
                for (const char* a : {"a", "b"}) {
                  sim::Simulation::ScopedTag tag{r.sim_, a};
                  r.sim_.schedule_at(Time::seconds(1),
                                     [&r, a] { r.log.push_back(a); });
                }
              }),
              cfg};
  const auto& violations = ex.explore();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].invariant, "determinism");
}

/// Trips when the shared log's length crosses a threshold.
class LogLimitInvariant final : public Invariant {
 public:
  LogLimitInvariant(const ToyRun& run, std::size_t limit)
      : run_{run}, limit_{limit} {}
  const char* name() const override { return "log-limit"; }
  std::optional<std::string> check(bool) override {
    if (run_.log.size() > limit_) return "log grew past " +
                                         std::to_string(limit_);
    return std::nullopt;
  }

 private:
  const ToyRun& run_;
  std::size_t limit_;
};

TEST(Explorer, InvariantViolationAbortsPathAndRecordsTrace) {
  const auto setup = [](ToyRun& r) {
    for (const char* a : {"a", "b"}) {
      sim::Simulation::ScopedTag tag{r.sim_, std::string{a} + "|shared"};
      r.sim_.schedule_at(Time::seconds(1), [&r, a] { r.log.push_back(a); });
    }
    r.invariants_.push_back(
        std::make_unique<LogLimitInvariant>(r, 1));
  };
  Explorer ex{toy(setup)};
  const auto& violations = ex.explore();
  // Both orders violate once the second event lands, but identical
  // (invariant, detail) pairs dedup to one report.
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].invariant, "log-limit");
  EXPECT_EQ(violations[0].trace.size(), 1u);  // one decision point
  EXPECT_FALSE(violations[0].rendered_trace.empty());
  // No path reached quiescence cleanly.
  EXPECT_EQ(ex.stats().terminals, 0u);
}

TEST(Explorer, HorizonBoundsOpenEndedScenarios) {
  McConfig cfg;
  cfg.horizon = Time::seconds(5);
  Explorer ex{toy([](ToyRun& r) {
                sim::Simulation::ScopedTag tag{r.sim_, "t"};
                r.sim_.schedule_at(Time::seconds(1), [&r] {
                  ++r.counters["t"];
                  // A long tail past the horizon: one second apart.
                  for (int i = 1; i <= 10; ++i) {
                    r.sim_.schedule_in(Time::seconds(i),
                                       [&r] { ++r.counters["t"]; });
                  }
                });
              }),
              cfg};
  EXPECT_TRUE(ex.explore().empty());
  EXPECT_EQ(ex.stats().terminals, 1u);
  // Events at t=1..5 ran (root + 4 follow-ups); t=6.. were cut off.
  EXPECT_EQ(ex.stats().transitions, 5u);
}

TEST(Explorer, TransitionBudgetMarksIncomplete) {
  McConfig cfg;
  cfg.max_transitions = 4;
  Explorer ex{toy([](ToyRun& r) {
                for (const char* a : {"a", "b", "c"}) {
                  sim::Simulation::ScopedTag tag{r.sim_, a};
                  r.sim_.schedule_at(Time::seconds(1),
                                     [&r, a] { ++r.counters[a]; });
                }
              }),
              cfg};
  ex.explore();
  EXPECT_TRUE(ex.stats().budget_exhausted);
  EXPECT_FALSE(ex.stats().complete());
  EXPECT_LE(ex.stats().transitions, 4u);
}

TEST(Explorer, RepeatedExplorationIsDeterministic) {
  const auto setup = [](ToyRun& r) {
    for (const char* a : {"a|x", "b|x", "c", "d"}) {
      sim::Simulation::ScopedTag tag{r.sim_, a};
      r.sim_.schedule_at(Time::seconds(1), [&r, a] { ++r.counters[a]; });
    }
  };
  Explorer first{toy(setup)};
  Explorer second{toy(setup)};
  EXPECT_TRUE(first.explore().empty());
  EXPECT_TRUE(second.explore().empty());
  EXPECT_EQ(first.stats().runs, second.stats().runs);
  EXPECT_EQ(first.stats().transitions, second.stats().transitions);
  EXPECT_EQ(first.stats().terminals, second.stats().terminals);
  EXPECT_EQ(first.stats().sleep_pruned, second.stats().sleep_pruned);
  EXPECT_EQ(first.stats().foata_classes, second.stats().foata_classes);
}

// --- the real reduced scenarios --------------------------------------

TEST(ReducedScenarios, AllInvariantsHoldOnEveryInterleaving) {
  for (auto& s : reduced_scenarios()) {
    SCOPED_TRACE(s.name);
    Explorer ex{s.factory, s.config};
    EXPECT_TRUE(ex.explore().empty());
    EXPECT_TRUE(ex.stats().complete());
    EXPECT_GT(ex.stats().terminals, 0u);
  }
}

TEST(ReducedScenarios, BreakerScenarioPrunesAndCommutes) {
  auto scenarios = reduced_scenarios();
  const auto& breaker = scenarios.front();
  ASSERT_EQ(breaker.name, "breaker");

  Explorer pruned{breaker.factory, breaker.config};
  EXPECT_TRUE(pruned.explore().empty());
  EXPECT_GT(pruned.stats().sleep_pruned, 0u);

  McConfig full_cfg = breaker.config;
  full_cfg.use_sleep_sets = false;
  Explorer full{breaker.factory, full_cfg};
  EXPECT_TRUE(full.explore().empty());
  // Same commutation classes either way; far fewer runs with pruning.
  EXPECT_EQ(pruned.stats().foata_classes, full.stats().foata_classes);
  EXPECT_LT(pruned.stats().runs, full.stats().runs);
}

TEST(SeededBug, ExplorerFindsWhatTheCanonicalOrderingCannot) {
  NamedScenario s = seeded_lease_bug_scenario();

  // The single-ordering run -- what every plain test in this repo
  // executes -- is clean: the stale release only happens when the kick
  // overtakes the retry, and the canonical order fires the retry first.
  Explorer canonical{s.factory, s.config};
  EXPECT_TRUE(canonical.check_canonical().empty());

  // The explorer permutes the two and finds the double release, within
  // a tiny state budget.
  McConfig bounded = s.config;
  bounded.max_transitions = 10'000;
  Explorer ex{s.factory, bounded};
  const auto& violations = ex.explore();
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].invariant, "lease-audit");
  EXPECT_NE(violations[0].detail.find("stale"), std::string::npos);
  EXPECT_FALSE(violations[0].rendered_trace.empty());
  EXPECT_TRUE(ex.stats().complete());

  // And the clean twin of the same scenario has no violation: the bug
  // is in the seeded hook, not the checker.
  auto clean = reduced_scenarios();
  ASSERT_EQ(clean[1].name, "placement");
  Explorer control{clean[1].factory, clean[1].config};
  EXPECT_TRUE(control.explore().empty());
}

}  // namespace
}  // namespace grid3::mc
