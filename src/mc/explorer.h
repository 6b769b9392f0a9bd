// Exhaustive-interleaving checker: a DFS state-space explorer over the
// simulation kernel's event queue.
//
// Grid2003's hard-won lessons are protocol edge cases -- leases leaked
// on rescue paths, black-holed sites re-admitted wrongly, stage-out
// racing failure handling (sections 6, 7).  The test suite spot-checks
// them on ONE event ordering: the kernel fires same-timestamp events in
// scheduling order.  In the real grid those events are unordered -- a
// hold-retry timer and a completion kick landing in the same second can
// fire either way round -- so the checker treats the simulator as a
// transition system and explores every ordering of *commutative
// same-timestamp events*, checking a set of protocol invariants after
// each transition (the role DFSExplorer/UnfoldingChecker play in
// SimGrid's mc/ layer).
//
// Mechanics: replay-from-seed.  A scenario is a factory that builds a
// fresh, deterministic simulation; the explorer steps it with
// Simulation::enumerate_ready()/step_event(), and at each decision point
// (two or more distinct actors ready at the front timestamp) picks one
// head per actor to fire.  Backtracking re-runs the factory and replays
// the recorded choice prefix -- no state snapshots.  Sleep-set pruning
// (Godefroid) skips orderings that only commute independent events, and
// a Foata-class digest check verifies the declared independence: two
// explored interleavings in the same commutation class must reach
// byte-identical end states.
//
// The independence relation comes from event tags ("actor|res1|res2",
// see sim::Simulation): two events conflict when they share any tag
// component or either is untagged; heads of the SAME actor are never
// permuted (program order).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sim/simulation.h"
#include "util/units.h"

namespace grid3::mc {

/// One protocol invariant, checked after every explored transition and
/// once more at quiescence (queue drained or horizon reached).  A
/// ExploredRun owns its invariants; they hold references into the run's
/// live services.
class Invariant {
 public:
  virtual ~Invariant() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  /// Return a violation message, or nullopt when the invariant holds.
  /// `quiescent` is true for the final end-of-run check.
  virtual std::optional<std::string> check(bool quiescent) = 0;
};

/// One fresh instance of the scenario under test.  The factory must be
/// deterministic: building twice and firing the same event ids must
/// reproduce the same behaviour, or replay diverges (the explorer
/// reports this as a "replay-divergence" violation).
class ExploredRun {
 public:
  virtual ~ExploredRun() = default;
  [[nodiscard]] virtual sim::Simulation& sim() = 0;
  /// Invariants to check; pointers remain owned by the run.
  [[nodiscard]] virtual std::vector<Invariant*> invariants() = 0;
  /// Canonical end-state rendering.  Must be *order-normalized*: state
  /// that records global arrival order of independent actors (append-only
  /// logs with global sequence numbers) must be re-keyed per actor, or
  /// the determinism check will flag log accidents instead of real
  /// non-commutativity.
  [[nodiscard]] virtual std::string digest() = 0;
};

using ScenarioFactory = std::function<std::unique_ptr<ExploredRun>()>;

struct McConfig {
  /// Stop exploring a run past this simulated time (open-ended scenarios
  /// with periodic monitoring never drain their queues).
  Time horizon = Time::max();
  /// Total transition budget across all replays; exceeding it marks the
  /// exploration incomplete instead of running forever.
  std::uint64_t max_transitions = 2'000'000;
  /// Sleep-set pruning.  Turn OFF to validate the independence relation
  /// itself: with pruning on, redundant linearizations of a commutation
  /// class are exactly the runs that get skipped, so the determinism
  /// check rarely sees two members of one class.  Off = every
  /// interleaving explored, every class cross-checked.
  bool use_sleep_sets = true;
};

struct Violation {
  std::string invariant;
  std::string detail;
  /// Choice index taken at each decision point on the violating path.
  std::vector<std::size_t> trace;
  /// Human rendering of the decision path ("d0@t=361.500 [ops|rb]...").
  std::string rendered_trace;
};

struct ExploreStats {
  std::uint64_t runs = 0;          ///< scenario replays executed
  std::uint64_t transitions = 0;   ///< events stepped, across all replays
  std::uint64_t decision_points = 0;  ///< distinct branch nodes discovered
  std::uint64_t branches = 0;      ///< branches actually explored
  std::uint64_t sleep_pruned = 0;  ///< branches skipped by sleep sets
  std::uint64_t terminals = 0;     ///< complete interleavings reached
  std::uint64_t foata_classes = 0; ///< distinct commutation classes seen
  bool budget_exhausted = false;
  /// True when the state space was fully explored within budget.
  [[nodiscard]] bool complete() const { return !budget_exhausted; }
};

class Explorer {
 public:
  explicit Explorer(ScenarioFactory factory, McConfig cfg = {});

  /// Exhaustive DFS over commutative same-timestamp orderings.  Returns
  /// the violations found (empty = every explored interleaving satisfies
  /// every invariant).
  const std::vector<Violation>& explore();

  /// Single run following the kernel's canonical scheduling order (the
  /// ordering a plain sim.run() would execute), with the same invariant
  /// checks.  This is what "one ordering" CI coverage amounts to -- the
  /// seeded-bug test proves explore() finds races this misses.
  std::vector<Violation> check_canonical();

  [[nodiscard]] const ExploreStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }

  // --- independence relation (exposed for tests) -----------------------
  /// First '|'-separated component ("" for untagged events).
  [[nodiscard]] static std::string actor_of(const std::string& tag);
  /// Conflict: share any tag component, or either event is untagged.
  [[nodiscard]] static bool dependent(const std::string& a,
                                      const std::string& b);

 private:
  struct Choice {
    sim::EventId id = 0;
    Time t;
    std::string tag;
  };
  /// One decision point on the current DFS path.
  struct Node {
    std::vector<Choice> choices;      ///< actor heads, sorted by id
    std::vector<char> done;           ///< explored or sleep-pruned
    /// Arrival sleep set plus siblings already fully explored here; the
    /// child of branch c inherits the subset independent of c.
    std::vector<Choice> sleep_now;
    std::size_t chosen = kNone;
  };
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  enum class RunEnd { kTerminal, kPruned, kViolation, kBudget };

  RunEnd run_once();
  /// Advance the deepest node with an unexplored branch; false when the
  /// whole space is exhausted.
  bool backtrack();
  void record_violation(const char* invariant, std::string detail);
  [[nodiscard]] std::string render_trace() const;
  [[nodiscard]] static std::vector<Choice> actor_heads(
      const std::vector<sim::ReadyEvent>& ready);
  [[nodiscard]] static bool in_sleep(const std::vector<Choice>& sleep,
                                     sim::EventId id);
  [[nodiscard]] static std::size_t first_open(const Node& n);

  ScenarioFactory factory_;
  McConfig cfg_;
  std::vector<Node> stack_;
  ExploreStats stats_;
  std::vector<Violation> violations_;
  std::set<std::pair<std::string, std::string>> seen_violations_;
  /// Foata commutation class -> (digest, rendered trace of first member).
  std::map<std::uint64_t, std::pair<std::string, std::string>> classes_;
};

}  // namespace grid3::mc
