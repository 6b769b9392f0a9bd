#include "mc/explorer.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <utility>

namespace grid3::mc {
namespace {

/// Hard cap on steps within one run (runaway-event-loop backstop).
constexpr std::uint64_t kMaxStepsPerRun = 500'000;
/// Stop after this many distinct violations.
constexpr std::size_t kMaxViolations = 8;

std::vector<std::string> split_tag(const std::string& tag) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const auto pos = tag.find('|', start);
    if (pos == std::string::npos) {
      parts.push_back(tag.substr(start));
      return parts;
    }
    parts.push_back(tag.substr(start, pos - start));
    start = pos + 1;
  }
}

std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6U) + (h >> 2U);
  return h;
}

/// Foata-normal-form hash of an executed tag sequence: partition into
/// maximal blocks of pairwise-independent events (each event joins the
/// block just above the deepest one it conflicts with), sort each block
/// canonically, hash blocks in order.  Two interleavings of the same
/// Mazurkiewicz trace produce the same hash, so colliding runs MUST end
/// in identical states -- unless the declared independence was wrong.
/// EventIds are deliberately excluded: ids are assigned in scheduling
/// order, which commuting two independent events perturbs.  Identical
/// tags are always dependent (they share every component), so blocks
/// never hold duplicates and sorting by tag is canonical.
std::uint64_t foata_hash(const std::vector<std::string>& tags) {
  std::vector<std::vector<const std::string*>> blocks;
  for (const std::string& tag : tags) {
    std::size_t level = 0;
    for (std::size_t i = blocks.size(); i > 0; --i) {
      const auto& block = blocks[i - 1];
      const bool conflict =
          std::any_of(block.begin(), block.end(), [&](const std::string* other) {
            return Explorer::dependent(tag, *other);
          });
      if (conflict) {
        level = i;
        break;
      }
    }
    if (level == blocks.size()) blocks.emplace_back();
    blocks[level].push_back(&tag);
  }
  std::uint64_t h = 1469598103934665603ULL;
  for (auto& block : blocks) {
    std::sort(block.begin(), block.end(),
              [](const std::string* a, const std::string* b) { return *a < *b; });
    h = hash_mix(h, 0xB10Cull);
    for (const std::string* tag : block) {
      h = hash_mix(h, std::hash<std::string>{}(*tag));
    }
  }
  return h;
}

}  // namespace

std::string Explorer::actor_of(const std::string& tag) {
  const auto pos = tag.find('|');
  return pos == std::string::npos ? tag : tag.substr(0, pos);
}

bool Explorer::dependent(const std::string& a, const std::string& b) {
  if (a.empty() || b.empty()) return true;  // untagged conflicts with all
  const auto pa = split_tag(a);
  const auto pb = split_tag(b);
  for (const auto& x : pa) {
    for (const auto& y : pb) {
      if (x == y) return true;
    }
  }
  return false;
}

Explorer::Explorer(ScenarioFactory factory, McConfig cfg)
    : factory_{std::move(factory)}, cfg_{cfg} {}

std::vector<Explorer::Choice> Explorer::actor_heads(
    const std::vector<sim::ReadyEvent>& ready) {
  // One branch candidate per actor: the lowest-id event (program order --
  // same-actor events are never permuted).  `ready` arrives id-sorted.
  std::vector<Choice> heads;
  std::set<std::string> seen;
  for (const auto& e : ready) {
    if (!seen.insert(actor_of(e.tag)).second) continue;
    heads.push_back({e.id, e.t, e.tag});
  }
  return heads;
}

bool Explorer::in_sleep(const std::vector<Choice>& sleep, sim::EventId id) {
  return std::any_of(sleep.begin(), sleep.end(),
                     [id](const Choice& c) { return c.id == id; });
}

std::size_t Explorer::first_open(const Node& n) {
  for (std::size_t i = 0; i < n.done.size(); ++i) {
    if (!n.done[i]) return i;
  }
  return kNone;
}

std::string Explorer::render_trace() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    const Node& node = stack_[i];
    if (node.chosen == kNone) continue;
    const Choice& c = node.choices[node.chosen];
    if (i != 0) out << " > ";
    out << "d" << i << "@" << c.t.to_seconds() << "s["
        << (c.tag.empty() ? "<untagged>" : c.tag) << "]";
  }
  return out.str();
}

void Explorer::record_violation(const char* invariant, std::string detail) {
  if (!seen_violations_.emplace(invariant, detail).second) return;
  Violation v;
  v.invariant = invariant;
  v.detail = std::move(detail);
  for (const Node& node : stack_) v.trace.push_back(node.chosen);
  v.rendered_trace = render_trace();
  violations_.push_back(std::move(v));
}

Explorer::RunEnd Explorer::run_once() {
  auto run = factory_();
  sim::Simulation& sim = run->sim();
  const std::vector<Invariant*> invariants = run->invariants();
  ++stats_.runs;

  std::size_t depth = 0;  // next stack node to replay or create
  std::uint64_t steps = 0;
  std::vector<Choice> sleep;       // current sleep set along this path
  std::vector<std::string> trace;  // executed tags, for the Foata class

  // Sleep set handed to the child of `node` via its chosen branch:
  // (arrival sleep ∪ siblings explored before it) minus everything that
  // conflicts with the choice (Godefroid).
  const auto descend_sleep = [](const Node& node) {
    const Choice& c = node.choices[node.chosen];
    std::vector<Choice> next;
    const auto consider = [&](const Choice& x) {
      if (x.id == c.id || dependent(x.tag, c.tag)) return;
      if (std::any_of(next.begin(), next.end(),
                      [&](const Choice& y) { return y.id == x.id; })) {
        return;
      }
      next.push_back(x);
    };
    for (const Choice& x : node.sleep_now) consider(x);
    for (std::size_t i = 0; i < node.choices.size(); ++i) {
      if (node.done[i] && i != node.chosen) consider(node.choices[i]);
    }
    return next;
  };

  for (;;) {
    if (stats_.transitions >= cfg_.max_transitions ||
        steps >= kMaxStepsPerRun) {
      return RunEnd::kBudget;
    }
    const auto front = sim.next_time();
    if (!front.has_value() || *front > cfg_.horizon) break;  // quiescent

    const std::vector<Choice> heads = actor_heads(sim.enumerate_ready());
    assert(!heads.empty());
    Choice pick;

    if (heads.size() == 1) {
      pick = heads.front();
      if (cfg_.use_sleep_sets && in_sleep(sleep, pick.id)) {
        // The only enabled event is asleep: this whole continuation was
        // already covered under a sibling ordering.
        ++stats_.sleep_pruned;
        return RunEnd::kPruned;
      }
      sleep.erase(std::remove_if(sleep.begin(), sleep.end(),
                                 [&](const Choice& x) {
                                   return dependent(x.tag, pick.tag);
                                 }),
                  sleep.end());
    } else if (depth < stack_.size()) {
      // Replaying the recorded prefix.  The scenario must regenerate the
      // exact same decision point, or replay-from-seed is unsound.
      Node& node = stack_[depth];
      const bool same =
          node.choices.size() == heads.size() &&
          std::equal(node.choices.begin(), node.choices.end(), heads.begin(),
                     [](const Choice& a, const Choice& b) {
                       return a.id == b.id && a.tag == b.tag;
                     });
      if (!same) {
        record_violation(
            "replay-divergence",
            "scenario is not deterministic: decision point d" +
                std::to_string(depth) +
                " changed between replays (check the factory for unseeded "
                "randomness or wall-clock input)");
        return RunEnd::kViolation;
      }
      pick = node.choices[node.chosen];
      sleep = descend_sleep(node);
      ++depth;
    } else {
      // Frontier: a decision point this path has not branched at before.
      Node node;
      node.choices = heads;
      node.done.assign(heads.size(), 0);
      node.sleep_now = sleep;
      if (cfg_.use_sleep_sets) {
        for (std::size_t i = 0; i < heads.size(); ++i) {
          if (in_sleep(sleep, heads[i].id)) {
            node.done[i] = 1;
            ++stats_.sleep_pruned;
          }
        }
      }
      node.chosen = first_open(node);
      ++stats_.decision_points;
      if (node.chosen == kNone) {
        stack_.push_back(std::move(node));  // backtrack() pops it
        return RunEnd::kPruned;
      }
      ++stats_.branches;
      stack_.push_back(std::move(node));
      pick = stack_.back().choices[stack_.back().chosen];
      sleep = descend_sleep(stack_.back());
      ++depth;
    }

    if (!sim.step_event(pick.id)) {
      record_violation("replay-divergence",
                       "step_event refused recorded choice id " +
                           std::to_string(pick.id));
      return RunEnd::kViolation;
    }
    ++stats_.transitions;
    ++steps;
    trace.push_back(pick.tag);

    for (Invariant* inv : invariants) {
      if (auto bad = inv->check(/*quiescent=*/false)) {
        record_violation(inv->name(), std::move(*bad));
        return RunEnd::kViolation;
      }
    }
  }

  for (Invariant* inv : invariants) {
    if (auto bad = inv->check(/*quiescent=*/true)) {
      record_violation(inv->name(), std::move(*bad));
      return RunEnd::kViolation;
    }
  }

  ++stats_.terminals;
  // Invariant 4, byte-identical determinism: interleavings in the same
  // commutation (Foata) class must reach the same end-state digest.
  const std::uint64_t cls = foata_hash(trace);
  const std::string digest = run->digest();
  auto [it, inserted] = classes_.try_emplace(cls, digest, render_trace());
  if (!inserted && it->second.first != digest) {
    record_violation(
        "determinism",
        "two interleavings of commuting events reached different end "
        "states -- the independence relation over-approximates: first "
        "path {" +
            it->second.second + "} vs this path {" + render_trace() + "}");
  }
  return RunEnd::kTerminal;
}

bool Explorer::backtrack() {
  while (!stack_.empty()) {
    Node& node = stack_.back();
    if (node.chosen != kNone) node.done[node.chosen] = 1;
    const std::size_t next = first_open(node);
    if (next != kNone) {
      node.chosen = next;
      ++stats_.branches;
      return true;
    }
    stack_.pop_back();
  }
  return false;
}

const std::vector<Violation>& Explorer::explore() {
  stack_.clear();
  for (;;) {
    const RunEnd end = run_once();
    if (end == RunEnd::kBudget) {
      stats_.budget_exhausted = true;
      break;
    }
    if (violations_.size() >= kMaxViolations) break;
    if (!backtrack()) break;
  }
  stats_.foata_classes = classes_.size();
  return violations_;
}

std::vector<Violation> Explorer::check_canonical() {
  auto run = factory_();
  sim::Simulation& sim = run->sim();
  const std::vector<Invariant*> invariants = run->invariants();
  std::vector<Violation> found;
  const auto note = [&](const char* name, std::string detail) {
    Violation v;
    v.invariant = name;
    v.detail = std::move(detail);
    v.rendered_trace = "canonical";
    found.push_back(std::move(v));
  };

  std::uint64_t steps = 0;
  for (;;) {
    const auto front = sim.next_time();
    if (!front.has_value() || *front > cfg_.horizon ||
        steps >= kMaxStepsPerRun) {
      break;
    }
    // Canonical = lowest id among all ready events, exactly what a plain
    // sim.step() would pop.
    const auto ready = sim.enumerate_ready();
    const bool ok = sim.step_event(ready.front().id);
    assert(ok);
    (void)ok;
    ++steps;
    for (Invariant* inv : invariants) {
      if (auto bad = inv->check(/*quiescent=*/false)) {
        note(inv->name(), std::move(*bad));
        return found;
      }
    }
  }
  for (Invariant* inv : invariants) {
    if (auto bad = inv->check(/*quiescent=*/true)) {
      note(inv->name(), std::move(*bad));
    }
  }
  return found;
}

}  // namespace grid3::mc
