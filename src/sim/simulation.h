// Discrete-event simulation kernel.
//
// Events are (time, sequence) ordered: two events at the same instant fire
// in scheduling order, which makes every run with a fixed RNG seed fully
// deterministic.  All Grid3Sim services (gatekeepers, schedulers, GridFTP
// servers, monitoring agents) are callbacks driven by this kernel.
//
// Pending events live in one binary heap ordered by (time, id);
// docs/KERNEL.md is the internals guide.
//
// Model-checking hooks (grid3::mc): every event carries a *tag* naming
// the actor that scheduled it plus the resources it touches
// ("actor|res1|res2..."); tags are inherited from the executing event, so
// a service only labels the roots of its causal chains.  The explorer
// uses enumerate_ready()/step_event() to permute commutative
// same-timestamp events instead of firing them in scheduling order.
//
// Operation costs (n = pending events):
//
//   schedule_at       O(log n)
//   step (pop)        O(log n)
//   cancel            O(1) (its entry is purged when it reaches the front)
//   pending/backlog   O(1)
//   next_time         O(n) -- model checker only
//   enumerate_ready   O(n) -- model checker only
//   step_event        O(n) -- model checker only
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/id_set.h"
#include "util/units.h"

namespace grid3::sim {

using EventFn = std::function<void()>;
using EventId = std::uint64_t;

/// One pending event at the queue's front timestamp, as exposed to the
/// model checker.  `tag` is "actor|res1|..." ("" = untagged background
/// machinery, which the checker treats as a single totally-ordered
/// pseudo-actor that conflicts with everything).
struct ReadyEvent {
  EventId id = 0;
  Time t;
  std::string tag;
};

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (>= now).  Returns a handle usable
  /// with cancel().  The event inherits the current tag (the executing
  /// event's tag, or whatever a ScopedTag installed).  O(log pending).
  EventId schedule_at(Time t, EventFn fn);

  /// Schedule `fn` after `delay` from now.
  EventId schedule_in(Time delay, EventFn fn);

  /// Cancel a pending event.  Safe to call on already-fired, unknown or
  /// already-cancelled ids (no-op, returns false).  O(1): the id leaves
  /// the pending set, and its heap entry is reclaimed when it reaches the
  /// heap front.
  bool cancel(EventId id);

  /// Execute a single event.  Returns false when the queue is empty.
  bool step();

  /// Run until the queue drains or the clock would pass `t`; the clock is
  /// left at exactly `t` (events at `t` included).
  void run_until(Time t);

  /// Run until the queue drains.
  void run();

  /// Events scheduled and neither fired nor cancelled.
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  /// Cancelled entries still on the heap.  Bounded by the heap size, and
  /// draining the queue always purges it to zero (tests assert the
  /// bound).
  [[nodiscard]] std::size_t cancel_backlog() const {
    return heap_.size() - pending_.size();
  }

  /// Events scheduled since construction (every one goes on the heap).
  [[nodiscard]] std::uint64_t heap_scheduled() const { return next_id_ - 1; }

  // --- event tags (model-checker independence relation) ---------------

  /// Tag of the currently-executing event (events scheduled now inherit
  /// it unless a ScopedTag overrides).
  ///
  /// Tags are *interned*: the kernel stores a small integer id per
  /// distinct tag string and events carry only the id, so inheriting a
  /// tag (the per-event common case) is an integer copy, not a string
  /// copy.  The string itself is only hashed when a ScopedTag installs
  /// a tag the kernel has not seen before.
  [[nodiscard]] const std::string& current_tag() const {
    return tag_table_[tag_id_];
  }

  /// RAII tag override: events scheduled inside the scope carry `tag`
  /// (kReplace) or the current tag with "|tag" appended (kAppend --
  /// marking a shared resource without changing the actor, which is the
  /// tag's first '|'-separated component).
  class ScopedTag {
   public:
    enum Mode { kReplace, kAppend };
    ScopedTag(Simulation& sim, const std::string& tag, Mode mode = kReplace)
        : sim_{sim}, saved_{sim.tag_id_} {
      if (mode == kAppend && sim.tag_id_ != 0) {
        std::string combined = sim.current_tag();
        combined += '|';
        combined += tag;
        sim.tag_id_ = sim.intern(combined);
      } else {
        sim.tag_id_ = sim.intern(tag);
      }
    }
    ~ScopedTag() { sim_.tag_id_ = saved_; }
    ScopedTag(const ScopedTag&) = delete;
    ScopedTag& operator=(const ScopedTag&) = delete;

   private:
    Simulation& sim_;
    std::uint32_t saved_;
  };

  // --- model-checker steering ------------------------------------------

  /// Timestamp of the earliest live (non-cancelled) event, or nullopt
  /// when the queue is drained.
  [[nodiscard]] std::optional<Time> next_time() const;

  /// Every live event at next_time(), sorted by id (the order step()
  /// would fire them in).  O(pending); meant for the model checker, not
  /// hot paths.
  [[nodiscard]] std::vector<ReadyEvent> enumerate_ready() const;

  /// Execute one specific event.  The event must be live and scheduled at
  /// next_time() -- the checker may permute same-timestamp events but
  /// never time-travel.  Returns false (and does nothing) otherwise.
  bool step_event(EventId id);

 private:
  struct Entry {
    Time t;
    EventId id;
    std::uint32_t tag;  ///< interned index into tag_table_
    EventFn fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.id > b.id;
    }
  };
  /// Intern `tag`, returning its stable table index (0 = "").
  std::uint32_t intern(const std::string& tag);

  /// Pop cancelled entries off the heap front; true when a pending entry
  /// remains on top.
  bool settle_heap_front();
  /// Pop-and-execute the front event; refuses events past `horizon`.
  bool step_front(const Time* horizon);
  void execute(Entry e);

  Time now_;
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
  // Interned tags: tag_table_[0] is the untagged "" every sim starts
  // with; tag_ids_ maps each distinct string to its index.  The table
  // only grows (ids stay valid for the sim's lifetime) and is tiny in
  // practice -- one entry per distinct actor/resource combination.
  std::uint32_t tag_id_ = 0;
  std::vector<std::string> tag_table_{std::string{}};
  std::unordered_map<std::string, std::uint32_t> tag_ids_;
  // Binary heap (std::push_heap/pop_heap with Later), kept iterable so
  // enumerate_ready()/step_event() can inspect and extract arbitrary
  // front-timestamp events.
  std::vector<Entry> heap_;
  /// Ids on the heap that are neither fired nor cancelled; a heap entry
  /// whose id is absent is a cancelled one awaiting its purge.
  IdWindow pending_;
};

/// A self-rescheduling periodic callback (monitoring sweeps, exerciser
/// probes, nightly rollovers).  Stops when stop() is called or when the
/// callback returns false.
class PeriodicProcess {
 public:
  using TickFn = std::function<bool()>;

  PeriodicProcess(Simulation& sim, Time interval, TickFn tick);
  ~PeriodicProcess();
  PeriodicProcess(const PeriodicProcess&) = delete;
  PeriodicProcess& operator=(const PeriodicProcess&) = delete;

  /// Begin ticking; first tick after `initial_delay`.
  void start(Time initial_delay = Time::zero());
  void stop();
  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

 private:
  void arm(Time delay);

  Simulation& sim_;
  Time interval_;
  TickFn tick_;
  EventId pending_ = 0;
  bool running_ = false;
  std::uint64_t ticks_ = 0;
};

}  // namespace grid3::sim
