#include "sim/simulation.h"

#include <algorithm>
#include <cassert>

namespace grid3::sim {

EventId Simulation::schedule_at(Time t, EventFn fn) {
  assert(t >= now_);
  const EventId id = next_id_++;
  heap_.push_back({t, id, tag_id_, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  pending_.insert(id);
  return id;
}

EventId Simulation::schedule_in(Time delay, EventFn fn) {
  return schedule_at(now_ + delay, std::move(fn));
}

bool Simulation::cancel(EventId id) { return pending_.erase(id); }

bool Simulation::settle_heap_front() {
  // While no entry is cancelled the heap holds exactly the pending ids,
  // so the cancel-free path never looks the front up.
  while (heap_.size() != pending_.size() &&
         !pending_.contains(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  return !heap_.empty();
}

std::uint32_t Simulation::intern(const std::string& tag) {
  if (tag.empty()) return 0;
  const auto [it, inserted] =
      tag_ids_.try_emplace(tag, static_cast<std::uint32_t>(tag_table_.size()));
  if (inserted) tag_table_.push_back(tag);
  return it->second;
}

void Simulation::execute(Entry e) {
  now_ = e.t;
  ++executed_;
  // The event's tag becomes the ambient tag while it runs, so events it
  // schedules inherit its actor/resource key by default.  Tags are
  // interned, so inheritance is a pair of integer assignments.
  const std::uint32_t saved = tag_id_;
  tag_id_ = e.tag;
  e.fn();
  tag_id_ = saved;
}

bool Simulation::step_front(const Time* horizon) {
  if (!settle_heap_front()) return false;
  if (horizon != nullptr && heap_.front().t > *horizon) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry e = std::move(heap_.back());
  heap_.pop_back();
  pending_.erase(e.id);
  execute(std::move(e));
  return true;
}

bool Simulation::step() { return step_front(nullptr); }

void Simulation::run_until(Time t) {
  while (step_front(&t)) {
  }
  if (now_ < t) now_ = t;
}

void Simulation::run() {
  while (step_front(nullptr)) {
  }
}

std::optional<Time> Simulation::next_time() const {
  // const scan: skip cancelled entries without mutating anything.
  // O(pending); model-checker territory.
  std::optional<Time> best;
  for (const Entry& e : heap_) {
    if (!pending_.contains(e.id)) continue;
    if (!best.has_value() || e.t < *best) best = e.t;
  }
  return best;
}

std::vector<ReadyEvent> Simulation::enumerate_ready() const {
  std::vector<ReadyEvent> ready;
  const auto front = next_time();
  if (!front.has_value()) return ready;
  for (const Entry& e : heap_) {
    if (e.t != *front) continue;
    if (!pending_.contains(e.id)) continue;
    ready.push_back({e.id, e.t, tag_table_[e.tag]});
  }
  std::sort(ready.begin(), ready.end(),
            [](const ReadyEvent& a, const ReadyEvent& b) {
              return a.id < b.id;
            });
  return ready;
}

bool Simulation::step_event(EventId id) {
  if (!pending_.contains(id)) return false;
  const auto front = next_time();
  if (!front.has_value()) return false;

  auto hit = std::find_if(heap_.begin(), heap_.end(),
                          [id](const Entry& e) { return e.id == id; });
  assert(hit != heap_.end() && "pending id missing from the heap");
  if (hit == heap_.end()) return false;
  if (hit->t != *front) return false;  // no time travel
  Entry e = std::move(*hit);
  // O(n) extraction: swap the hole to the back and re-heapify.  Only the
  // model checker pays this; step() keeps the heap path.
  *hit = std::move(heap_.back());
  heap_.pop_back();
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  pending_.erase(e.id);
  execute(std::move(e));
  return true;
}

PeriodicProcess::PeriodicProcess(Simulation& sim, Time interval, TickFn tick)
    : sim_{sim}, interval_{interval}, tick_{std::move(tick)} {
  assert(interval_ > Time::zero());
}

PeriodicProcess::~PeriodicProcess() { stop(); }

void PeriodicProcess::start(Time initial_delay) {
  if (running_) return;
  running_ = true;
  arm(initial_delay);
}

void PeriodicProcess::stop() {
  if (!running_) return;
  running_ = false;
  if (pending_ != 0) {
    sim_.cancel(pending_);
    pending_ = 0;
  }
}

void PeriodicProcess::arm(Time delay) {
  pending_ = sim_.schedule_in(delay, [this] {
    pending_ = 0;
    if (!running_) return;
    ++ticks_;
    if (tick_()) {
      arm(interval_);
    } else {
      running_ = false;
    }
  });
}

}  // namespace grid3::sim
