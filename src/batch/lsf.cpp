#include "batch/scheduler.h"

#include <cmath>

namespace grid3::batch {

namespace {

/// Requested walltime above which a job goes to the long queue.
constexpr Time kLongQueueThreshold = Time::hours(12);
/// Fraction of the slots the long queue may occupy.
constexpr double kLongQueueCap = 0.6;

}  // namespace

std::optional<std::size_t> LsfScheduler::pick_next() {
  // Two queues split at kLongQueueThreshold.  The long queue may hold at
  // most kLongQueueCap * slots running jobs so short work is never
  // starved; within each queue dispatch is FIFO with priority classes,
  // and the short queue is preferred when both have candidates and the
  // long queue is at its cap.
  const auto& q = queue();
  std::optional<std::size_t> best;
  auto better = [&](std::size_t i) {
    if (!best.has_value()) return true;
    const auto& a = q[i];
    const auto& b = q[*best];
    if (a.req.priority != b.req.priority) {
      return a.req.priority > b.req.priority;
    }
    return false;  // FIFO otherwise (queue order == submission order)
  };
  // Pass 1: short-queue candidates.
  for (std::size_t i = 0; i < q.size(); ++i) {
    if (q[i].req.priority < 0) continue;
    if (q[i].req.requested_walltime > kLongQueueThreshold) continue;
    if (better(i)) best = i;
  }
  if (best.has_value()) return best;
  // Pass 2: long-queue candidates, capacity permitting.  At least one
  // slot can always take long work (real LSF queues never starve a class
  // outright).
  const int long_cap = std::max(
      1, static_cast<int>(
             std::floor(kLongQueueCap * static_cast<double>(total_slots()))));
  const int long_now = count_running([](const RunningJob& j) {
    return j.requested_walltime > kLongQueueThreshold;
  });
  if (long_now < long_cap) {
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (q[i].req.priority < 0) continue;
      if (q[i].req.requested_walltime <= kLongQueueThreshold) continue;
      if (better(i)) best = i;
    }
    if (best.has_value()) return best;
  }
  // Pass 3: backfill.
  for (std::size_t i = 0; i < q.size(); ++i) {
    if (q[i].req.priority < 0) return i;
  }
  return std::nullopt;
}

}  // namespace grid3::batch
