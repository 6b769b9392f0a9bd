#include "batch/scheduler.h"

namespace grid3::batch {

std::optional<std::size_t> CondorScheduler::pick_next() {
  // Matchmaking pass: among positive-priority jobs pick the one whose VO
  // has the best (lowest) fair-share rank, FIFO within a VO.  Negative
  // priority marks backfill (the exerciser): it matches only when nothing
  // else is idle in the queue.
  const auto& q = queue();
  std::optional<std::size_t> best;
  double best_rank = 0.0;
  for (std::size_t i = 0; i < q.size(); ++i) {
    if (q[i].req.priority < 0) continue;
    const double rank = fair_share_rank(q[i].vo);
    if (!best.has_value() || rank < best_rank) {
      best = i;
      best_rank = rank;
    }
  }
  if (best.has_value()) return best;
  // Backfill: oldest negative-priority job.
  for (std::size_t i = 0; i < q.size(); ++i) {
    if (q[i].req.priority < 0) return i;
  }
  return std::nullopt;
}

}  // namespace grid3::batch
