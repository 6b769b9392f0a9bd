#include "batch/scheduler.h"

#include <algorithm>
#include <cassert>

namespace grid3::batch {

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kCompleted: return "completed";
    case JobState::kKilledWalltime: return "killed-walltime";
    case JobState::kKilledNodeFailure: return "killed-node-failure";
    case JobState::kKilledAdmin: return "killed-admin";
    case JobState::kRejected: return "rejected";
  }
  return "?";
}

BatchScheduler::BatchScheduler(sim::Simulation& sim, SchedulerConfig cfg)
    : sim_{sim}, cfg_{std::move(cfg)} {
  assert(cfg_.slots > 0);
}

BatchScheduler::~BatchScheduler() {
  for (auto& [id, job] : running_) {
    if (job.completion != 0) sim_.cancel(job.completion);
  }
}

VoIndex BatchScheduler::vo_index(const std::string& vo) {
  const VoIndex v = vo_names_.intern(vo);
  if (v.value() == vos_.size()) {
    VoRow& row = vos_.emplace_back();
    if (auto it = cfg_.vo_shares.find(vo); it != cfg_.vo_shares.end()) {
      row.share = std::max(it->second, 1e-9);
    } else {
      row.authorized = !cfg_.closed_shares;
    }
  }
  return v;
}

SubmitResult BatchScheduler::submit(const JobRequest& req, CompletionFn done) {
  const auto reject = [&](const char* reason) -> SubmitResult {
    if (done) {
      JobOutcome out;
      out.state = JobState::kRejected;
      out.vo = req.vo;
      out.submitted = sim_.now();
      done(out);
    }
    return {false, 0, reason};
  };
  // Policy gate 1: queue walltime limit (section 6.4, requirement 3 --
  // "queue managed Grid3 resources required every computational job to
  // specify the runtime requested").
  if (enforces_walltime() && req.requested_walltime > cfg_.max_walltime) {
    return reject("requested walltime exceeds queue limit");
  }
  // Policy gate 2: closed share lists refuse foreign VOs.
  const VoIndex vo = vo_index(req.vo);
  if (!vos_[vo.value()].authorized) {
    return reject("VO not authorized on this resource");
  }

  const LocalJobId id = next_id_++;
  queue_.push_back({id, req, vo, sim_.now(), std::move(done)});
  ++vos_[vo.value()].outstanding;
  dispatch();
  return {true, id, {}};
}

bool BatchScheduler::cancel(LocalJobId id) {
  // Queued?
  auto qit = std::find_if(queue_.begin(), queue_.end(),
                          [&](const QueuedJob& j) { return j.id == id; });
  if (qit != queue_.end()) {
    JobOutcome out;
    out.id = id;
    out.state = JobState::kKilledAdmin;
    out.vo = qit->req.vo;
    out.submitted = qit->submitted;
    out.started = out.finished = sim_.now();
    CompletionFn cb = std::move(qit->done);
    int& outstanding = vos_[qit->vo.value()].outstanding;
    assert(outstanding > 0);
    --outstanding;
    queue_.erase(qit);
    if (cb) cb(out);
    return true;
  }
  if (auto it = running_.find(id); it != running_.end()) {
    finish(it, JobState::kKilledAdmin);
    return true;
  }
  return false;
}

std::size_t BatchScheduler::kill_running(double fraction, util::Rng& rng) {
  std::vector<LocalJobId> victims;
  for (const auto& [id, job] : running_) {
    if (rng.chance(fraction)) victims.push_back(id);
  }
  std::sort(victims.begin(), victims.end());  // deterministic order
  for (LocalJobId id : victims) finish(id, JobState::kKilledNodeFailure);
  return victims.size();
}

void BatchScheduler::resize(int new_slots, util::Rng& rng) {
  assert(new_slots >= 0);
  const int removed = cfg_.slots - new_slots;
  cfg_.slots = new_slots;
  if (removed > 0 && busy_slots() > new_slots) {
    // Kill enough randomly chosen running jobs to fit.
    std::vector<LocalJobId> ids;
    ids.reserve(running_.size());
    for (const auto& [id, job] : running_) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    rng.shuffle(ids);
    const int excess = busy_slots() - new_slots;
    for (int i = 0; i < excess; ++i) {
      finish(ids[static_cast<std::size_t>(i)], JobState::kKilledNodeFailure);
    }
  }
  dispatch();
}

void BatchScheduler::resume() {
  draining_ = false;
  dispatch();
}

Time BatchScheduler::vo_usage(const std::string& vo) const {
  const VoIndex v = vo_names_.find(vo);
  return v.valid() ? vos_[v.value()].usage : Time::zero();
}

double BatchScheduler::fair_share_rank(VoIndex vo) const {
  const VoRow& row = vos_[vo.value()];
  // Include currently-running occupancy so a burst from one VO does not
  // monopolize the next free slots.
  const double used =
      row.usage.to_hours() + static_cast<double>(row.running);
  return used / row.share;
}

int BatchScheduler::count_running(
    const std::function<bool(const JobRequest&)>& pred) const {
  int n = 0;
  for (const auto& [id, job] : running_) {
    if (pred(job.req)) ++n;
  }
  return n;
}

void BatchScheduler::dispatch() {
  if (dispatching_ || draining_) return;
  dispatching_ = true;
  while (free_slots() > 0 && !queue_.empty()) {
    auto idx = pick_next();
    if (!idx.has_value()) break;
    assert(*idx < queue_.size());
    QueuedJob qj = std::move(queue_[*idx]);
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(*idx));
    ++vos_[qj.vo.value()].running;

    RunningJob run;
    run.id = qj.id;
    run.req = std::move(qj.req);
    run.vo = qj.vo;
    run.submitted = qj.submitted;
    run.started = sim_.now();
    run.done = std::move(qj.done);

    // Completion: either natural end or the walltime killer, whichever is
    // sooner on an enforcing LRMS.
    Time end_after = run.req.actual_runtime;
    if (enforces_walltime() && run.req.actual_runtime > run.req.requested_walltime) {
      end_after = run.req.requested_walltime;
      run.end_state = JobState::kKilledWalltime;
    }
    // [this, id] fits std::function's inline buffer: no allocation.
    const LocalJobId id = qj.id;
    run.completion = sim_.schedule_in(end_after, [this, id] {
      auto it = running_.find(id);
      assert(it != running_.end());
      finish(it, it->second.end_state);
    });
    running_.emplace(id, std::move(run));
  }
  dispatching_ = false;
}

void BatchScheduler::finish(LocalJobId id, JobState state) {
  if (auto it = running_.find(id); it != running_.end()) finish(it, state);
}

void BatchScheduler::finish(RunningMap::iterator it, JobState state) {
  RunningJob job = std::move(it->second);
  running_.erase(it);
  VoRow& row = vos_[job.vo.value()];
  assert(row.running > 0 && row.outstanding > 0);
  --row.running;
  --row.outstanding;
  if (job.completion != 0) sim_.cancel(job.completion);

  JobOutcome out;
  out.id = job.id;
  out.state = state;
  out.vo = job.req.vo;
  out.submitted = job.submitted;
  out.started = job.started;
  out.finished = sim_.now();
  row.usage += out.cpu_used();
  if (job.done) job.done(out);
  dispatch();
}

}  // namespace grid3::batch
