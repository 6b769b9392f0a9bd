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

SubmitResult BatchScheduler::submit(const JobRequest& req, CompletionFn done) {
  // Policy gate 1: queue walltime limit (section 6.4, requirement 3 --
  // "queue managed Grid3 resources required every computational job to
  // specify the runtime requested").
  if (enforces_walltime() && req.requested_walltime > cfg_.max_walltime) {
    if (done) {
      JobOutcome out;
      out.state = JobState::kRejected;
      out.vo = req.vo;
      out.submitted = sim_.now();
      done(out);
    }
    return {false, 0, "requested walltime exceeds queue limit"};
  }
  // Policy gate 2: closed share lists refuse foreign VOs.
  if (cfg_.closed_shares && !cfg_.vo_shares.contains(req.vo)) {
    if (done) {
      JobOutcome out;
      out.state = JobState::kRejected;
      out.vo = req.vo;
      out.submitted = sim_.now();
      done(out);
    }
    return {false, 0, "VO not authorized on this resource"};
  }

  const LocalJobId id = next_id_++;
  queue_.push_back({id, req, sim_.now()});
  queued_callbacks_.emplace(id, std::move(done));
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
    auto cb = std::move(queued_callbacks_[id]);
    queued_callbacks_.erase(id);
    queue_.erase(qit);
    if (cb) cb(out);
    return true;
  }
  if (running_.contains(id)) {
    finish(id, JobState::kKilledAdmin);
    return true;
  }
  return false;
}

std::size_t BatchScheduler::kill_running(double fraction, util::Rng& rng,
                                         JobState reason) {
  std::vector<LocalJobId> victims;
  for (const auto& [id, job] : running_) {
    if (rng.chance(fraction)) victims.push_back(id);
  }
  std::sort(victims.begin(), victims.end());  // deterministic order
  for (LocalJobId id : victims) finish(id, reason);
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

int BatchScheduler::running_for_vo(const std::string& vo) const {
  auto it = running_per_vo_.find(vo);
  return it == running_per_vo_.end() ? 0 : it->second;
}

Time BatchScheduler::vo_usage(const std::string& vo) const {
  auto it = usage_.find(vo);
  return it == usage_.end() ? Time::zero() : it->second;
}

double BatchScheduler::fair_share_rank(const std::string& vo) const {
  double share = 1.0;
  if (auto it = cfg_.vo_shares.find(vo); it != cfg_.vo_shares.end()) {
    share = std::max(it->second, 1e-9);
  }
  // Include currently-running occupancy so a burst from one VO does not
  // monopolize the next free slots.
  const double used =
      vo_usage(vo).to_hours() + static_cast<double>(running_for_vo(vo));
  return used / share;
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
    QueuedJob qj = queue_[*idx];
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(*idx));
    ++running_per_vo_[qj.req.vo];

    RunningJob run;
    run.id = qj.id;
    run.req = qj.req;
    run.submitted = qj.submitted;
    run.started = sim_.now();
    run.done = std::move(queued_callbacks_[qj.id]);
    queued_callbacks_.erase(qj.id);

    // Completion: either natural end or the walltime killer, whichever is
    // sooner on an enforcing LRMS.
    Time end_after = run.req.actual_runtime;
    JobState end_state = JobState::kCompleted;
    if (enforces_walltime() && run.req.actual_runtime > run.req.requested_walltime) {
      end_after = run.req.requested_walltime;
      end_state = JobState::kKilledWalltime;
    }
    const LocalJobId id = qj.id;
    run.completion = sim_.schedule_in(
        end_after, [this, id, end_state] { finish(id, end_state); });
    running_.emplace(id, std::move(run));
  }
  dispatching_ = false;
}

void BatchScheduler::finish(LocalJobId id, JobState state) {
  auto it = running_.find(id);
  if (it == running_.end()) return;
  RunningJob job = std::move(it->second);
  running_.erase(it);
  int& running = running_per_vo_[job.req.vo];
  assert(running > 0);
  --running;
  if (job.completion != 0) sim_.cancel(job.completion);

  JobOutcome out;
  out.id = id;
  out.state = state;
  out.vo = job.req.vo;
  out.submitted = job.submitted;
  out.started = job.started;
  out.finished = sim_.now();
  charge_usage(job.req.vo, out.cpu_used());
  if (job.done) job.done(out);
  dispatch();
}

void BatchScheduler::charge_usage(const std::string& vo, Time cpu) {
  usage_[vo] += cpu;
}

}  // namespace grid3::batch
