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
    case JobState::kRejected: return "rejected";
  }
  return "?";
}

BatchScheduler::BatchScheduler(sim::Simulation& sim, SchedulerConfig cfg)
    : sim_{sim}, cfg_{std::move(cfg)} {
  assert(cfg_.slots > 0);
}

BatchScheduler::~BatchScheduler() {
  for (const RunningJob& job : running_) {
    if (job.id != 0 && job.completion != 0) sim_.cancel(job.completion);
  }
}

VoIndex BatchScheduler::vo_index(const std::string& vo) {
  const VoIndex v = vo_names_.intern(vo);
  if (v.value() == vos_.size()) vos_.emplace_back();
  return v;
}

SubmitResult BatchScheduler::submit(const JobRequest& req, CompletionFn done) {
  // The one policy gate: the queue walltime limit (section 6.4,
  // requirement 3 -- "queue managed Grid3 resources required every
  // computational job to specify the runtime requested").  Which VOs may
  // submit at all is the grid-map file's decision, made at the
  // gatekeeper.
  if (enforces_walltime() && req.requested_walltime > cfg_.max_walltime) {
    if (done) {
      JobOutcome out;
      out.state = JobState::kRejected;
      out.vo = req.vo_index.valid() ? vo_names_.name(req.vo_index) : req.vo;
      out.submitted = sim_.now();
      done(out);
    }
    return {false, 0, "requested walltime exceeds queue limit"};
  }
  assert(!req.vo_index.valid() || req.vo_index.value() < vos_.size());
  const VoIndex vo = req.vo_index.valid() ? req.vo_index : vo_index(req.vo);

  const LocalJobId id = next_id_++;
  queue_.push_back({id, req, vo, sim_.now(), std::move(done)});
  ++vos_[vo.value()].outstanding;
  dispatch();
  return {true, id, {}};
}

std::vector<BatchScheduler::Placed> BatchScheduler::running_by_id() const {
  std::vector<Placed> jobs;
  jobs.reserve(static_cast<std::size_t>(busy_));
  for (std::uint32_t slot = 0; slot < running_.size(); ++slot) {
    if (running_[slot].id != 0) jobs.push_back({running_[slot].id, slot});
  }
  std::sort(jobs.begin(), jobs.end(),
            [](const Placed& a, const Placed& b) { return a.id < b.id; });
  return jobs;
}

void BatchScheduler::kill(const Placed& victim) {
  if (running_[victim.slot].id == victim.id) {
    finish(victim.slot, JobState::kKilledNodeFailure);
  }
}

std::size_t BatchScheduler::kill_running(double fraction, util::Rng& rng) {
  std::vector<Placed> victims;
  for (const Placed& job : running_by_id()) {
    if (rng.chance(fraction)) victims.push_back(job);
  }
  for (const Placed& victim : victims) kill(victim);
  return victims.size();
}

void BatchScheduler::resize(int new_slots, util::Rng& rng) {
  assert(new_slots >= 0);
  const int removed = cfg_.slots - new_slots;
  cfg_.slots = new_slots;
  if (removed > 0 && busy_slots() > new_slots) {
    // Kill enough randomly chosen running jobs to fit.
    std::vector<Placed> jobs = running_by_id();
    rng.shuffle(jobs);
    const int excess = busy_slots() - new_slots;
    for (int i = 0; i < excess; ++i) kill(jobs[static_cast<std::size_t>(i)]);
  }
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
  return row.usage.to_hours() + static_cast<double>(row.running);
}

int BatchScheduler::count_running(
    const std::function<bool(const RunningJob&)>& pred) const {
  int n = 0;
  for (const RunningJob& job : running_) {
    if (job.id != 0 && pred(job)) ++n;
  }
  return n;
}

void BatchScheduler::dispatch() {
  if (dispatching_) return;
  dispatching_ = true;
  while (free_slots() > 0 && !queue_.empty()) {
    auto idx = pick_next();
    if (!idx.has_value()) break;
    assert(*idx < queue_.size());
    QueuedJob qj = std::move(queue_[*idx]);
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(*idx));
    ++vos_[qj.vo.value()].running;

    std::uint32_t slot;
    if (free_list_.empty()) {
      slot = static_cast<std::uint32_t>(running_.size());
      running_.emplace_back();
    } else {
      slot = free_list_.back();
      free_list_.pop_back();
    }
    ++busy_;
    RunningJob& run = running_[slot];
    run.id = qj.id;
    run.vo = qj.vo;
    run.requested_walltime = qj.req.requested_walltime;
    run.submitted = qj.submitted;
    run.started = sim_.now();
    run.done = std::move(qj.done);

    // Completion: either natural end or the walltime killer, whichever is
    // sooner on an enforcing LRMS.
    Time end_after = qj.req.actual_runtime;
    run.end_state = JobState::kCompleted;
    if (enforces_walltime() && qj.req.actual_runtime > qj.req.requested_walltime) {
      end_after = qj.req.requested_walltime;
      run.end_state = JobState::kKilledWalltime;
    }
    // [this, slot] fits std::function's inline buffer: no allocation.
    // A job that ends early cancels this event, so it fires only for the
    // job that still holds the slot.
    run.completion = sim_.schedule_in(end_after, [this, slot] {
      RunningJob& job = running_[slot];
      assert(job.id != 0);
      job.completion = 0;  // firing: nothing left to cancel
      finish(slot, job.end_state);
    });
  }
  dispatching_ = false;
}

void BatchScheduler::finish(std::uint32_t slot, JobState state) {
  RunningJob& job = running_[slot];
  const LocalJobId id = job.id;
  const VoIndex vo = job.vo;
  const Time submitted = job.submitted;
  const Time started = job.started;
  CompletionFn done = std::move(job.done);
  if (job.completion != 0) sim_.cancel(job.completion);
  job.id = 0;
  free_list_.push_back(slot);
  --busy_;

  VoRow& row = vos_[vo.value()];
  assert(row.running > 0 && row.outstanding > 0);
  --row.running;
  --row.outstanding;
  const Time now = sim_.now();
  row.usage += now - started;
  // Only a callback reads the outcome; local load has none.
  if (done) {
    JobOutcome out;
    out.id = id;
    out.state = state;
    out.vo = vo_names_.name(vo);
    out.submitted = submitted;
    out.started = started;
    out.finished = now;
    done(out);
  }
  dispatch();
}

}  // namespace grid3::batch
