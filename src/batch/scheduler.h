// Local batch schedulers.
//
// Grid3 sites ran OpenPBS, Condor, or LSF (paper section 5), each with
// VO-level policies implemented via Unix group accounts.  This module
// provides the shared slot engine plus the three policy implementations;
// policy differences (fair share vs FIFO vs multi-queue, walltime
// enforcement) are the behavioural knobs the scheduler ablation bench
// sweeps.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/ids.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "util/units.h"

namespace grid3::batch {

using LocalJobId = std::uint64_t;

struct VoIndexTag {};
/// Dense index of one VO (group account) on one scheduler, assigned the
/// first time the scheduler sees the name.
using VoIndex = core::InternedId<VoIndexTag>;

enum class JobState {
  kQueued,
  kRunning,
  kCompleted,
  kKilledWalltime,    ///< exceeded its requested walltime on an enforcing LRMS
  kKilledNodeFailure, ///< worker died (rollover, hardware)
  kKilledAdmin,       ///< drained / cancelled
  kRejected,          ///< refused at submission (policy)
};

[[nodiscard]] const char* to_string(JobState s);

struct JobRequest {
  std::string vo;            ///< group account the job maps to
  /// This scheduler's index of the account (BatchScheduler::vo_index).
  /// A submitter that holds it sets it instead of `vo` and spares submit
  /// the name lookup; when set it wins over `vo`.
  VoIndex vo_index;
  Time requested_walltime;   ///< queue-managed sites require this (§6.4)
  Time actual_runtime;       ///< true demand, unknown to the scheduler
  int priority = 0;          ///< < 0 marks backfill (the Condor exerciser)
};

struct JobOutcome {
  LocalJobId id = 0;
  JobState state = JobState::kRejected;
  std::string vo;
  Time submitted;
  Time started;
  Time finished;
  /// CPU actually consumed (runtime until completion or kill).
  [[nodiscard]] Time cpu_used() const {
    return state == JobState::kQueued || state == JobState::kRejected
               ? Time::zero()
               : finished - started;
  }
};

using CompletionFn = std::function<void(const JobOutcome&)>;

struct SubmitResult {
  bool accepted = false;
  LocalJobId id = 0;
  std::string reason;  ///< set when rejected
};

struct SchedulerConfig {
  std::string site_name;
  int slots = 64;                       ///< worker CPUs
  Time max_walltime = Time::hours(72);  ///< published queue limit
  /// Relative fair-share weight per VO; VOs absent from the map may still
  /// run (weight 1) unless `closed_shares` is set.
  std::map<std::string, double> vo_shares = {};
  bool closed_shares = false;
};

/// Shared engine; subclasses supply the dispatch-order policy.
class BatchScheduler {
 public:
  BatchScheduler(sim::Simulation& sim, SchedulerConfig cfg);
  virtual ~BatchScheduler();
  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// LRMS type string as published in GLUE ("condor", "pbs", "lsf").
  [[nodiscard]] virtual std::string lrms_type() const = 0;
  /// Whether jobs past their requested walltime are killed.
  [[nodiscard]] virtual bool enforces_walltime() const = 0;

  SubmitResult submit(const JobRequest& req, CompletionFn done);
  bool cancel(LocalJobId id);

  /// Kill each running job independently with probability `fraction`
  /// (ACDC's nightly worker rollover, section 6.1): they end in
  /// kKilledNodeFailure.  One `chance()` per running job, drawn in
  /// ascending job-id order.
  std::size_t kill_running(double fraction, util::Rng& rng);

  /// Remove `n` slots (node withdrawal); running jobs on removed slots are
  /// killed.  Adding slots triggers a dispatch round.
  void resize(int new_slots, util::Rng& rng);

  /// Drain: stop dispatching; running jobs finish.  resume() re-opens.
  void drain() { draining_ = true; }
  void resume();

  [[nodiscard]] int total_slots() const { return cfg_.slots; }
  [[nodiscard]] int busy_slots() const { return busy_; }
  [[nodiscard]] int free_slots() const { return cfg_.slots - busy_slots(); }
  [[nodiscard]] std::size_t queued_count() const { return queue_.size(); }
  [[nodiscard]] const SchedulerConfig& config() const { return cfg_; }
  [[nodiscard]] Time max_walltime() const { return cfg_.max_walltime; }
  void set_max_walltime(Time t) { cfg_.max_walltime = t; }

  /// The index of `vo`, assigning the next one if the name is new.
  /// Callers that read a VO's counts every sweep resolve it once.
  VoIndex vo_index(const std::string& vo);

  /// Running jobs of a VO, kept as jobs start and end (O(1)).
  [[nodiscard]] int running_for_vo(VoIndex vo) const {
    return vos_[vo.value()].running;
  }
  /// Accepted jobs of a VO that are queued or running (O(1)).
  [[nodiscard]] int outstanding_for_vo(VoIndex vo) const {
    return vos_[vo.value()].outstanding;
  }

  /// Cumulative CPU time charged per VO (fair-share input + accounting).
  [[nodiscard]] Time vo_usage(const std::string& vo) const;

 protected:
  struct QueuedJob {
    LocalJobId id;
    JobRequest req;
    VoIndex vo;
    Time submitted;
    CompletionFn done;
  };

  /// Policy hook: index into `queue_` of the next job to start, or nullopt
  /// to leave remaining slots idle this round.
  [[nodiscard]] virtual std::optional<std::size_t> pick_next() = 0;

  /// One slot of the running-job slab; id 0 marks a free slot.
  struct RunningJob {
    LocalJobId id = 0;
    VoIndex vo;
    /// How the completion event ends the job: kCompleted, or
    /// kKilledWalltime when an enforcing LRMS stops it at its request.
    JobState end_state = JobState::kCompleted;
    Time requested_walltime;
    Time submitted;
    Time started;
    sim::EventId completion = 0;
    CompletionFn done;
  };

  [[nodiscard]] const std::deque<QueuedJob>& queue() const { return queue_; }
  [[nodiscard]] sim::Simulation& sim() { return sim_; }

  /// Decayed usage ratio used by fair-share policies:
  /// usage / share_weight, lower runs first.
  [[nodiscard]] double fair_share_rank(VoIndex vo) const;

  /// Number of running jobs that satisfy `pred` (policy bookkeeping,
  /// e.g. LSF's long-queue cap).
  [[nodiscard]] int count_running(
      const std::function<bool(const RunningJob&)>& pred) const;

 private:
  /// One VO's row, indexed by VoIndex.
  struct VoRow {
    double share = 1.0;       ///< fair-share weight, floored at 1e-9
    bool authorized = true;   ///< false: closed shares refuse the VO
    int running = 0;
    int outstanding = 0;      ///< queued + running
    Time usage;
  };
  /// A running job's id and the slab slot it occupies.
  struct Placed {
    LocalJobId id;
    std::uint32_t slot;
  };

  void dispatch();
  /// Running jobs in ascending id order: the order every random draw
  /// over them uses, whichever slots they occupy.
  [[nodiscard]] std::vector<Placed> running_by_id() const;
  /// End `victim` unless it already left its slot: a kill's callback
  /// may end other jobs and refill their slots.
  void kill(const Placed& victim);
  void finish(std::uint32_t slot, JobState state);

  sim::Simulation& sim_;
  SchedulerConfig cfg_;
  bool draining_ = false;
  bool dispatching_ = false;
  LocalJobId next_id_ = 1;
  std::deque<QueuedJob> queue_;
  /// Slab of running jobs: a job keeps its slot from dispatch to finish,
  /// and its completion event names the slot.  Freed slots are reused
  /// last-freed first.
  std::vector<RunningJob> running_;
  std::vector<std::uint32_t> free_list_;
  int busy_ = 0;  ///< occupied slots of `running_`
  core::Interner<VoIndex> vo_names_;
  /// Every change to `queue_` or `running_` moves these counts in step.
  std::vector<VoRow> vos_;
};

/// Condor: fair-share matchmaking, negative-priority backfill only runs
/// when nothing else is waiting, no walltime enforcement (vanilla-universe
/// behaviour of the era).
class CondorScheduler : public BatchScheduler {
 public:
  using BatchScheduler::BatchScheduler;
  [[nodiscard]] std::string lrms_type() const override { return "condor"; }
  [[nodiscard]] bool enforces_walltime() const override { return false; }

 protected:
  [[nodiscard]] std::optional<std::size_t> pick_next() override;
};

/// OpenPBS: strict FIFO within priority class, walltime enforced, rejects
/// requests beyond the queue limit at submission.
class PbsScheduler : public BatchScheduler {
 public:
  using BatchScheduler::BatchScheduler;
  [[nodiscard]] std::string lrms_type() const override { return "pbs"; }
  [[nodiscard]] bool enforces_walltime() const override { return true; }

 protected:
  [[nodiscard]] std::optional<std::size_t> pick_next() override;
};

/// LSF: two queues split at a 12-hour requested walltime; the long queue
/// is capped to 60% of the slots so short jobs cannot be starved;
/// walltime enforced.
class LsfScheduler : public BatchScheduler {
 public:
  LsfScheduler(sim::Simulation& sim, SchedulerConfig cfg)
      : BatchScheduler(sim, std::move(cfg)) {}
  [[nodiscard]] std::string lrms_type() const override { return "lsf"; }
  [[nodiscard]] bool enforces_walltime() const override { return true; }

 protected:
  [[nodiscard]] std::optional<std::size_t> pick_next() override;
};

}  // namespace grid3::batch
