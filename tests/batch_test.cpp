// Unit tests for the batch schedulers: slot engine, policies, walltime
// enforcement, per-VO accounting, failure hooks.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "batch/scheduler.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace grid3::batch {
namespace {

JobRequest job(const std::string& vo, double runtime_h,
               double walltime_h = 0.0, int priority = 0) {
  JobRequest r;
  r.vo = vo;
  r.actual_runtime = Time::hours(runtime_h);
  r.requested_walltime =
      Time::hours(walltime_h > 0 ? walltime_h : runtime_h + 1);
  r.priority = priority;
  return r;
}

SchedulerConfig config(int slots, double max_wall_h = 72.0) {
  SchedulerConfig cfg;
  cfg.site_name = "TEST";
  cfg.slots = slots;
  cfg.max_walltime = Time::hours(max_wall_h);
  return cfg;
}

TEST(SlotEngine, RunsUpToSlotsConcurrently) {
  sim::Simulation sim;
  CondorScheduler sched{sim, config(2)};
  for (int i = 0; i < 5; ++i) {
    sched.submit(job("a", 1.0), {});
  }
  EXPECT_EQ(sched.busy_slots(), 2);
  EXPECT_EQ(sched.queued_count(), 3u);
  sim.run();
  EXPECT_EQ(sched.busy_slots(), 0);
  EXPECT_EQ(sched.queued_count(), 0u);
}

TEST(SlotEngine, CompletionCallbackCarriesTimes) {
  sim::Simulation sim;
  CondorScheduler sched{sim, config(1)};
  JobOutcome out1, out2;
  sched.submit(job("a", 2.0), [&](const JobOutcome& o) { out1 = o; });
  sched.submit(job("a", 3.0), [&](const JobOutcome& o) { out2 = o; });
  sim.run();
  EXPECT_EQ(out1.state, JobState::kCompleted);
  EXPECT_EQ(out1.started, Time::zero());
  EXPECT_EQ(out1.finished, Time::hours(2));
  // Second job waited for the first slot.
  EXPECT_EQ(out2.started, Time::hours(2));
  EXPECT_EQ(out2.finished, Time::hours(5));
  EXPECT_EQ(out2.cpu_used(), Time::hours(3));
}

TEST(SlotEngine, KillRunningFractionAndRedispatch) {
  sim::Simulation sim;
  CondorScheduler sched{sim, config(4)};
  std::map<JobState, int> outcomes;
  for (int i = 0; i < 8; ++i) {
    sched.submit(job("a", 10.0),
                 [&](const JobOutcome& o) { ++outcomes[o.state]; });
  }
  util::Rng rng{9};
  const auto killed = sched.kill_running(1.0, rng);
  EXPECT_EQ(killed, 4u);
  EXPECT_EQ(outcomes[JobState::kKilledNodeFailure], 4);
  // Queue refilled the slots.
  EXPECT_EQ(sched.busy_slots(), 4);
  sim.run();
  EXPECT_EQ(outcomes[JobState::kCompleted], 4);
}

TEST(SlotEngine, ResizeDownKillsExcess) {
  sim::Simulation sim;
  CondorScheduler sched{sim, config(4)};
  int node_failures = 0;
  for (int i = 0; i < 4; ++i) {
    sched.submit(job("a", 10.0), [&](const JobOutcome& o) {
      if (o.state == JobState::kKilledNodeFailure) ++node_failures;
    });
  }
  util::Rng rng{10};
  sched.resize(2, rng);
  EXPECT_EQ(sched.total_slots(), 2);
  EXPECT_EQ(sched.busy_slots(), 2);
  EXPECT_EQ(node_failures, 2);
}

TEST(SlotEngine, UsageChargedPerVo) {
  sim::Simulation sim;
  CondorScheduler sched{sim, config(2)};
  sched.submit(job("atlas", 2.0), {});
  sched.submit(job("cms", 3.0), {});
  sim.run();
  EXPECT_EQ(sched.vo_usage("atlas"), Time::hours(2));
  EXPECT_EQ(sched.vo_usage("cms"), Time::hours(3));
  EXPECT_EQ(sched.vo_usage("ligo"), Time::zero());
}

TEST(SlotEngine, KillRunningDrawsInJobIdOrder) {
  sim::Simulation sim;
  CondorScheduler sched{sim, config(6)};
  std::vector<LocalJobId> killed;
  const auto record = [&](const JobOutcome& o) {
    if (o.state == JobState::kKilledNodeFailure) killed.push_back(o.id);
  };
  // Jobs 2, 4 and 5 end at 1 h and jobs 7-9 take their slots, so the
  // running jobs no longer sit in id order.
  for (double hours : {10.0, 1.0, 10.0, 1.0, 1.0, 10.0, 10.0, 10.0, 10.0}) {
    sched.submit(job("a", hours), record);
  }
  sim.run_until(Time::hours(2));
  ASSERT_EQ(sched.busy_slots(), 6);

  util::Rng rng{2003};
  util::Rng replay = rng;
  std::vector<LocalJobId> expected;
  for (LocalJobId id : {1, 3, 6, 7, 8, 9}) {
    if (replay.chance(0.5)) expected.push_back(id);
  }
  ASSERT_FALSE(expected.empty());
  ASSERT_LT(expected.size(), 6u);
  EXPECT_EQ(sched.kill_running(0.5, rng), expected.size());
  EXPECT_EQ(killed, expected);
  // One draw per running job, no more.
  EXPECT_EQ(rng.next_u64(), replay.next_u64());
}

TEST(SlotEngine, RefilledSlotKeepsItsOwnCompletion) {
  sim::Simulation sim;
  PbsScheduler sched{sim, config(1)};
  std::vector<JobOutcome> outs;
  const auto record = [&](const JobOutcome& o) { outs.push_back(o); };
  // The first job would hit its 2 h walltime; it is killed at 1 h and
  // the queued job takes its slot.
  const auto first = sched.submit(job("a", 3.0, 2.0), record);
  const auto second = sched.submit(job("b", 5.0, 6.0), record);
  sim.run_until(Time::hours(1));
  util::Rng rng{1};
  ASSERT_EQ(sched.kill_running(1.0, rng), 1u);
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0].id, first.id);
  EXPECT_EQ(outs[0].state, JobState::kKilledNodeFailure);
  EXPECT_EQ(sched.busy_slots(), 1);

  sim.run_until(Time::hours(3));
  EXPECT_EQ(outs.size(), 1u);  // nothing ended at the killed job's 2 h
  EXPECT_EQ(sched.busy_slots(), 1);
  sim.run();
  ASSERT_EQ(outs.size(), 2u);
  EXPECT_EQ(outs[1].id, second.id);
  EXPECT_EQ(outs[1].state, JobState::kCompleted);
  EXPECT_EQ(outs[1].vo, "b");
  EXPECT_EQ(outs[1].started, Time::hours(1));
  EXPECT_EQ(outs[1].finished, Time::hours(6));
}

TEST(SlotEngine, VoIndexRequestLandsOnTheNamedRow) {
  sim::Simulation sim;
  CondorScheduler sched{sim, config(2)};
  const VoIndex cms = sched.vo_index("cms");
  JobRequest by_index = job("", 2.0);
  by_index.vo_index = cms;
  JobOutcome out;
  sched.submit(job("cms", 1.0), {});
  sched.submit(by_index, [&](const JobOutcome& o) { out = o; });
  sched.submit(by_index, {});  // queued behind both
  EXPECT_EQ(sched.running_for_vo(cms), 2);
  EXPECT_EQ(sched.outstanding_for_vo(cms), 3);
  sim.run_until(Time::hours(1));
  EXPECT_EQ(sched.running_for_vo(cms), 2);
  EXPECT_EQ(sched.outstanding_for_vo(cms), 2);
  sim.run();
  EXPECT_EQ(sched.running_for_vo(cms), 0);
  EXPECT_EQ(sched.outstanding_for_vo(cms), 0);
  EXPECT_EQ(sched.vo_usage("cms"), Time::hours(5));
  EXPECT_EQ(out.vo, "cms");
  EXPECT_EQ(out.state, JobState::kCompleted);
}

TEST(Condor, DoesNotEnforceWalltime) {
  sim::Simulation sim;
  CondorScheduler sched{sim, config(1)};
  JobOutcome out;
  // Runs 10 h despite requesting 1 h.
  sched.submit(job("a", 10.0, 1.0), [&](const JobOutcome& o) { out = o; });
  sim.run();
  EXPECT_EQ(out.state, JobState::kCompleted);
  EXPECT_EQ(out.finished, Time::hours(10));
}

TEST(Condor, FairShareBalancesVos) {
  sim::Simulation sim;
  CondorScheduler sched{sim, config(1)};
  // VO "hog" floods the queue first, then "meek" submits one job.  With
  // fair-share, once hog accumulates usage, meek's job jumps ahead of
  // hog's remaining queue.
  std::vector<std::string> finish_order;
  for (int i = 0; i < 3; ++i) {
    sched.submit(job("hog", 2.0),
                 [&](const JobOutcome&) { finish_order.push_back("hog"); });
  }
  sched.submit(job("meek", 2.0),
               [&](const JobOutcome&) { finish_order.push_back("meek"); });
  sim.run();
  ASSERT_EQ(finish_order.size(), 4u);
  // meek must not be last; it overtakes queued hog work.
  EXPECT_NE(finish_order.back(), "meek");
}

TEST(Condor, BackfillOnlyRunsWhenQueueIdle) {
  sim::Simulation sim;
  CondorScheduler sched{sim, config(1)};
  std::vector<std::string> order;
  sched.submit(job("probe", 1.0, 2.0, -1),
               [&](const JobOutcome&) { order.push_back("probe"); });
  sched.submit(job("work", 1.0),
               [&](const JobOutcome&) { order.push_back("work"); });
  // The backfill probe was submitted first but the production job runs
  // first once a slot frees... the probe grabbed the idle slot at t=0,
  // so the production job waits one slot turn.
  sim.run();
  ASSERT_EQ(order.size(), 2u);
}

TEST(Condor, BackfillWaitsBehindProduction) {
  sim::Simulation sim;
  CondorScheduler sched{sim, config(1)};
  // Occupy the slot, then queue a probe and a production job.
  sched.submit(job("work", 1.0), {});
  std::vector<std::string> order;
  sched.submit(job("probe", 1.0, 2.0, -1),
               [&](const JobOutcome&) { order.push_back("probe"); });
  sched.submit(job("work2", 1.0),
               [&](const JobOutcome&) { order.push_back("work2"); });
  sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "work2");  // production outranks backfill
  EXPECT_EQ(order[1], "probe");
}

TEST(Pbs, EnforcesWalltimeKill) {
  sim::Simulation sim;
  PbsScheduler sched{sim, config(1)};
  JobOutcome out;
  sched.submit(job("a", 10.0, 2.0), [&](const JobOutcome& o) { out = o; });
  sim.run();
  EXPECT_EQ(out.state, JobState::kKilledWalltime);
  EXPECT_EQ(out.finished, Time::hours(2));
}

TEST(Pbs, RejectsOverLimitRequests) {
  sim::Simulation sim;
  PbsScheduler sched{sim, config(1, 24.0)};
  JobOutcome out;
  const auto res =
      sched.submit(job("a", 30.0, 48.0), [&](const JobOutcome& o) { out = o; });
  EXPECT_FALSE(res.accepted);
  EXPECT_EQ(out.state, JobState::kRejected);
}

TEST(Pbs, FifoWithinPriority) {
  sim::Simulation sim;
  PbsScheduler sched{sim, config(1)};
  sched.submit(job("x", 1.0), {});  // occupies slot
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sched.submit(job("x", 1.0),
                 [&order, i](const JobOutcome&) { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Pbs, HigherPriorityJumpsQueue) {
  sim::Simulation sim;
  PbsScheduler sched{sim, config(1)};
  sched.submit(job("x", 1.0), {});
  std::vector<std::string> order;
  sched.submit(job("low", 1.0, 2.0, 0),
               [&](const JobOutcome&) { order.push_back("low"); });
  sched.submit(job("high", 1.0, 2.0, 5),
               [&](const JobOutcome&) { order.push_back("high"); });
  sim.run();
  EXPECT_EQ(order[0], "high");
}

TEST(Lsf, LongQueueCappedShortJobsFlow) {
  sim::Simulation sim;
  // 4 slots, long threshold 12 h, cap 0.6 -> at most floor(2.4) = 2 long
  // jobs run.
  LsfScheduler sched{sim, config(4, 100.0)};
  for (int i = 0; i < 4; ++i) {
    sched.submit(job("a", 50.0, 60.0), {});
  }
  EXPECT_EQ(sched.busy_slots(), 2);  // cap holds 2 long jobs back
  sched.submit(job("a", 1.0, 2.0), {});
  EXPECT_EQ(sched.busy_slots(), 3);  // short job flows past the cap
}

TEST(Lsf, EnforcesWalltime) {
  sim::Simulation sim;
  LsfScheduler sched{sim, config(1)};
  JobOutcome out;
  sched.submit(job("a", 5.0, 1.0), [&](const JobOutcome& o) { out = o; });
  sim.run();
  EXPECT_EQ(out.state, JobState::kKilledWalltime);
}

}  // namespace
}  // namespace grid3::batch
