// Unit tests for the discrete-event kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "sim/simulation.h"

namespace grid3::sim {
namespace {

TEST(Simulation, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(Time::seconds(3), [&] { order.push_back(3); });
  sim.schedule_at(Time::seconds(1), [&] { order.push_back(1); });
  sim.schedule_at(Time::seconds(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Time::seconds(3));
}

TEST(Simulation, SameInstantFiresInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(Time::seconds(1), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, ScheduleInIsRelative) {
  Simulation sim;
  Time fired;
  sim.schedule_at(Time::seconds(5), [&] {
    sim.schedule_in(Time::seconds(10), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, Time::seconds(15));
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  const EventId id = sim.schedule_at(Time::seconds(1), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(sim.cancel(id + 100));  // unknown id
}

TEST(Simulation, RunUntilStopsAtBoundaryInclusive) {
  Simulation sim;
  int count = 0;
  sim.schedule_at(Time::seconds(1), [&] { ++count; });
  sim.schedule_at(Time::seconds(2), [&] { ++count; });
  sim.schedule_at(Time::seconds(3), [&] { ++count; });
  sim.run_until(Time::seconds(2));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), Time::seconds(2));
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulation, RunUntilAdvancesClockWithNoEvents) {
  Simulation sim;
  sim.run_until(Time::hours(5));
  EXPECT_EQ(sim.now(), Time::hours(5));
}

TEST(Simulation, EventsScheduledDuringExecutionRun) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_in(Time::seconds(1), recurse);
  };
  sim.schedule_in(Time::seconds(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.executed(), 5u);
}

TEST(Simulation, PendingCountsUncancelled) {
  Simulation sim;
  const EventId a = sim.schedule_at(Time::seconds(1), [] {});
  sim.schedule_at(Time::seconds(2), [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulation, CancelRefusesAlreadyFiredIds) {
  Simulation sim;
  const EventId id = sim.schedule_at(Time::seconds(1), [] {});
  sim.run();
  // The id is gone from the live set; cancelling it must not park a
  // tombstone in the cancelled set.
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.cancel_backlog(), 0u);
}

TEST(Simulation, CancelBacklogStaysBoundedByPending) {
  // A long campaign of schedule+cancel churn: the cancelled set must
  // track only still-pending entries (O(pending) bookkeeping), never
  // accumulate ids that have already been popped or settled out.
  Simulation sim;
  for (int round = 0; round < 100; ++round) {
    std::vector<EventId> ids;
    for (int i = 0; i < 10; ++i) {
      ids.push_back(sim.schedule_in(Time::seconds(1), [] {}));
    }
    for (size_t i = 0; i < ids.size(); i += 2) sim.cancel(ids[i]);
    EXPECT_LE(sim.cancel_backlog(), sim.pending() + 5u);  // the 5 cancelled
    sim.run();
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_EQ(sim.cancel_backlog(), 0u);  // drained with the queue
  }
  EXPECT_EQ(sim.executed(), 500u);
}

TEST(Simulation, RunUntilStopsAtHorizonWhenFrontIsCancelled) {
  // A cancelled entry sitting on the heap front past the horizon must
  // not drag the clock beyond `t`.
  Simulation sim;
  const EventId late = sim.schedule_at(Time::seconds(10), [] {});
  sim.cancel(late);
  sim.run_until(Time::seconds(5));
  EXPECT_EQ(sim.now(), Time::seconds(5));
  EXPECT_EQ(sim.executed(), 0u);
}

TEST(Simulation, EventExactlyAtHorizonFires) {
  Simulation sim;
  bool at_horizon = false;
  bool past_horizon = false;
  sim.schedule_at(Time::seconds(5), [&] { at_horizon = true; });
  sim.schedule_at(Time::seconds(5) + Time::micros(1),
                  [&] { past_horizon = true; });
  sim.run_until(Time::seconds(5));
  EXPECT_TRUE(at_horizon);
  EXPECT_FALSE(past_horizon);
  EXPECT_EQ(sim.now(), Time::seconds(5));
}

TEST(Simulation, CancelDuringCallbackStopsSameInstantSibling) {
  // An event cancelling its same-timestamp sibling from inside its own
  // callback: the sibling is already in the queue at the front instant
  // and must not fire.
  Simulation sim;
  bool sibling_fired = false;
  EventId sibling = 0;
  sim.schedule_at(Time::seconds(1), [&] { sim.cancel(sibling); });
  sibling = sim.schedule_at(Time::seconds(1), [&] { sibling_fired = true; });
  sim.run();
  EXPECT_FALSE(sibling_fired);
  EXPECT_EQ(sim.executed(), 1u);
  EXPECT_EQ(sim.cancel_backlog(), 0u);
}

TEST(Simulation, EnumerateReadyListsFrontInstantSortedById) {
  Simulation sim;
  const EventId a = sim.schedule_at(Time::seconds(1), [] {});
  const EventId b = sim.schedule_at(Time::seconds(1), [] {});
  sim.schedule_at(Time::seconds(2), [] {});  // not at the front instant
  const EventId d = sim.schedule_at(Time::seconds(1), [] {});
  sim.cancel(d);  // cancelled events are not ready

  ASSERT_TRUE(sim.next_time().has_value());
  EXPECT_EQ(*sim.next_time(), Time::seconds(1));
  const auto ready = sim.enumerate_ready();
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_EQ(ready[0].id, a);
  EXPECT_EQ(ready[1].id, b);
  EXPECT_LT(ready[0].id, ready[1].id);
}

TEST(Simulation, StepEventPermutesOnlyTheFrontInstant) {
  Simulation sim;
  std::vector<int> order;
  const EventId a = sim.schedule_at(Time::seconds(1), [&] { order.push_back(0); });
  const EventId b = sim.schedule_at(Time::seconds(1), [&] { order.push_back(1); });
  const EventId later = sim.schedule_at(Time::seconds(2), [&] { order.push_back(2); });

  EXPECT_FALSE(sim.step_event(later));     // not at next_time(): refused
  EXPECT_FALSE(sim.step_event(99999));     // unknown id: refused
  EXPECT_TRUE(sim.step_event(b));          // permuted ahead of a
  EXPECT_TRUE(sim.step_event(a));
  EXPECT_FALSE(sim.step_event(a));         // already fired
  EXPECT_TRUE(sim.step_event(later));      // now at the front
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
  EXPECT_EQ(sim.now(), Time::seconds(2));
}

TEST(Simulation, StepEventKeepsSameActorScheduleOrderStable) {
  // The checker only ever fires the lowest-id head per actor, so firing
  // front events in id order must reproduce exactly what step() does.
  Simulation a_sim;
  Simulation b_sim;
  std::vector<int> via_step;
  std::vector<int> via_step_event;
  const auto seed = [](Simulation& s, std::vector<int>& order) {
    for (int i = 0; i < 5; ++i) {
      s.schedule_at(Time::seconds(1), [&order, i] { order.push_back(i); });
    }
  };
  seed(a_sim, via_step);
  seed(b_sim, via_step_event);
  a_sim.run();
  while (b_sim.next_time().has_value()) {
    const auto ready = b_sim.enumerate_ready();
    ASSERT_FALSE(ready.empty());
    EXPECT_TRUE(b_sim.step_event(ready.front().id));  // lowest id first
  }
  EXPECT_EQ(via_step, via_step_event);
}

TEST(Simulation, ScopedTagReplaceAndAppend) {
  Simulation sim;
  std::string inherited;
  {
    Simulation::ScopedTag actor{sim, "job:J"};
    EXPECT_EQ(sim.current_tag(), "job:J");
    {
      Simulation::ScopedTag res{sim, "se:ARCHIVE",
                                Simulation::ScopedTag::kAppend};
      EXPECT_EQ(sim.current_tag(), "job:J|se:ARCHIVE");
      sim.schedule_at(Time::seconds(1), [&] {
        // Tag inheritance: events scheduled while this one executes
        // carry its tag without any explicit ScopedTag.
        inherited = sim.current_tag();
        sim.schedule_in(Time::seconds(1), [] {});
      });
    }
    EXPECT_EQ(sim.current_tag(), "job:J");
  }
  EXPECT_EQ(sim.current_tag(), "");

  const auto ready = sim.enumerate_ready();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].tag, "job:J|se:ARCHIVE");
  sim.run_until(Time::seconds(1));
  EXPECT_EQ(inherited, "job:J|se:ARCHIVE");
  const auto child = sim.enumerate_ready();
  ASSERT_EQ(child.size(), 1u);
  EXPECT_EQ(child[0].tag, "job:J|se:ARCHIVE");  // inherited transitively
}

TEST(Simulation, AppendOnEmptyTagReplaces) {
  Simulation sim;
  Simulation::ScopedTag tag{sim, "rb", Simulation::ScopedTag::kAppend};
  // No ambient actor: the append degenerates to a plain tag rather than
  // producing a leading separator.
  EXPECT_EQ(sim.current_tag(), "rb");
}

// --- ordering and bookkeeping under churn -----------------------------

TEST(Simulation, ChurnFiresInTimeOrderAndSkipsCancelled) {
  // A churn of same-instant events, events up to an hour apart, nested
  // reschedules, and cancels: events fire in non-decreasing time, every
  // uncancelled event fires exactly once, no cancelled one fires, and
  // draining the queue leaves no cancel backlog.
  constexpr std::size_t kEvents = 400;
  Simulation sim;
  std::vector<Time> fired_at;
  std::vector<int> fired(kEvents, 0);
  std::vector<bool> cancelled(kEvents, false);
  std::uint64_t lcg = 42;
  const auto next = [&lcg](std::uint64_t mod) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return (lcg >> 33) % mod;
  };
  std::vector<EventId> ids;
  for (std::size_t i = 0; i < kEvents; ++i) {
    // Coarse 40 s grid spanning 0..1960 s: plenty of same-instant
    // collisions.
    const Time t = Time::seconds(static_cast<double>(next(50)) * 40.0);
    ids.push_back(sim.schedule_at(t, [&sim, &fired_at, &fired, &next, i] {
      fired_at.push_back(sim.now());
      ++fired[i];
      if (next(3) == 0) {
        sim.schedule_in(Time::seconds(static_cast<double>(1 + next(2000))),
                        [&sim, &fired_at] { fired_at.push_back(sim.now()); });
      }
    }));
    if (next(4) == 0) cancelled[i] = true;
  }
  for (std::size_t i = 0; i < kEvents; ++i) {
    if (cancelled[i]) {
      EXPECT_TRUE(sim.cancel(ids[i]));
    }
  }
  sim.run();
  EXPECT_GT(fired_at.size(), 100u);
  EXPECT_TRUE(std::is_sorted(fired_at.begin(), fired_at.end()));
  for (std::size_t i = 0; i < kEvents; ++i) {
    EXPECT_EQ(fired[i], cancelled[i] ? 0 : 1) << "event " << i;
  }
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.cancel_backlog(), 0u);
}

TEST(Simulation, SameInstantFromDifferentInstantsFiresInIdOrder) {
  // Two events for t=2000 s, one scheduled at t=0 and one from inside an
  // event at t=1500 s: the earlier-scheduled (lower id) fires first.
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(Time::seconds(2000), [&] { order.push_back(0); });
  sim.schedule_at(Time::seconds(1500), [&] {
    sim.schedule_at(Time::seconds(2000), [&] { order.push_back(1); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(sim.heap_scheduled(), 3u);
}

TEST(Simulation, RunUntilBoundaryHoldsBackEventsFarBeyondIt) {
  Simulation sim;
  bool near_fired = false;
  bool far_fired = false;
  sim.schedule_at(Time::seconds(500), [&] { near_fired = true; });
  sim.schedule_at(Time::seconds(5000), [&] { far_fired = true; });
  sim.run_until(Time::seconds(500));
  EXPECT_TRUE(near_fired);
  EXPECT_FALSE(far_fired);
  EXPECT_EQ(sim.now(), Time::seconds(500));
  sim.run();
  EXPECT_TRUE(far_fired);
}

TEST(Simulation, CancelBacklogDrainsThroughStaggeredCancelChurn) {
  // 50 rounds of staggered schedule/cancel churn: tombstones are purged
  // as they reach the heap front, and draining the queue always leaves
  // the backlog empty.
  Simulation sim;
  std::uint64_t fired = 0;
  for (int lap = 0; lap < 50; ++lap) {
    std::vector<EventId> ids;
    for (int i = 0; i < 8; ++i) {
      ids.push_back(
          sim.schedule_in(Time::millis(5 + 10 * i), [&] { ++fired; }));
    }
    for (size_t i = 0; i < ids.size(); i += 2) sim.cancel(ids[i]);
    EXPECT_EQ(sim.pending(), 4u);
    EXPECT_EQ(sim.cancel_backlog(), 4u);
    sim.run();
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_EQ(sim.cancel_backlog(), 0u);
  }
  EXPECT_EQ(fired, 50u * 4u);
}

TEST(Simulation, SteeringPermutesEventsScheduledFromDifferentInstants) {
  // enumerate_ready()/step_event() treat every live event at the front
  // instant as one ready set, whenever each was scheduled, and permute
  // within it.
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(Time::seconds(2000), [&] { order.push_back(0); });
  sim.schedule_at(Time::seconds(1999), [&] {
    sim.schedule_at(Time::seconds(2000), [&] { order.push_back(1); });
  });
  sim.run_until(Time::seconds(1999));
  ASSERT_TRUE(sim.next_time().has_value());
  EXPECT_EQ(*sim.next_time(), Time::seconds(2000));
  const auto ready = sim.enumerate_ready();
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_TRUE(sim.step_event(ready[1].id));  // later-scheduled, fired first
  EXPECT_TRUE(sim.step_event(ready[0].id));
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(Simulation, FiredCallbackReleasesItsCapturesWhenItRuns) {
  Simulation sim;
  auto token = std::make_shared<int>(7);
  int seen = 0;
  sim.schedule_in(Time::seconds(1), [token, &seen] { seen = *token; });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(seen, 7);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Simulation, CancelledCallbackReleasesItsCapturesByItsPurge) {
  Simulation sim;
  auto token = std::make_shared<int>(0);
  std::vector<int> order;
  sim.schedule_at(Time::seconds(1), [&] { order.push_back(1); });
  const EventId doomed =
      sim.schedule_at(Time::seconds(2), [token] { ++*token; });
  sim.schedule_at(Time::seconds(3), [&] { order.push_back(3); });
  ASSERT_TRUE(sim.cancel(doomed));
  EXPECT_TRUE(sim.step());  // fires t=1; the cancelled entry is not in front
  EXPECT_EQ(sim.cancel_backlog(), 1u);
  EXPECT_TRUE(sim.step());  // purges t=2, fires t=3
  EXPECT_EQ(sim.cancel_backlog(), 0u);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(*token, 0);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(PeriodicProcess, TicksAtInterval) {
  Simulation sim;
  PeriodicProcess proc{sim, Time::minutes(10), [] { return true; }};
  proc.start();
  sim.run_until(Time::minutes(35));
  EXPECT_EQ(proc.ticks(), 4u);  // fires at t = 0, 10, 20, 30
  proc.stop();
  sim.run_until(Time::hours(2));
  EXPECT_EQ(proc.ticks(), 4u);
}

TEST(PeriodicProcess, StopsWhenTickReturnsFalse) {
  Simulation sim;
  int ticks = 0;
  PeriodicProcess proc{sim, Time::seconds(1), [&] {
                         ++ticks;
                         return ticks < 3;
                       }};
  proc.start(Time::seconds(1));
  sim.run();
  EXPECT_EQ(ticks, 3);
  EXPECT_FALSE(proc.running());
}

TEST(PeriodicProcess, InitialDelayRespected) {
  Simulation sim;
  Time first;
  PeriodicProcess proc{sim, Time::minutes(5), [&] {
                         if (first == Time::zero()) first = sim.now();
                         return false;
                       }};
  proc.start(Time::minutes(2));
  sim.run();
  EXPECT_EQ(first, Time::minutes(2));
}

TEST(PeriodicProcess, DestructorCancelsCleanly) {
  Simulation sim;
  {
    PeriodicProcess proc{sim, Time::seconds(1), [] { return true; }};
    proc.start();
  }
  sim.run_until(Time::seconds(10));  // must not crash / fire
  EXPECT_EQ(sim.executed(), 0u);
}

}  // namespace
}  // namespace grid3::sim
