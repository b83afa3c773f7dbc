#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace psn::sim {
namespace {

using namespace psn::time_literals;

SimTime at(std::int64_t ms) { return SimTime::zero() + Duration::millis(ms); }

TEST(SchedulerTest, RunsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(at(30), [&] { order.push_back(3); });
  s.schedule_at(at(10), [&] { order.push_back(1); });
  s.schedule_at(at(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), at(30));
}

TEST(SchedulerTest, FifoTieBreakAtEqualTimes) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(at(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SchedulerTest, CallbackMaySchedule) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(at(1), [&] {
    order.push_back(1);
    s.schedule_after(Duration::millis(1), [&] { order.push_back(2); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.now(), at(2));
}

TEST(SchedulerTest, SameInstantSelfScheduleRunsAfterQueued) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(at(1), [&] {
    order.push_back(1);
    s.schedule_after(Duration::zero(), [&] { order.push_back(3); });
  });
  s.schedule_at(at(1), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerTest, RunUntilBeforeStopsExclusive) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(at(10), [&] { order.push_back(1); });
  s.schedule_at(at(20), [&] { order.push_back(2); });
  s.schedule_at(at(30), [&] { order.push_back(3); });
  EXPECT_EQ(s.run_until_before(at(20)), 1u);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(s.now(), at(10));  // left at the last event, not the fence
  EXPECT_EQ(s.next_time(), at(20));
  EXPECT_EQ(s.run_until_before(at(31)), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerTest, NextTimeEmpty) {
  Scheduler s;
  EXPECT_EQ(s.next_time(), SimTime::max());
}

TEST(SchedulerTest, StepReturnsFalseWhenDrained) {
  Scheduler s;
  EXPECT_FALSE(s.step());
  s.schedule_at(at(1), [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(SchedulerTest, RunWithEventCap) {
  Scheduler s;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(at(i), [&] { count++; });
  }
  EXPECT_EQ(s.run(4), 4u);
  EXPECT_EQ(count, 4);
  EXPECT_EQ(s.pending(), 6u);
}

TEST(SchedulerTest, RejectsPastScheduling) {
  Scheduler s;
  s.schedule_at(at(10), [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(at(5), [] {}), InvariantError);
  EXPECT_THROW(s.schedule_after(-1_ms, [] {}), InvariantError);
}

TEST(SchedulerTest, RejectsNullCallback) {
  Scheduler s;
  EXPECT_THROW(s.schedule_at(at(1), Scheduler::Callback{}), InvariantError);
}

TEST(SchedulerTest, TotalExecutedCountsAcrossRuns) {
  Scheduler s;
  s.schedule_at(at(1), [] {});
  s.schedule_at(at(2), [] {});
  s.run();
  EXPECT_EQ(s.total_executed(), 2u);
}

TEST(SchedulerSlabTest, CallbackBeyondInlineCapacityStillRuns) {
  // The slab's inline buffer is a fast path, not a capacity limit: a closure
  // past kCallbackInlineBytes falls back to a heap cell transparently.
  struct Big {
    std::array<char, Scheduler::kCallbackInlineBytes + 8> pad;
  };
  static_assert(Scheduler::Callback::stores_inline<decltype([] {})>());
  Scheduler s;
  int seen = 0;
  Big big{};
  big.pad[0] = 3;
  auto fat = [&seen, big] { seen = big.pad[0]; };
  static_assert(!Scheduler::Callback::stores_inline<decltype(fat)>());
  s.schedule_at(at(1), std::move(fat));
  s.run();
  EXPECT_EQ(seen, 3);
}

TEST(SchedulerSlabTest, SlotsRecycleUnderSteadyChurn) {
  // A bounded schedule/fire cycle must reuse slab slots rather than grow:
  // massive churn leaves the calendar empty with every event fired once.
  Scheduler s;
  s.schedule_at(at(1), [] {});
  s.run();
  std::size_t fired = 0;
  for (int round = 0; round < 1000; ++round) {
    s.schedule_after(Duration::millis(1), [&fired] { fired++; });
    s.run();
  }
  EXPECT_EQ(fired, 1000u);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerOrderTest, OutOfOrderInsertsMergeDeterministically) {
  // Exercises the monotone-run/overflow-heap split: in-order appends land in
  // the run, earlier times land in the heap, and the merged execution order
  // is still globally (time, seq).
  Scheduler s;
  std::vector<int> order;
  auto push = [&order](int v) { return [&order, v] { order.push_back(v); }; };
  s.schedule_at(at(20), push(0));  // run
  s.schedule_at(at(10), push(1));  // heap (before run tail)
  s.schedule_at(at(20), push(2));  // run again (ties with 0, after it)
  s.schedule_at(at(15), push(3));  // heap
  s.schedule_at(at(10), push(4));  // heap (ties with 1, after it)
  s.schedule_at(at(30), push(5));  // run
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 4, 3, 0, 2, 5}));
}

TEST(SchedulerOrderTest, RunRecyclesAfterDrainDuringExecution) {
  // Once the calendar drains mid-run, later schedules start a fresh monotone
  // run; times smaller than the *old* run tail must not be misplaced.
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(at(100), [&] {
    order.push_back(1);
    // Calendar is empty here; this starts a new run at an earlier-than-ever
    // absolute ordering position relative to the old tail.
    s.schedule_after(Duration::millis(1), [&] { order.push_back(2); });
  });
  s.run();
  s.schedule_at(at(102), [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), at(102));
}

TEST(SchedulerTest, RunawaySelfReschedulerStopsAtCap) {
  // Regression for the max_events/cap interplay: a callback that reschedules
  // itself at the current instant would otherwise run run() to SIZE_MAX.
  Scheduler s;
  std::size_t fired = 0;
  std::function<void()> runaway = [&] {
    fired++;
    s.schedule_at(s.now(), runaway);
  };
  s.schedule_at(at(1), runaway);
  EXPECT_EQ(s.run(500), 500u);
  EXPECT_EQ(fired, 500u);
  EXPECT_EQ(s.pending(), 1u);  // the runaway is still queued, not lost
  EXPECT_EQ(s.run(250), 250u);  // and a later run resumes from the cap
  EXPECT_EQ(fired, 750u);
}

}  // namespace
}  // namespace psn::sim
