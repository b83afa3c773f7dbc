#include "sim/fault.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace psn::sim {
namespace {

using psn::time_literals::operator""_ms;
using psn::time_literals::operator""_s;

TEST(FaultPlanParseTest, EmptySpecIsEmptyPlan) {
  EXPECT_TRUE(parse_fault_plan("").empty());
  EXPECT_TRUE(parse_fault_plan("  ;  ; ").empty());
}

TEST(FaultPlanParseTest, ParsesEveryVerb) {
  const FaultPlan plan = parse_fault_plan(
      "crash:2@10+5; cut:1-3@20+4 ;drift:4@0.5+1.25:-40");
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0].pid, 2u);
  EXPECT_EQ(plan.crashes[0].begin, SimTime::from_seconds(10));
  EXPECT_EQ(plan.crashes[0].end, SimTime::from_seconds(15));
  ASSERT_EQ(plan.partitions.size(), 1u);
  EXPECT_EQ(plan.partitions[0].a, 1u);
  EXPECT_EQ(plan.partitions[0].b, 3u);
  EXPECT_EQ(plan.partitions[0].begin, SimTime::from_seconds(20));
  EXPECT_EQ(plan.partitions[0].end, SimTime::from_seconds(24));
  ASSERT_EQ(plan.clock_faults.size(), 1u);
  EXPECT_EQ(plan.clock_faults[0].pid, 4u);
  EXPECT_EQ(plan.clock_faults[0].begin, SimTime::from_seconds(0.5));
  EXPECT_EQ(plan.clock_faults[0].end, SimTime::from_seconds(1.75));
  EXPECT_EQ(plan.clock_faults[0].extra_drift_ppm, -40);
}

TEST(FaultPlanParseTest, RejectsMalformedClauses) {
  EXPECT_THROW(parse_fault_plan("crash"), ConfigError);          // no ':'
  EXPECT_THROW(parse_fault_plan("crash:2"), ConfigError);        // no '@'
  EXPECT_THROW(parse_fault_plan("crash:2@10"), ConfigError);     // no '+'
  EXPECT_THROW(parse_fault_plan("crash:x@10+5"), ConfigError);   // bad pid
  EXPECT_THROW(parse_fault_plan("crash:2@10+0"), ConfigError);   // zero dur
  EXPECT_THROW(parse_fault_plan("crash:2@-1+5"), ConfigError);   // negative
  EXPECT_THROW(parse_fault_plan("cut:1@10+5"), ConfigError);     // no '-'
  EXPECT_THROW(parse_fault_plan("drift:1@10+5"), ConfigError);   // no ppm
  EXPECT_THROW(parse_fault_plan("melt:1@10+5"), ConfigError);    // bad verb
  EXPECT_THROW(parse_fault_plan("drift:1@1+1:99999999999999999999"),
               ConfigError);  // ppm beyond int64
  // Times must be finite and below 2^63 ns, the window end included.
  EXPECT_THROW(parse_fault_plan("crash:2@inf+4"), ConfigError);
  EXPECT_THROW(parse_fault_plan("crash:2@nan+4"), ConfigError);
  EXPECT_THROW(parse_fault_plan("crash:2@1e300+4"), ConfigError);
  EXPECT_THROW(parse_fault_plan("crash:2@5+1e300"), ConfigError);
  EXPECT_THROW(parse_fault_plan("crash:2@9e9+9e9"), ConfigError);
}

TEST(FaultScheduleTest, ValidationRejectsNonsense) {
  // The root/back-end (process 0) is mains-powered by convention.
  EXPECT_THROW(FaultSchedule(parse_fault_plan("crash:0@1+1")), ConfigError);
  EXPECT_THROW(FaultSchedule(parse_fault_plan("cut:3-3@1+1")), ConfigError);
  EXPECT_THROW(FaultSchedule(parse_fault_plan("drift:1@1+1:0")), ConfigError);
  // Overlapping windows on the same pid / edge.
  EXPECT_THROW(FaultSchedule(parse_fault_plan("crash:2@1+4;crash:2@3+4")),
               ConfigError);
  EXPECT_THROW(FaultSchedule(parse_fault_plan("cut:1-2@1+4;cut:2-1@3+4")),
               ConfigError);
  // Touching windows ([1,5) then [5,9)) are fine.
  EXPECT_NO_THROW(FaultSchedule(parse_fault_plan("crash:2@1+4;crash:2@5+4")));
}

TEST(FaultScheduleTest, DownIsHalfOpenPerWindow) {
  const FaultSchedule sched(parse_fault_plan("crash:2@10+5;crash:2@20+1"));
  EXPECT_FALSE(sched.down(2, SimTime::from_seconds(9.999)));
  EXPECT_TRUE(sched.down(2, SimTime::from_seconds(10)));   // begin inclusive
  EXPECT_TRUE(sched.down(2, SimTime::from_seconds(14.999)));
  EXPECT_FALSE(sched.down(2, SimTime::from_seconds(15)));  // end exclusive
  EXPECT_TRUE(sched.down(2, SimTime::from_seconds(20.5)));
  EXPECT_FALSE(sched.down(2, SimTime::from_seconds(21)));
  // Other pids never down.
  EXPECT_FALSE(sched.down(1, SimTime::from_seconds(12)));
  EXPECT_FALSE(sched.down(3, SimTime::from_seconds(12)));
}

TEST(FaultScheduleTest, DriftOffsetAccumulatesOverlapOnly) {
  // +100 ppm over [10s, 20s): 1 ms gained over the full window.
  const FaultSchedule sched(parse_fault_plan("drift:3@10+10:100"));
  EXPECT_EQ(sched.drift_offset(3, SimTime::from_seconds(10)), Duration::zero());
  EXPECT_EQ(sched.drift_offset(3, SimTime::from_seconds(15)),
            Duration::micros(500));
  EXPECT_EQ(sched.drift_offset(3, SimTime::from_seconds(20)), 1_ms);
  // After the window the offset persists (the clock jumped, it does not
  // jump back).
  EXPECT_EQ(sched.drift_offset(3, SimTime::from_seconds(60)), 1_ms);
  EXPECT_EQ(sched.drift_offset(2, SimTime::from_seconds(60)), Duration::zero());
}

TEST(FaultScheduleTest, PartitionTransitionsAndEpochs) {
  const FaultSchedule sched(parse_fault_plan("cut:1-2@10+5;cut:0-3@12+1"));
  const auto& trs = sched.partition_transitions();
  ASSERT_EQ(trs.size(), 4u);
  EXPECT_EQ(trs[0].at, SimTime::from_seconds(10));
  EXPECT_TRUE(trs[0].cut);
  EXPECT_EQ(trs[1].at, SimTime::from_seconds(12));
  EXPECT_EQ(trs[1].a, 0u);
  EXPECT_EQ(trs[2].at, SimTime::from_seconds(13));
  EXPECT_FALSE(trs[2].cut);
  EXPECT_EQ(trs[3].at, SimTime::from_seconds(15));

  EXPECT_EQ(sched.partition_epoch(SimTime::from_seconds(9)), 0u);
  EXPECT_EQ(sched.partition_epoch(SimTime::from_seconds(10)), 1u);
  EXPECT_EQ(sched.partition_epoch(SimTime::from_seconds(12.5)), 2u);
  EXPECT_EQ(sched.partition_epoch(SimTime::from_seconds(100)), 4u);
}

TEST(FaultScheduleTest, BackToBackWindowsLeaveEdgeCutAtTheSeam) {
  // [10,11) then [11,12): at t=11 the heal must sort before the cut so a
  // transport replaying transitions in order ends with the edge still cut.
  const FaultSchedule sched(parse_fault_plan("cut:1-2@10+1;cut:1-2@11+1"));
  const auto& trs = sched.partition_transitions();
  ASSERT_EQ(trs.size(), 4u);
  EXPECT_EQ(trs[1].at, SimTime::from_seconds(11));
  EXPECT_FALSE(trs[1].cut);  // heal of the first window...
  EXPECT_EQ(trs[2].at, SimTime::from_seconds(11));
  EXPECT_TRUE(trs[2].cut);  // ...then the cut of the second
}

TEST(FaultScheduleTest, AppendTraceRecordsRespectsHorizon) {
  const FaultSchedule sched(
      parse_fault_plan("crash:2@10+5;cut:1-3@20+100;drift:4@1+1:50"));
  const SimTime past_horizon = SimTime::from_seconds(60) + Duration::nanos(1);
  std::vector<TraceRecord> out;
  sched.append_trace_records(out, SimTime::zero(), past_horizon);
  // crash@10, restart@15, partition@20; heal@120 is past the horizon and the
  // drift window emits no records (it is compensated, not an outage).
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].kind, TraceKind::kCrash);
  EXPECT_EQ(out[0].pid, 2u);
  EXPECT_EQ(out[0].seq, 0u);
  EXPECT_EQ(out[1].kind, TraceKind::kRestart);
  EXPECT_EQ(out[1].at, SimTime::from_seconds(15));
  EXPECT_EQ(out[2].kind, TraceKind::kPartition);
  EXPECT_EQ(out[2].pid, 1u);
  EXPECT_EQ(out[2].peer, 3u);

  // Windows split at an instant: [0, 15 s) holds the crash, [15 s, past
  // the horizon) the restart at 15 s and the partition.
  std::vector<TraceRecord> early;
  std::vector<TraceRecord> late;
  sched.append_trace_records(early, SimTime::zero(), SimTime::from_seconds(15));
  sched.append_trace_records(late, SimTime::from_seconds(15), past_horizon);
  ASSERT_EQ(early.size(), 1u);
  EXPECT_EQ(early[0].kind, TraceKind::kCrash);
  ASSERT_EQ(late.size(), 2u);
  EXPECT_EQ(late[0].kind, TraceKind::kRestart);
  EXPECT_EQ(late[1].kind, TraceKind::kPartition);
}

}  // namespace
}  // namespace psn::sim
