// StreamChecker tests: batch/stream equivalence (the redesign's core
// guarantee), bounded retained state under a long synthetic stream, the
// validity-horizon contract, and trace-only structural checking — the soak
// server's mode.

#include "check/stream_checker.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "check/check.hpp"
#include "core/sharded_system.hpp"
#include "net/message.hpp"
#include "support/periodic_arrivals.hpp"
#include "world/generators.hpp"

namespace psn::check {
namespace {

using namespace psn::time_literals;

/// Same shape as check_test's clean run — strobes, computation edges,
/// internal events — but parameterized on the wire clock mode.
RunInputs traced_run(net::ClockMode mode, std::uint64_t seed = 7) {
  core::ShardedSystemConfig config;
  core::SystemConfig& cfg = config.base;
  cfg.num_sensors = 3;
  cfg.sim.seed = seed;
  cfg.sim.horizon = SimTime::zero() + 10_s;
  cfg.sim.trace_capacity = std::size_t{1} << 14;
  cfg.delta = 20_ms;
  cfg.clock_mode = mode;
  core::ShardedPervasiveSystem system(config);

  std::vector<std::unique_ptr<world::AttributeDriver>> drivers;
  for (ProcessId pid = 1; pid < system.num_processes(); ++pid) {
    const auto obj =
        system.world().create_object("obj_" + std::to_string(pid));
    system.world().object(obj).set_attribute("count", std::int64_t{0});
    system.assign(obj, "count", pid);
    drivers.push_back(std::make_unique<world::AttributeDriver>(
        system.world(), obj, "count",
        std::make_unique<test_support::PeriodicArrivals>(800_ms, 50_ms),
        std::make_unique<world::CounterValue>(),
        system.sim().rng_for("driver", pid)));
    drivers.back()->start();
  }
  for (int k = 0; k < 6; ++k) {
    const auto src = static_cast<ProcessId>(1 + k % 3);
    const auto dst = static_cast<ProcessId>(1 + (k + 1) % 3);
    system.sim().scheduler().schedule_at(
        SimTime::zero() + Duration::millis(1500 + 700 * k),
        [&system, src, dst] { system.sensor(src).send_computation(dst, "t"); });
    system.sim().scheduler().schedule_at(
        SimTime::zero() + Duration::millis(1700 + 700 * k),
        [&system, src] { system.sensor(src).compute(); });
  }
  system.run();
  return inputs_from(system, system.trace_records());
}

/// Record-by-record streaming replay with the exact configuration check_run
/// uses internally (unbounded retention).
CheckReport stream_report(const RunInputs& in, const CheckOptions& opt = {}) {
  StreamCheckerConfig cfg;
  cfg.num_processes = in.num_processes;
  cfg.sync_epsilon = in.sync_epsilon;
  cfg.drifting = in.drifting;
  cfg.options = opt;
  cfg.executions = &in.executions;
  StreamChecker checker(cfg);
  for (const sim::TraceRecord& r : in.trace) checker.feed(r);
  return checker.finish();
}

sim::TraceRecord sense_record(SimTime at, ProcessId pid, std::uint64_t seq) {
  sim::TraceRecord r;
  r.at = at;
  r.kind = sim::TraceKind::kSense;
  r.pid = pid;
  r.seq = seq;
  return r;
}

sim::TraceRecord deliver_record(SimTime at, ProcessId pid,
                                std::uint64_t seq) {
  sim::TraceRecord r;
  r.at = at;
  r.kind = sim::TraceKind::kDeliver;
  r.pid = pid;
  r.message_kind = static_cast<int>(net::MessageKind::kStrobe);
  r.seq = seq;
  return r;
}

class StreamEquivalenceTest : public ::testing::TestWithParam<net::ClockMode> {
};

TEST_P(StreamEquivalenceTest, BatchAndStreamReportsAreByteIdentical) {
  const RunInputs inputs = traced_run(GetParam());
  ASSERT_FALSE(inputs.trace.empty());
  const CheckReport batch = check_run(inputs);
  const CheckReport stream = stream_report(inputs);
  EXPECT_TRUE(batch.clean()) << batch.summary();
  EXPECT_EQ(batch.summary(), stream.summary());
  EXPECT_EQ(batch.verdict, stream.verdict);
  EXPECT_EQ(batch.total_violations(), stream.total_violations());
}

TEST_P(StreamEquivalenceTest, EquivalentOnCorruptedRunsToo) {
  RunInputs inputs = traced_run(GetParam());
  // Corrupt one vector stamp and one Lamport value so several contracts
  // fire; equivalence must hold for violating reports as well.
  bool corrupted = false;
  for (auto& execution : inputs.executions) {
    for (auto& e : execution) {
      if (e.type == core::EventType::kSense) {
        e.clocks.lamport.value = 0;
        if (!e.clocks.causal_vector.size()) continue;
        e.clocks.causal_vector[0] += 5;
        corrupted = true;
        break;
      }
    }
    if (corrupted) break;
  }
  ASSERT_TRUE(corrupted);
  const CheckReport batch = check_run(inputs);
  const CheckReport stream = stream_report(inputs);
  EXPECT_FALSE(batch.clean());
  EXPECT_EQ(batch.summary(), stream.summary());
}

INSTANTIATE_TEST_SUITE_P(AllClockModes, StreamEquivalenceTest,
                         ::testing::Values(net::ClockMode::kScalarStrobe,
                                           net::ClockMode::kVectorStrobe,
                                           net::ClockMode::kPhysical),
                         [](const auto& mode_info) {
                           return std::string(net::to_string(mode_info.param));
                         });

TEST(StreamCheckerTest, FeedSurfacesViolationsAsTheyAreWitnessed) {
  const RunInputs inputs = traced_run(net::ClockMode::kVectorStrobe);
  StreamCheckerConfig cfg;
  cfg.num_processes = inputs.num_processes;
  cfg.sync_epsilon = inputs.sync_epsilon;
  cfg.drifting = inputs.drifting;
  cfg.executions = &inputs.executions;
  StreamChecker checker(cfg);
  bool saw_violation = false;
  for (sim::TraceRecord r : inputs.trace) {
    if (r.kind == sim::TraceKind::kDeliver &&
        r.message_kind == static_cast<int>(net::MessageKind::kStrobe)) {
      r.seq = 999999;  // delivery from a sense the checker never saw
    }
    const auto v = checker.feed(r);
    if (v.has_value()) {
      saw_violation = true;
      EXPECT_EQ(v->kind, ViolationKind::kUnmatchedDeliver);
      break;
    }
  }
  EXPECT_TRUE(saw_violation);
}

TEST(StreamCheckerTest, BoundedRetentionUnderMillionRecordStream) {
  // Trace-only soak: 10^6 records of sense->deliver strobe traffic. With a
  // 1 s retention window and 1 ms spacing the retained working set must
  // stay around one window's worth of entries — independent of how long
  // the stream runs.
  StreamCheckerConfig cfg;
  cfg.send_retention = Duration::seconds(1);
  StreamChecker checker(cfg);
  constexpr std::size_t kPairs = 500000;
  std::size_t peak = 0;
  for (std::size_t i = 0; i < kPairs; ++i) {
    const SimTime at =
        SimTime::zero() + Duration::millis(static_cast<std::int64_t>(i));
    const std::uint64_t seq = i + 1;
    EXPECT_FALSE(checker.feed(sense_record(at, 1, seq)).has_value());
    EXPECT_FALSE(checker.feed(deliver_record(at, 0, seq)).has_value());
    peak = std::max(peak, checker.pending_sends());
  }
  EXPECT_EQ(checker.records_fed(), 2 * kPairs);
  // One window is 1000 entries at this rate; allow slack, but it must be
  // nowhere near the million-record stream length.
  EXPECT_LE(peak, 1100u);
  const CheckReport report = checker.finish();
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(StreamCheckerTest, ExpiredValidityHorizonIsFlagged) {
  StreamCheckerConfig cfg;
  cfg.options.validity_horizon.lifetime = Duration::millis(10);
  StreamChecker checker(cfg);
  ASSERT_FALSE(
      checker.feed(sense_record(SimTime::zero(), 1, 1)).has_value());
  // Delivered within the horizon: fine.
  ASSERT_FALSE(checker
                   .feed(deliver_record(SimTime::zero() + 5_ms, 0, 1))
                   .has_value());
  ASSERT_FALSE(
      checker.feed(sense_record(SimTime::zero() + 20_ms, 1, 2)).has_value());
  // Delivered 30 ms after the sense with a 10 ms lifetime: stale.
  const auto v = checker.feed(deliver_record(SimTime::zero() + 50_ms, 0, 2));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->kind, ViolationKind::kStaleObservation);
  EXPECT_EQ(checker.stale_observations(), 1u);

  const CheckReport report = checker.finish();
  ASSERT_NE(report.contract("validity-horizon"), nullptr);
  EXPECT_EQ(report.contract("validity-horizon")->violations_total, 1u);
  EXPECT_EQ(report.verdict, Verdict::kViolations);
}

TEST(StreamCheckerTest, ValidityContractOnlyJoinsReportWhenBounded) {
  const RunInputs inputs = traced_run(net::ClockMode::kVectorStrobe);
  const CheckReport unbounded = check_run(inputs);
  EXPECT_EQ(unbounded.contract("validity-horizon"), nullptr);

  CheckOptions options;
  options.validity_horizon.lifetime = Duration::seconds(30);
  const CheckReport bounded = check_run(inputs, options);
  ASSERT_NE(bounded.contract("validity-horizon"), nullptr);
  EXPECT_GT(bounded.contract("validity-horizon")->events_checked, 0u);
  EXPECT_EQ(bounded.contract("validity-horizon")->violations_total, 0u);
  EXPECT_TRUE(bounded.clean()) << bounded.summary();
}

TEST(StreamCheckerTest, TraceOnlyModeCatchesUnknownDeliver) {
  StreamCheckerConfig cfg;  // no executions, unknown topology
  StreamChecker checker(cfg);
  const auto v = checker.feed(deliver_record(SimTime::zero() + 1_ms, 2, 42));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->kind, ViolationKind::kUnmatchedDeliver);
  const CheckReport report = checker.finish();
  EXPECT_EQ(report.verdict, Verdict::kViolations);
}

sim::TraceRecord fault_record(SimTime at, sim::TraceKind kind, ProcessId pid,
                              ProcessId peer = kNoProcess) {
  sim::TraceRecord r;
  r.at = at;
  r.kind = kind;
  r.pid = pid;
  r.peer = peer;
  r.seq = 0;
  return r;
}

TEST(StreamCheckerFaultTest, FaultContractOnlyJoinsReportWhenFaultsSeen) {
  StreamCheckerConfig cfg;
  {
    StreamChecker checker(cfg);
    checker.feed(sense_record(SimTime::zero(), 1, 1));
    const CheckReport report = checker.finish();
    EXPECT_EQ(report.contract("fault-model"), nullptr);
  }
  {
    StreamChecker checker(cfg);
    checker.feed(
        fault_record(SimTime::zero(), sim::TraceKind::kCrash, 2));
    checker.feed(
        fault_record(SimTime::zero() + 1_s, sim::TraceKind::kRestart, 2));
    const CheckReport report = checker.finish();
    ASSERT_NE(report.contract("fault-model"), nullptr);
    EXPECT_EQ(report.contract("fault-model")->violations_total, 0u);
    EXPECT_TRUE(report.clean()) << report.summary();
  }
}

TEST(StreamCheckerFaultTest, MalformedPairingsAreFlagged) {
  StreamCheckerConfig cfg;
  {  // crash while already down
    StreamChecker checker(cfg);
    checker.feed(fault_record(SimTime::zero(), sim::TraceKind::kCrash, 2));
    const auto v = checker.feed(
        fault_record(SimTime::zero() + 1_ms, sim::TraceKind::kCrash, 2));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->kind, ViolationKind::kFaultPairing);
  }
  {  // restart without a crash
    StreamChecker checker(cfg);
    const auto v =
        checker.feed(fault_record(SimTime::zero(), sim::TraceKind::kRestart, 2));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->kind, ViolationKind::kFaultPairing);
  }
  {  // double cut of one edge (either orientation)
    StreamChecker checker(cfg);
    checker.feed(
        fault_record(SimTime::zero(), sim::TraceKind::kPartition, 1, 3));
    const auto v = checker.feed(
        fault_record(SimTime::zero() + 1_ms, sim::TraceKind::kPartition, 3, 1));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->kind, ViolationKind::kFaultPairing);
  }
  {  // heal of an edge that was never cut
    StreamChecker checker(cfg);
    const auto v =
        checker.feed(fault_record(SimTime::zero(), sim::TraceKind::kHeal, 1, 2));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->kind, ViolationKind::kFaultPairing);
  }
}

TEST(StreamCheckerFaultTest, ActivityInsideACrashWindowIsFlagged) {
  StreamCheckerConfig cfg;
  StreamChecker checker(cfg);
  checker.feed(fault_record(SimTime::zero(), sim::TraceKind::kCrash, 1));
  // A sense from the downed process: impossible, it is not running.
  const auto v1 = checker.feed(sense_record(SimTime::zero() + 1_ms, 1, 1));
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(v1->kind, ViolationKind::kActivityWhileDown);
  // A delivery *to* a downed process: the transport must have dropped it.
  checker.feed(sense_record(SimTime::zero() + 2_ms, 2, 7));
  const auto v2 = checker.feed(deliver_record(SimTime::zero() + 3_ms, 1, 7));
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(v2->kind, ViolationKind::kActivityWhileDown);
  // After the restart the same activity is fine again.
  checker.feed(fault_record(SimTime::zero() + 4_ms, sim::TraceKind::kRestart, 1));
  EXPECT_FALSE(checker.feed(sense_record(SimTime::zero() + 5_ms, 1, 2))
                   .has_value());
  const CheckReport report = checker.finish();
  ASSERT_NE(report.contract("fault-model"), nullptr);
  EXPECT_EQ(report.contract("fault-model")->violations_total, 2u);
}

TEST(StreamCheckerTest, EvictedRingRefusalIsATraceWindowError) {
  RunInputs inputs = traced_run(net::ClockMode::kVectorStrobe);
  inputs.trace_evicted = 17;
  // The dedicated subtype lets psn_cli exit distinctly; it still is a
  // ConfigError so existing catch sites keep working.
  EXPECT_THROW(check_run(inputs), TraceWindowError);
  EXPECT_THROW(check_run(inputs), ConfigError);
}

}  // namespace
}  // namespace psn::check
