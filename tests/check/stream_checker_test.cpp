// StreamChecker tests: batch/stream equivalence (the redesign's core
// guarantee), bounded retained state under a long synthetic stream, the
// validity-horizon contract, trace-only structural checking — the soak
// server's mode — and the wire round trip: a trace exported, re-parsed and
// checked trace-only agrees with the bound replay on every contract both
// modes run.

#include "check/stream_checker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/export.hpp"
#include "check/check.hpp"
#include "core/sharded_system.hpp"
#include "net/message.hpp"
#include "serve/session.hpp"
#include "serve/trace_feed.hpp"
#include "sim/fault.hpp"
#include "support/periodic_arrivals.hpp"
#include "world/generators.hpp"
#include "world/scenarios.hpp"

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
  cfg.executions = bind_executions(in.executions);
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
  cfg.executions = bind_executions(inputs.executions);
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
  // One window is 1000 entries at this rate; allow slack, but it must be
  // nowhere near the million-record stream length.
  EXPECT_LE(peak, 1100u);
  const CheckReport report = checker.finish();
  EXPECT_TRUE(report.clean()) << report.summary();
  // Every sense and every delivery is a happens-before endpoint.
  ASSERT_NE(report.contract("hb-graph"), nullptr);
  EXPECT_EQ(report.contract("hb-graph")->events_checked, 2 * kPairs);
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

/// psn_cli check --doors 12 --seconds 120 --loss 0.1 --ge 0.05,0.3,0.01,0.6
///   --faults 'cut:1-3@1+5;crash:2@5+4;crash:5@60+10;cut:2-7@80+20' --seed 2
/// (CheckSummaryGoldenTest.FaultyLossyRunIsClean), built the way
/// analysis::run_occupancy_experiment builds it: the hall's timeline is
/// pre-rolled and replayed into the system. Built here rather than run
/// through the experiment so the claimed executions stay at hand to check
/// a corrupted trace against.
RunInputs faulty_lossy_run() {
  analysis::OccupancyConfig cfg;
  cfg.doors = 12;
  cfg.loss_probability = 0.1;
  cfg.gilbert_elliott =
      core::SystemConfig::GilbertElliottParams{0.05, 0.3, 0.01, 0.6};
  cfg.faults = sim::parse_fault_plan(
      "cut:1-3@1+5;crash:2@5+4;crash:5@60+10;cut:2-7@80+20");
  core::ShardedSystemConfig config;
  core::SystemConfig& sys = config.base;
  static_cast<core::DeploymentConfig&>(sys) = cfg;
  sys.num_sensors = cfg.doors;
  sys.sim.seed = 2;
  sys.sim.horizon = SimTime::zero() + 120_s;
  sys.sim.trace_capacity = 1000000;
  sys.clock_config.sync_epsilon = cfg.sync_epsilon;

  sim::SimConfig pre_cfg;
  pre_cfg.seed = sys.sim.seed;
  pre_cfg.horizon = sys.sim.horizon;
  sim::Simulation pre_sim(pre_cfg);
  world::WorldModel world(pre_sim);
  world::ExhibitionHallConfig hall_cfg;
  hall_cfg.doors = static_cast<int>(cfg.doors);
  hall_cfg.capacity = cfg.capacity;
  hall_cfg.movement_rate = cfg.movement_rate;
  hall_cfg.target_occupancy = static_cast<double>(cfg.capacity);
  hall_cfg.initial_occupancy = cfg.capacity - 10;
  world::ExhibitionHall hall(world, hall_cfg, pre_sim.rng_for("hall"));
  hall.start();
  pre_sim.run();

  core::ShardedPervasiveSystem system(config);
  for (int k = 0; k < hall_cfg.doors; ++k) {
    const auto pid = static_cast<ProcessId>(k + 1);
    system.assign(hall.door_object(k), "entered", pid);
    system.assign(hall.door_object(k), "exited", pid);
  }
  system.set_world_events(world.timeline().events());
  system.run();
  return inputs_from(system, system.trace_records());
}

/// The trace as `psn_cli run --trace | psn_cli serve` checks it: exported
/// as JSONL, parsed back line by line, and fed to a trace-only checker with
/// serve's default retention window.
CheckReport wire_report(const RunInputs& in, const CheckOptions& options) {
  StreamCheckerConfig cfg;
  cfg.num_processes = in.num_processes;
  cfg.send_retention = serve::SoakServerConfig{}.send_retention;
  cfg.options = options;
  StreamChecker checker(cfg);
  const std::string wire = analysis::trace_jsonl(in.trace);
  for (std::size_t i = 0; i < wire.size();) {
    const std::size_t nl = wire.find('\n', i);
    const serve::ParsedRecord parsed =
        serve::parse_trace_line(std::string_view(wire).substr(i, nl - i));
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    checker.feed(parsed.record);
    i = nl + 1;
  }
  return checker.finish();
}

/// One contract's block of the summary: its event and pair counts, its
/// total and every recorded witness, one per line.
std::vector<std::string> contract_lines(const CheckReport& report,
                                        std::string_view name) {
  const ContractResult* c = report.contract(name);
  if (c == nullptr) return {"absent"};
  CheckReport one;
  one.contracts.push_back(*c);
  const std::string text = one.summary();
  std::vector<std::string> lines;
  for (std::size_t i = text.find('\n') + 1; i < text.size();) {
    const std::size_t nl = text.find('\n', i);
    lines.emplace_back(text, i, nl - i);
    i = nl + 1;
  }
  return lines;
}

/// Checks `in` bound (check_run) and over the wire (trace-only). The
/// trace-driven contracts must agree: fault-model and validity-horizon
/// exactly, hb-graph in its event count and every trace-only witness. With
/// `complete` (an uncorrupted trace) the bound hb-graph block must match
/// exactly too; a corrupted one may add execution-side gaps there.
void expect_round_trip(const RunInputs& in, const CheckOptions& options,
                       bool complete) {
  const CheckReport bound = check_run(in, options);
  const CheckReport wire = wire_report(in, options);
  for (const char* name : {"fault-model", "validity-horizon"}) {
    EXPECT_EQ(contract_lines(bound, name), contract_lines(wire, name))
        << name;
  }
  const std::vector<std::string> bound_hb = contract_lines(bound, "hb-graph");
  const std::vector<std::string> wire_hb = contract_lines(wire, "hb-graph");
  if (complete) {
    EXPECT_EQ(bound_hb, wire_hb);
    return;
  }
  EXPECT_EQ(bound.contract("hb-graph")->events_checked,
            wire.contract("hb-graph")->events_checked);
  for (std::size_t i = 1; i < wire_hb.size(); ++i) {
    EXPECT_NE(std::find(bound_hb.begin() + 1, bound_hb.end(), wire_hb[i]),
              bound_hb.end())
        << "trace-only witness missing from the bound report: " << wire_hb[i];
  }
}

/// Erases the first record of `kind` (of message kind `message_kind`, if
/// given) and returns it.
sim::TraceRecord erase_first(std::vector<sim::TraceRecord>& trace,
                             sim::TraceKind kind, int message_kind = -1) {
  const auto it = std::find_if(
      trace.begin(), trace.end(), [&](const sim::TraceRecord& r) {
        return r.kind == kind &&
               (message_kind < 0 || r.message_kind == message_kind);
      });
  EXPECT_NE(it, trace.end());
  const sim::TraceRecord r = *it;
  trace.erase(it);
  return r;
}

TEST(WireRoundTripTest, FaultyLossyRunAgreesWithTheBoundReplay) {
  const RunInputs clean = faulty_lossy_run();
  CheckOptions options;
  options.validity_horizon.lifetime = Duration::millis(100);
  options.max_recorded_violations = std::size_t{1} << 16;

  const CheckReport bound = check_run(clean, options);
  // The golden run: 2524 execution events, 8 fault records, and every
  // sense, send and strobe delivery counted as a happens-before endpoint.
  ASSERT_EQ(bound.contract("lamport")->events_checked, 2524u);
  ASSERT_EQ(bound.contract("fault-model")->events_checked, 8u);
  EXPECT_EQ(bound.contract("hb-graph")->events_checked, 57249u);
  EXPECT_GT(bound.contract("validity-horizon")->violations_total, 0u);
  expect_round_trip(clean, options, /*complete=*/true);

  {  // A send record lost: one endpoint fewer in both modes.
    RunInputs in = clean;
    erase_first(in.trace, sim::TraceKind::kSend);
    expect_round_trip(in, options, /*complete=*/false);
  }
  {  // A sense record lost: its deliveries match nothing in either mode.
    RunInputs in = clean;
    erase_first(in.trace, sim::TraceKind::kSense);
    const CheckReport wire = wire_report(in, options);
    EXPECT_GT(wire.contract("hb-graph")->violations_total, 0u);
    expect_round_trip(in, options, /*complete=*/false);
  }
  {  // A crash and its restart swapped: a malformed pairing, then a process
     // that stays down while its records keep coming.
    RunInputs in = clean;
    const auto crash = std::find_if(
        in.trace.begin(), in.trace.end(), [](const sim::TraceRecord& r) {
          return r.kind == sim::TraceKind::kCrash;
        });
    ASSERT_NE(crash, in.trace.end());
    const auto restart = std::find_if(
        crash, in.trace.end(), [&](const sim::TraceRecord& r) {
          return r.kind == sim::TraceKind::kRestart && r.pid == crash->pid;
        });
    ASSERT_NE(restart, in.trace.end());
    std::swap(crash->kind, restart->kind);
    const CheckReport wire = wire_report(in, options);
    EXPECT_GT(wire.contract("fault-model")->violations_total, 1u);
    expect_round_trip(in, options, /*complete=*/false);
  }
}

// The three-sensor run carries computation messages, so a lost send record
// leaves a receive with nothing to match in both modes.
TEST(WireRoundTripTest, LostComputationSendIsTheSameWitnessInBothModes) {
  const RunInputs clean = traced_run(net::ClockMode::kVectorStrobe);
  CheckOptions options;
  options.max_recorded_violations = 1024;
  expect_round_trip(clean, options, /*complete=*/true);

  RunInputs in = clean;
  const sim::TraceRecord send =
      erase_first(in.trace, sim::TraceKind::kSend,
                  static_cast<int>(net::MessageKind::kComputation));
  const CheckReport wire = wire_report(in, options);
  ASSERT_EQ(wire.contract("hb-graph")->violations_total, 1u);
  EXPECT_EQ(wire.contract("hb-graph")->violations[0].kind,
            ViolationKind::kUnmatchedReceive);
  EXPECT_EQ(wire.contract("hb-graph")->violations[0].seq, send.seq);
  expect_round_trip(in, options, /*complete=*/false);
}

// A computation message is received once: a second receive of its seq, or
// a receive after its drop, has no send left to match — in either mode.
// Bound mode also finds no execution event for the second receive.
TEST(WireRoundTripTest, ReceiveIsMatchedOnceAndNotAfterItsDrop) {
  const RunInputs clean = traced_run(net::ClockMode::kVectorStrobe);
  const auto receive = std::find_if(
      clean.trace.begin(), clean.trace.end(), [](const sim::TraceRecord& r) {
        return r.kind == sim::TraceKind::kReceive;
      });
  ASSERT_NE(receive, clean.trace.end());
  const auto at = receive - clean.trace.begin();
  for (const bool dropped : {false, true}) {
    RunInputs in = clean;
    sim::TraceRecord copy = *receive;
    if (dropped) copy.kind = sim::TraceKind::kDrop;
    in.trace.insert(in.trace.begin() + at + (dropped ? 0 : 1), copy);

    const CheckReport report = wire_report(in, {});
    const ContractResult* wire = report.contract("hb-graph");
    ASSERT_EQ(wire->violations_total, 1u);
    EXPECT_EQ(wire->violations[0].kind, ViolationKind::kUnmatchedReceive);
    EXPECT_EQ(wire->violations[0].seq, copy.seq);
    EXPECT_EQ(check_run(in).contract("hb-graph")->violations_total,
              dropped ? 1u : 2u);
    expect_round_trip(in, {}, /*complete=*/false);
  }
}

}  // namespace
}  // namespace psn::check
