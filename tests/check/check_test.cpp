// Mutation tests of the causality & clock-contract checker: corrupt a known-
// good run's event/clock streams in targeted ways and assert the checker
// pins each corruption on the right contract. A checker that cannot catch a
// planted bug cannot be trusted to catch a real one.

#include "check/check.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/sharded_system.hpp"
#include "support/periodic_arrivals.hpp"
#include "world/generators.hpp"

namespace psn::check {
namespace {

using namespace psn::time_literals;

/// A small three-sensor run with strobe traffic (periodic counters),
/// computation messages (full s/r edge coverage), and internal events, with
/// the trace on.
RunInputs clean_inputs(std::uint64_t seed = 7) {
  core::ShardedSystemConfig config;
  core::SystemConfig& cfg = config.base;
  cfg.num_sensors = 3;
  cfg.sim.seed = seed;
  cfg.sim.horizon = SimTime::zero() + 10_s;
  cfg.sim.trace_capacity = std::size_t{1} << 14;
  cfg.delta = 20_ms;
  core::ShardedPervasiveSystem system(config);

  std::vector<std::unique_ptr<world::AttributeDriver>> drivers;
  for (ProcessId pid = 1; pid < system.num_processes(); ++pid) {
    const auto obj = system.world().create_object("obj_" + std::to_string(pid));
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

/// True iff any contract recorded a violation of `kind`.
bool has_kind(const CheckReport& report, ViolationKind kind) {
  for (const ContractResult& c : report.contracts) {
    for (const CheckViolation& v : c.violations) {
      if (v.kind == kind) return true;
    }
  }
  return false;
}

/// First event of `type` (in any sensor execution) satisfying `pred`;
/// aborts the test if none exists.
core::ProcessEvent* find_event(
    RunInputs& in, core::EventType type,
    const std::function<bool(const core::ProcessEvent&)>& pred =
        [](const core::ProcessEvent&) { return true; }) {
  for (auto& execution : in.executions) {
    for (auto& e : execution) {
      if (e.type == type && pred(e)) return &e;
    }
  }
  return nullptr;
}

TEST(CheckMutationTest, CleanRunPassesEveryContract) {
  const RunInputs inputs = clean_inputs();
  const CheckReport report = check_run(inputs);
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_EQ(report.verdict, Verdict::kClean);
  EXPECT_EQ(report.total_violations(), 0u);
  ASSERT_NE(report.contract("lamport"), nullptr);
  EXPECT_GT(report.contract("lamport")->events_checked, 30u);
  ASSERT_NE(report.contract("strobe-soundness"), nullptr);
  EXPECT_GT(report.contract("strobe-soundness")->pairs_checked, 0u);
}

TEST(CheckMutationTest, SeveredSendReceiveEdgeIsAnUnmatchedReceive) {
  RunInputs inputs = clean_inputs();
  core::ProcessEvent* r = find_event(inputs, core::EventType::kReceive);
  ASSERT_NE(r, nullptr) << "run produced no receive events";
  r->message_seq = 0;  // sever the send->receive edge

  const CheckReport report = check_run(inputs);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_kind(report, ViolationKind::kUnmatchedReceive))
      << report.summary();
}

TEST(CheckMutationTest, NonMonotoneLamportTickIsALamportOrderViolation) {
  RunInputs inputs = clean_inputs();
  core::ProcessEvent* second = nullptr;
  for (auto& execution : inputs.executions) {
    if (execution.size() >= 2) {
      second = &execution[1];
      break;
    }
  }
  ASSERT_NE(second, nullptr);
  second->clocks.lamport.value = 0;  // SC1 requires a strictly larger value

  const CheckReport report = check_run(inputs);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_kind(report, ViolationKind::kLamportOrder))
      << report.summary();
}

TEST(CheckMutationTest, SwappedCausalVectorComponentsAreAVectorMismatch) {
  RunInputs inputs = clean_inputs();
  // A receive event always has its own and the sender's components > 0 and
  // distinct from each other's positions, so a swap is a real corruption.
  core::ProcessEvent* r =
      find_event(inputs, core::EventType::kReceive,
                 [](const core::ProcessEvent& e) {
                   for (std::size_t i = 0; i < e.clocks.causal_vector.size();
                        ++i) {
                     if (e.clocks.causal_vector[i] !=
                         e.clocks.causal_vector[0]) {
                       return true;
                     }
                   }
                   return false;
                 });
  ASSERT_NE(r, nullptr) << "no receive event with distinct components";
  auto& vc = r->clocks.causal_vector;
  std::size_t other = 0;
  for (std::size_t i = 1; i < vc.size(); ++i) {
    if (vc[i] != vc[0]) other = i;
  }
  const std::uint64_t tmp = vc[0];
  vc[0] = vc[other];
  vc[other] = tmp;

  const CheckReport report = check_run(inputs);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_kind(report, ViolationKind::kVectorMismatch))
      << report.summary();
}

TEST(CheckMutationTest, SwappedStrobeVectorComponentsAreAStrobeMismatch) {
  RunInputs inputs = clean_inputs();
  core::ProcessEvent* n =
      find_event(inputs, core::EventType::kSense,
                 [](const core::ProcessEvent& e) {
                   for (std::size_t i = 0; i < e.clocks.strobe_vector.size();
                        ++i) {
                     if (e.clocks.strobe_vector[i] !=
                         e.clocks.strobe_vector[0]) {
                       return true;
                     }
                   }
                   return false;
                 });
  ASSERT_NE(n, nullptr) << "no sense event with distinct strobe components";
  auto& sv = n->clocks.strobe_vector;
  std::size_t other = 0;
  for (std::size_t i = 1; i < sv.size(); ++i) {
    if (sv[i] != sv[0]) other = i;
  }
  const std::uint64_t tmp = sv[0];
  sv[0] = sv[other];
  sv[other] = tmp;

  const CheckReport report = check_run(inputs);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_kind(report, ViolationKind::kStrobeVectorMismatch))
      << report.summary();
}

TEST(CheckMutationTest, RewoundStrobeScalarIsAStrobeScalarMismatch) {
  RunInputs inputs = clean_inputs();
  core::ProcessEvent* n = find_event(
      inputs, core::EventType::kSense,
      [](const core::ProcessEvent& e) { return e.clocks.strobe_scalar.value > 1; });
  ASSERT_NE(n, nullptr);
  n->clocks.strobe_scalar.value -= 1;  // SSC1 ticked, the claim did not

  const CheckReport report = check_run(inputs);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_kind(report, ViolationKind::kStrobeScalarMismatch))
      << report.summary();
}

TEST(CheckMutationTest, EpsilonViolatingTimestampIsAnEpsilonBoundViolation) {
  RunInputs inputs = clean_inputs();
  core::ProcessEvent* e = find_event(inputs, core::EventType::kSense);
  ASSERT_NE(e, nullptr);
  // Push the synchronized reading a full second off true time — far outside
  // any sane ε.
  e->clocks.physical_synced = e->clocks.true_time + Duration::seconds(1);

  const CheckReport report = check_run(inputs);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_kind(report, ViolationKind::kEpsilonBound))
      << report.summary();
}

TEST(CheckMutationTest, DriftEnvelopeViolationIsADriftBoundViolation) {
  RunInputs inputs = clean_inputs();
  core::ProcessEvent* e = find_event(inputs, core::EventType::kSense);
  ASSERT_NE(e, nullptr);
  e->clocks.physical_local = e->clocks.true_time + Duration::seconds(3600);

  const CheckReport report = check_run(inputs);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_kind(report, ViolationKind::kDriftBound)) << report.summary();
}

TEST(CheckMutationTest, ViolationRecordingIsCappedButCountingIsNot) {
  RunInputs inputs = clean_inputs();
  std::size_t corrupted = 0;
  for (auto& execution : inputs.executions) {
    for (auto& e : execution) {
      e.clocks.physical_synced = e.clocks.true_time + Duration::seconds(1);
      corrupted++;
    }
  }
  ASSERT_GT(corrupted, 4u);

  CheckOptions options;
  options.max_recorded_violations = 4;
  const CheckReport report = check_run(inputs, options);
  const ContractResult* eps = report.contract("physical-epsilon");
  ASSERT_NE(eps, nullptr);
  EXPECT_EQ(eps->violations.size(), 4u);
  EXPECT_EQ(eps->violations_total, corrupted);
}

}  // namespace
}  // namespace psn::check
