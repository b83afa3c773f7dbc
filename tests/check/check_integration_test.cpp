// End-to-end checker integration: the stock occupancy experiment — the base
// configuration every E1–E9 bench sweeps around — must replay clean through
// every clock contract and the Δ-race audit, under all three wire clock
// modes. This is the regression net the checker exists for: an optimization
// that breaks causality tracking turns these red.

#include <gtest/gtest.h>

#include "analysis/experiments.hpp"
#include "check/check.hpp"
#include "check/race_scan.hpp"

namespace psn::analysis {
namespace {

using namespace psn::time_literals;

class CheckedOccupancyTest : public ::testing::TestWithParam<net::ClockMode> {};

TEST_P(CheckedOccupancyTest, StockConfigReplaysCleanWithRaceAudit) {
  OccupancyConfig cfg;  // the E1–E9 base point, stock defaults
  cfg.clock_mode = GetParam();
  cfg.check = true;

  const OccupancyRunResult run = run_occupancy_experiment(cfg);
  ASSERT_TRUE(run.check.has_value());
  const check::CheckReport& report = *run.check;
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_EQ(report.trace_evicted, 0u);
  EXPECT_EQ(run.trace_evicted, 0u);

  // Every clock contract actually ran over a nontrivial run.
  for (const char* contract :
       {"lamport", "vector", "strobe-scalar", "strobe-vector",
        "strobe-soundness", "physical-epsilon", "physical-drift"}) {
    const check::ContractResult* c = report.contract(contract);
    ASSERT_NE(c, nullptr) << contract;
    EXPECT_GT(c->events_checked + c->pairs_checked, 0u) << contract;
  }

  // The stock config is lossless, Δ-bounded, and always-on, so the strict
  // race audit ran for every detector and explained every confident error.
  for (const DetectorOutcome& out : run.outcomes) {
    const check::ContractResult* audit =
        report.contract("race-audit." + out.detector);
    ASSERT_NE(audit, nullptr) << out.detector;
    EXPECT_EQ(audit->violations_total, 0u) << out.detector;
    EXPECT_EQ(audit->events_checked, out.score.fp_cause_times.size() +
                                         out.score.fn_occurrence_times.size());
  }
}

INSTANTIATE_TEST_SUITE_P(AllClockModes, CheckedOccupancyTest,
                         ::testing::Values(net::ClockMode::kScalarStrobe,
                                           net::ClockMode::kVectorStrobe,
                                           net::ClockMode::kPhysical),
                         [](const auto& p) {
                           return std::string(net::to_string(p.param));
                         });

TEST(CheckedOccupancyTest, LossyConfigAuditsAtFullStrictnessViaDropSpans) {
  OccupancyConfig cfg;
  cfg.loss_probability = 0.3;  // E3-style burst-free random loss
  cfg.horizon = Duration::seconds(30);
  cfg.check = true;

  const OccupancyRunResult run = run_occupancy_experiment(cfg);
  ASSERT_TRUE(run.check.has_value());
  // Loss drops messages, not clock correctness: contracts stay clean.
  EXPECT_TRUE(run.check->clean()) << run.check->summary();
  // Dropped reports become attributable fault spans (DESIGN.md §15), so the
  // strict audit runs even under loss and explains every confident error.
  for (const DetectorOutcome& out : run.outcomes) {
    const check::ContractResult* audit =
        run.check->contract("race-audit." + out.detector);
    ASSERT_NE(audit, nullptr) << out.detector;
    EXPECT_EQ(audit->violations_total, 0u) << out.detector;
  }
}

TEST(CheckedOccupancyTest, FaultyRunAuditsCleanWithEveryErrorAttributed) {
  // The ISSUE acceptance run: crash + partition + Gilbert–Elliott burst
  // loss, checked at full strictness. Every confident FP/FN must be
  // attributable to a race or a recorded fault — no eligibility downgrade.
  OccupancyConfig cfg;
  cfg.doors = 3;
  cfg.horizon = Duration::seconds(30);
  cfg.faults = sim::parse_fault_plan("crash:2@5+4;cut:1-3@12+5");
  core::SystemConfig::GilbertElliottParams ge;
  ge.p_good_to_bad = 0.05;
  ge.p_bad_to_good = 0.3;
  ge.loss_in_good = 0.01;
  ge.loss_in_bad = 0.6;
  cfg.gilbert_elliott = ge;
  cfg.check = true;
  cfg.trace_capacity = std::size_t{1} << 18;  // exported for the spans below

  const OccupancyRunResult run = run_occupancy_experiment(cfg);
  ASSERT_TRUE(run.check.has_value());
  const check::CheckReport& report = *run.check;
  EXPECT_TRUE(report.clean()) << report.summary();

  // The fault-model contract joined the report (crash/partition records were
  // present and well-paired, and no activity leaked into a crash window).
  const check::ContractResult* fault = report.contract("fault-model");
  ASSERT_NE(fault, nullptr);
  EXPECT_EQ(fault->violations_total, 0u);
  EXPECT_GE(fault->events_checked, 4u);  // crash, restart, partition, heal

  // The strict audit ran for every detector despite loss + faults.
  for (const DetectorOutcome& out : run.outcomes) {
    const check::ContractResult* audit =
        report.contract("race-audit." + out.detector);
    ASSERT_NE(audit, nullptr) << out.detector;
    EXPECT_EQ(audit->violations_total, 0u) << out.detector;
  }

  // The spans the audit used cover the injected windows.
  check::FaultSpanConfig span_cfg;
  span_cfg.delta_bound = run.delta_bound;
  const auto spans = check::collect_fault_spans(
      run.trace, core::ObservationLog{}, span_cfg);
  bool saw_crash = false;
  bool saw_partition = false;
  for (const check::FaultSpan& s : spans) {
    saw_crash |= s.cause == check::FaultSpan::Cause::kCrash && s.reporter == 2;
    saw_partition |= s.cause == check::FaultSpan::Cause::kPartition;
  }
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_partition);
}

TEST(CheckedOccupancyTest, DeclaredClockFaultIsCompensatedNotExcused) {
  // A declared drift spike must pass the physical-drift contract through
  // exact compensation of the injected offset — not a widened envelope.
  OccupancyConfig cfg;
  cfg.horizon = Duration::seconds(20);
  cfg.clock_mode = net::ClockMode::kPhysical;
  cfg.faults = sim::parse_fault_plan("drift:2@5+10:500");
  cfg.check = true;

  const OccupancyRunResult run = run_occupancy_experiment(cfg);
  ASSERT_TRUE(run.check.has_value());
  EXPECT_TRUE(run.check->clean()) << run.check->summary();
  const check::ContractResult* drift = run.check->contract("physical-drift");
  ASSERT_NE(drift, nullptr);
  EXPECT_EQ(drift->violations_total, 0u);
  EXPECT_GT(drift->events_checked, 0u);
}

TEST(RaceAuditTest, UnexplainedInversionStillFailsWithFaultSpansSupplied) {
  // Mutation check: fault spans explain covered errors, and ONLY covered
  // errors — a fabricated inversion outside every span must still fail the
  // strict audit.
  std::vector<check::FaultSpan> spans;
  spans.push_back({SimTime::from_seconds(10), SimTime::from_seconds(11), 2,
                   check::FaultSpan::Cause::kCrash});
  check::AuditConfig audit_cfg;

  const check::ContractResult covered = check::audit_detector(
      "probe", /*races=*/{}, spans,
      /*fp_cause_times=*/{SimTime::from_seconds(10.5)},
      /*fn_occurrence_times=*/{}, audit_cfg);
  EXPECT_EQ(covered.violations_total, 0u);

  const check::ContractResult uncovered = check::audit_detector(
      "probe", /*races=*/{}, spans,
      /*fp_cause_times=*/{SimTime::from_seconds(20)},
      /*fn_occurrence_times=*/{SimTime::from_seconds(2)}, audit_cfg);
  EXPECT_EQ(uncovered.violations_total, 2u);
  ASSERT_GE(uncovered.violations.size(), 1u);
  EXPECT_EQ(uncovered.violations[0].kind,
            check::ViolationKind::kUnexplainedFalsePositive);
  EXPECT_NE(uncovered.violations[0].detail.find("recorded fault"),
            std::string::npos);
}

TEST(CheckedOccupancyTest, SameSenderReorderExplainsDeliveryOrderErrors) {
  // The transport is not FIFO, so a door's older count can land after its
  // newer one and leave the delivery-order detector one off until the door
  // reports again, seconds later. On these lossless, fault-free hall runs
  // every delivery-order error left unexplained by races lies in such a
  // reorder span (3 at seed 45, 1 at seed 48 without them).
  for (const std::uint64_t seed : {45u, 48u}) {
    OccupancyConfig cfg;
    cfg.doors = 20;
    cfg.horizon = Duration::seconds(450);
    cfg.seed = seed;
    cfg.trace_capacity = 1000000;
    cfg.check = true;

    const OccupancyRunResult run = run_occupancy_experiment(cfg);
    ASSERT_TRUE(run.check.has_value());
    const check::ContractResult* audit =
        run.check->contract("race-audit.delivery-order");
    ASSERT_NE(audit, nullptr) << seed;
    EXPECT_GT(audit->events_checked, 0u) << seed;
    EXPECT_EQ(audit->violations_total, 0u) << "seed " << seed << "\n"
                                           << run.check->summary();
  }
}

TEST(CheckedOccupancyTest, CheckKeepsATraceOnlyWhenExported) {
  // The checker takes the trace as the run streams it: a checked run keeps
  // no trace of its own, and an exported one is the same run's trace.
  OccupancyConfig cfg;
  cfg.horizon = Duration::seconds(10);
  cfg.check = true;
  ASSERT_EQ(cfg.trace_capacity, 0u);

  const OccupancyRunResult run = run_occupancy_experiment(cfg);
  ASSERT_TRUE(run.check.has_value());
  EXPECT_TRUE(run.check->clean()) << run.check->summary();
  EXPECT_TRUE(run.trace.empty());
  EXPECT_EQ(run.trace_evicted, 0u);

  OccupancyConfig exported = cfg;
  exported.trace_capacity = std::size_t{1} << 18;
  const OccupancyRunResult traced = run_occupancy_experiment(exported);
  ASSERT_TRUE(traced.check.has_value());
  EXPECT_EQ(traced.check->summary(), run.check->summary());
  EXPECT_GT(traced.trace.size(), 0u);
  EXPECT_EQ(traced.trace_evicted, 0u);
}

TEST(RaceScanTest, FindsPlantedDeltaRaceAndInversion) {
  core::ObservationLog log;
  log.num_processes = 3;
  auto update = [](ProcessId pid, SimTime sensed, SimTime delivered) {
    core::ReceivedUpdate u;
    u.reporter = pid;
    u.report.true_sense_time = sensed;
    u.delivered_at = delivered;
    return u;
  };
  const SimTime t0 = SimTime::zero();
  // P2's sense at t=1.001s is delivered *before* P1's at t=1.000s: a 1 ms
  // race, inverted. P1's second sense at t=5s races with nothing.
  log.updates.push_back(update(2, t0 + 1_s + 1_ms, t0 + 1_s + 20_ms));
  log.updates.push_back(update(1, t0 + 1_s, t0 + 1_s + 30_ms));
  log.updates.push_back(update(1, t0 + 5_s, t0 + 5_s + 10_ms));

  check::RaceScanConfig scan;
  scan.window = 100_ms;
  const auto races = check::scan_races(log, scan);
  ASSERT_EQ(races.size(), 1u);
  EXPECT_EQ(races[0].pid_a, 1);
  EXPECT_EQ(races[0].pid_b, 2);
  EXPECT_EQ(races[0].gap, 1_ms);
  EXPECT_TRUE(races[0].delivery_inverted);

  // An error inside the race span is explained; one far away is not.
  const auto ok = check::audit_detector("probe", races, /*fault_spans=*/{},
                                        {t0 + 1_s}, {}, check::AuditConfig{});
  EXPECT_EQ(ok.violations_total, 0u);
  const auto bad =
      check::audit_detector("probe", races, /*fault_spans=*/{}, {t0 + 5_s},
                            {t0 + 8_s}, check::AuditConfig{});
  EXPECT_EQ(bad.violations_total, 2u);
  ASSERT_EQ(bad.violations.size(), 2u);
  EXPECT_EQ(bad.violations[0].kind,
            check::ViolationKind::kUnexplainedFalsePositive);
  EXPECT_EQ(bad.violations[1].kind,
            check::ViolationKind::kUnexplainedFalseNegative);
}

}  // namespace
}  // namespace psn::analysis
