// Golden text of the full checker summary for two `psn_cli check` runs. The
// summary names every contract's event, pair and violation counts, so any
// change to the strobe order kernel, the race scan or the race audit that
// alters what is checked or flagged shows up here as a text diff.
//
//   - a reduced faulty, lossy run (Gilbert–Elliott burst loss, crashes and
//     partitions) that checks clean over 791,226 soundness pairs;
//   - a lossless run whose race audit flags errors it cannot explain, which
//     proves the audit still reports what no race or fault span covers.

#include <gtest/gtest.h>

#include <string>

#include "analysis/experiments.hpp"
#include "check/check.hpp"
#include "sim/fault.hpp"

namespace psn::analysis {
namespace {

/// The OccupancyConfig `psn_cli check --doors D --seconds S --seed N` builds,
/// with the trace exported too (which changes nothing the summary shows).
OccupancyConfig cli_check_config(std::size_t doors, int seconds,
                                 std::uint64_t seed) {
  OccupancyConfig cfg;
  cfg.doors = doors;
  cfg.horizon = Duration::seconds(seconds);
  cfg.seed = seed;
  cfg.check = true;
  cfg.trace_capacity = 1000000;
  return cfg;
}

std::string summary_of(const OccupancyConfig& cfg) {
  const OccupancyRunResult run = run_occupancy_experiment(cfg);
  EXPECT_TRUE(run.check.has_value());
  return run.check ? run.check->summary() : std::string();
}

// psn_cli check --doors 12 --seconds 120 --loss 0.1 --ge 0.05,0.3,0.01,0.6
//   --faults 'cut:1-3@1+5;crash:2@5+4;crash:5@60+10;cut:2-7@80+20' --seed 2
TEST(CheckSummaryGoldenTest, FaultyLossyRunIsClean) {
  OccupancyConfig cfg = cli_check_config(12, 120, 2);
  cfg.loss_probability = 0.1;
  cfg.gilbert_elliott = core::SystemConfig::GilbertElliottParams{
      0.05, 0.3, 0.01, 0.6};
  cfg.faults = sim::parse_fault_plan(
      "cut:1-3@1+5;crash:2@5+4;crash:5@60+10;cut:2-7@80+20");

  EXPECT_EQ(summary_of(cfg),
            "psn-check verdict: clean (0 violation(s))\n"
            "  hb-graph: 57249 event(s), 0 violation(s)\n"
            "  lamport: 2524 event(s), 0 violation(s)\n"
            "  vector: 2524 event(s), 0 violation(s)\n"
            "  strobe-scalar: 2524 event(s), 0 violation(s)\n"
            "  strobe-vector: 2524 event(s), 0 violation(s)\n"
            "  strobe-soundness: 1262 event(s), 791226 pair(s), "
            "0 violation(s)\n"
            "  physical-epsilon: 2524 event(s), 0 violation(s)\n"
            "  physical-drift: 2524 event(s), 0 violation(s)\n"
            "  fault-model: 8 event(s), 0 violation(s)\n"
            "  race-audit.delivery-order: 87 event(s), 12753 pair(s), "
            "0 violation(s)\n"
            "  race-audit.strobe-scalar: 92 event(s), 12753 pair(s), "
            "0 violation(s)\n"
            "  race-audit.strobe-vector: 84 event(s), 12753 pair(s), "
            "0 violation(s)\n"
            "  race-audit.physical-eps: 82 event(s), 10009 pair(s), "
            "0 violation(s)\n");
}

// psn_cli check --doors 20 --seconds 450 --seed 48
TEST(CheckSummaryGoldenTest, LosslessRunFlagsUnexplainedErrors) {
  const std::string tail =
      " has no Δ-race or recorded fault within the audit window to explain "
      "it\n";
  const auto fn = [&](const char* at) {
    return std::string("    [unexplained-false-negative] @") +
           at + "s: physical-eps: confident false negative at t=" + at + "s" +
           tail;
  };

  EXPECT_EQ(summary_of(cli_check_config(20, 450, 48)),
            "psn-check verdict: violations (4 violation(s))\n"
            "  hb-graph: 387756 event(s), 0 violation(s)\n"
            "  lamport: 9458 event(s), 0 violation(s)\n"
            "  vector: 9458 event(s), 0 violation(s)\n"
            "  strobe-scalar: 9458 event(s), 0 violation(s)\n"
            "  strobe-vector: 9458 event(s), 0 violation(s)\n"
            "  strobe-soundness: 1352 event(s), 912898 pair(s), "
            "0 violation(s)\n"
            "  physical-epsilon: 9458 event(s), 0 violation(s)\n"
            "  physical-drift: 9458 event(s), 0 violation(s)\n"
            "  race-audit.delivery-order: 169 event(s), 35529 pair(s), "
            "0 violation(s)\n"
            "  race-audit.strobe-scalar: 115 event(s), 35529 pair(s), "
                "0 violation(s)\n"
                "  race-audit.strobe-vector: 219 event(s), 35529 pair(s), "
                "0 violation(s)\n"
                "  race-audit.physical-eps: 4 event(s), 17101 pair(s), "
                "4 violation(s)\n" +
                fn("4.659300") + fn("4.680913") + fn("4.746669") +
                fn("4.929224"));
}

}  // namespace
}  // namespace psn::analysis
