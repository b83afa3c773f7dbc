// End-to-end checks of the observability layer (label: obs): the per-run
// event trace must reconcile exactly with the transport's MessageStats under
// every wire clock mode, and the metric snapshot must agree with both.

#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>

#include "analysis/experiments.hpp"
#include "analysis/export.hpp"
#include "net/message.hpp"
#include "sim/trace.hpp"

namespace psn::analysis {
namespace {

OccupancyConfig traced_base(net::ClockMode mode) {
  OccupancyConfig cfg;
  cfg.doors = 3;
  cfg.capacity = 50;
  cfg.movement_rate = 10.0;
  cfg.delta = Duration::millis(50);
  cfg.horizon = Duration::seconds(10);
  cfg.seed = 11;
  cfg.clock_mode = mode;
  cfg.trace_capacity = 1 << 20;  // exports the whole trace
  return cfg;
}

class TraceReconciliationTest
    : public ::testing::TestWithParam<net::ClockMode> {};

TEST_P(TraceReconciliationTest, SendRecordsMatchMessageStatsExactly) {
  const net::ClockMode mode = GetParam();
  const OccupancyRunResult run = run_occupancy_experiment(traced_base(mode));
  ASSERT_FALSE(run.trace.empty());

  // Per-kind sent counts and byte totals recomputed from the trace alone.
  for (const net::MessageKind kind :
       {net::MessageKind::kComputation, net::MessageKind::kStrobe,
        net::MessageKind::kActuation}) {
    std::size_t sends = 0, bytes = 0, drops = 0, delivers = 0;
    for (const sim::TraceRecord& r : run.trace) {
      if (r.message_kind != static_cast<int>(kind)) continue;
      if (r.kind == sim::TraceKind::kSend) {
        sends++;
        bytes += r.bytes;
      } else if (r.kind == sim::TraceKind::kDrop) {
        drops++;
      } else if (r.kind == sim::TraceKind::kDeliver) {
        delivers++;
      }
    }
    const auto& ks = run.message_stats.of(kind);
    EXPECT_EQ(sends, ks.sent) << net::to_string(kind);
    EXPECT_EQ(bytes, ks.bytes_sent) << net::to_string(kind);
    EXPECT_EQ(drops, ks.dropped) << net::to_string(kind);
    EXPECT_EQ(delivers, ks.delivered) << net::to_string(kind);
  }

  // The shadow per-mode total for the *active* mode must equal what was
  // actually charged for strobes.
  EXPECT_EQ(run.message_stats.strobe_mode_bytes.of(mode),
            run.message_stats.of(net::MessageKind::kStrobe).bytes_sent);

  // The metric snapshot agrees with the aggregate stats.
  EXPECT_EQ(run.metrics.counters.at("net.sent"),
            run.message_stats.total().sent);
  EXPECT_EQ(run.metrics.counters.at("net.bytes_sent"),
            run.message_stats.total().bytes_sent);
}

TEST(TraceReconciliationTest, PerCauseDropCountersMatchTraceRecords) {
  // Satellite of the fault layer (DESIGN.md §15): every transport drop is
  // tallied under exactly one cause, and each per-cause counter must equal
  // the count of trace records carrying that cause annotation.
  OccupancyConfig cfg = traced_base(net::ClockMode::kVectorStrobe);
  cfg.loss_probability = 0.2;
  // Star overlay so the cut root edge is genuinely unroutable (a complete
  // overlay would just route around it and never record a partition drop).
  cfg.topology = core::TopologyKind::kStar;
  cfg.faults = sim::parse_fault_plan("crash:2@2+3;cut:0-3@6+2");
  cfg.duty_cycle = net::DutyCycle{Duration::millis(200),
                                  Duration::millis(60), Duration::zero()};
  const OccupancyRunResult run = run_occupancy_experiment(cfg);

  std::size_t loss = 0, crashed = 0, duty = 0, partition = 0;
  for (const sim::TraceRecord& r : run.trace) {
    if (r.kind == sim::TraceKind::kDrop) {
      if (r.note.str() == "crash") {
        crashed++;
      } else if (r.note.str() == "duty-cycle") {
        duty++;
      } else {
        loss++;
      }
    } else if (r.kind == sim::TraceKind::kUnreachable &&
               r.note.str() == "partition") {
      partition++;
    }
  }
  EXPECT_EQ(run.metrics.counters.at("net.drops.loss"), loss);
  EXPECT_EQ(run.metrics.counters.at("net.drops.crashed_dst"), crashed);
  EXPECT_EQ(run.metrics.counters.at("net.drops.duty_cycle"), duty);
  EXPECT_EQ(run.metrics.counters.at("net.drops.partition"), partition);
  // The config injects enough of each for the interesting causes to be
  // exercised, and the causes partition the aggregate drop total.
  EXPECT_GT(loss, 0u);
  EXPECT_GT(crashed, 0u);
  EXPECT_GT(partition, 0u);
  EXPECT_EQ(loss + crashed + duty,
            static_cast<std::size_t>(
                run.metrics.counters.at("net.dropped")));
}

TEST(MetricsResultTest, StockRunsCarryNoFaultDropCounters) {
  // Lazy registration: without a fault schedule the per-cause counters must
  // stay out of the snapshot entirely, keeping stock metrics CSVs
  // byte-identical to the pre-fault-layer fixtures.
  const OccupancyRunResult run =
      run_occupancy_experiment(traced_base(net::ClockMode::kVectorStrobe));
  EXPECT_EQ(run.metrics.counters.count("net.drops.loss"), 0u);
  EXPECT_EQ(run.metrics.counters.count("net.drops.crashed_dst"), 0u);
  EXPECT_EQ(run.metrics.counters.count("net.drops.partition"), 0u);
  EXPECT_EQ(run.metrics.counters.count("net.drops.duty_cycle"), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllClockModes, TraceReconciliationTest,
                         ::testing::Values(net::ClockMode::kScalarStrobe,
                                           net::ClockMode::kVectorStrobe,
                                           net::ClockMode::kPhysical),
                         [](const auto& p) {
                           return std::string(net::to_string(p.param));
                         });

TEST(TraceExportTest, JsonlIsOneWellFormedObjectPerRecord) {
  const OccupancyRunResult run =
      run_occupancy_experiment(traced_base(net::ClockMode::kVectorStrobe));
  const std::string jsonl = trace_jsonl(run.trace);

  std::istringstream lines(jsonl);
  std::string line;
  std::size_t count = 0;
  bool saw_sense = false, saw_send = false, saw_deliver = false;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"t\":"), std::string::npos);
    EXPECT_NE(line.find("\"kind\":\""), std::string::npos);
    EXPECT_NE(line.find("\"pid\":"), std::string::npos);
    EXPECT_NE(line.find("\"bytes\":"), std::string::npos);
    saw_sense = saw_sense || line.find("\"kind\":\"sense\"") != std::string::npos;
    saw_send = saw_send || line.find("\"kind\":\"send\"") != std::string::npos;
    saw_deliver =
        saw_deliver || line.find("\"kind\":\"deliver\"") != std::string::npos;
    count++;
  }
  EXPECT_EQ(count, run.trace.size());
  EXPECT_TRUE(saw_sense);
  EXPECT_TRUE(saw_send);
  EXPECT_TRUE(saw_deliver);
}

TEST(MetricsResultTest, TracingOffByDefaultAndMetricsStillPresent) {
  OccupancyConfig cfg = traced_base(net::ClockMode::kVectorStrobe);
  cfg.trace_capacity = 0;
  const OccupancyRunResult run = run_occupancy_experiment(cfg);
  EXPECT_TRUE(run.trace.empty());
  EXPECT_FALSE(run.metrics.empty());
  EXPECT_GT(run.metrics.counters.at("sim.events_executed"), 0u);
  EXPECT_GT(run.metrics.counters.at("world.events"), 0u);
  // Per-kind strobe counters were exported and agree with MessageStats.
  EXPECT_EQ(run.metrics.counters.at("net.strobe.sent"),
            run.message_stats.of(net::MessageKind::kStrobe).sent);
}

TEST(MetricsResultTest, ActiveModeChangesBytesButNotDetection) {
  const OccupancyRunResult scalar =
      run_occupancy_experiment(traced_base(net::ClockMode::kScalarStrobe));
  const OccupancyRunResult vector =
      run_occupancy_experiment(traced_base(net::ClockMode::kVectorStrobe));
  // Same seed, same world: the mode only re-prices the wire.
  EXPECT_EQ(scalar.message_stats.of(net::MessageKind::kStrobe).sent,
            vector.message_stats.of(net::MessageKind::kStrobe).sent);
  EXPECT_LT(scalar.message_stats.of(net::MessageKind::kStrobe).bytes_sent,
            vector.message_stats.of(net::MessageKind::kStrobe).bytes_sent);
  ASSERT_FALSE(scalar.outcomes.empty());
  for (std::size_t i = 0; i < scalar.outcomes.size(); ++i) {
    EXPECT_EQ(scalar.outcomes[i].detections.size(),
              vector.outcomes[i].detections.size());
  }
}

}  // namespace
}  // namespace psn::analysis
