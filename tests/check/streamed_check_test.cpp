// A run streamed into the checker while it executes must report what the
// batch checker reports over the same run's whole trace, line for line, at
// every shard count: the streamed batches are the canonical trace, cut
// into windows, and the checker reads the sensors' executions where they
// live instead of a copy. The trace itself is pinned by fixtures taken
// from the post-run ring merge the stream replaced, a reference built
// independently of the stream.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/export.hpp"
#include "check/check.hpp"
#include "check/race_scan.hpp"
#include "check/stream_checker.hpp"
#include "sim/fault.hpp"

namespace psn::check {
namespace {

using namespace psn::time_literals;

struct Shape {
  const char* name;
  bool lossy_faulty;
  std::size_t shards;
};

// gtest names a parameter it cannot print by its raw bytes, pointer and
// padding included, which would make the ctest names differ between builds.
void PrintTo(const Shape& shape, std::ostream* os) { *os << shape.name; }

// FNV-1a of trace_jsonl over the whole canonical trace (about 33k records,
// so K = 1 drains several 2^12-record batches), the same at every K.
constexpr std::uint64_t kFaultFreeTrace = 0x916ff3a41f6ecc22;
constexpr std::uint64_t kLossyFaultyTrace = 0xba61eba29f8e0861;

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fixture(const Shape& shape) {
  return shape.lossy_faulty ? kLossyFaultyTrace : kFaultFreeTrace;
}

analysis::OccupancyConfig shape_config(const Shape& shape) {
  analysis::OccupancyConfig cfg;
  cfg.doors = 12;
  cfg.horizon = 60_s;
  cfg.seed = 3;
  cfg.shards = shape.shards;
  cfg.shard_threads = shape.shards > 1 ? 2 : 1;
  // Turns the trace on: inputs_from() asks for a traced config, and an
  // unstreamed system keeps its trace for trace_records().
  cfg.trace_capacity = 1;
  if (shape.lossy_faulty) {
    cfg.loss_probability = 0.1;
    cfg.faults = sim::parse_fault_plan(
        "cut:1-3@1+5;crash:2@5+4;crash:5@20+10;cut:2-7@30+15");
  }
  return cfg;
}

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

bool same_spans(const std::vector<FaultSpan>& a,
                const std::vector<FaultSpan>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].begin != b[i].begin || a[i].end != b[i].end ||
        a[i].reporter != b[i].reporter || a[i].cause != b[i].cause) {
      return false;
    }
  }
  return true;
}

class StreamedCheckTest : public ::testing::TestWithParam<Shape> {};

TEST_P(StreamedCheckTest, StreamedReportEqualsBatchReport) {
  const analysis::OccupancyConfig cfg = shape_config(GetParam());
  auto system = analysis::build_occupancy_hall(cfg).system;
  const core::SystemConfig& base = system->config().base;

  CheckOptions options;
  options.faults = system->faults();
  StreamCheckerConfig stream_cfg;
  stream_cfg.num_processes = system->num_processes();
  stream_cfg.sync_epsilon = base.clock_config.sync_epsilon;
  stream_cfg.drifting = base.clock_config.drifting;
  stream_cfg.options = options;
  stream_cfg.executions = bind_executions(*system);
  StreamChecker checker(stream_cfg);

  std::vector<sim::TraceRecord> streamed;
  std::vector<sim::TraceRecord> span_records;
  std::size_t batches = 0;
  system->stream_trace([&](std::span<const sim::TraceRecord> batch) {
    batches++;
    for (const sim::TraceRecord& r : batch) {
      checker.feed(r);
      if (read_by_fault_spans(r)) span_records.push_back(r);
    }
    streamed.insert(streamed.end(), batch.begin(), batch.end());
  });
  system->run();
  const CheckReport stream_report = checker.finish();

  // It streamed, in more than one batch, and the batches concatenate to
  // the whole canonical trace.
  EXPECT_GT(batches, 1u);
  EXPECT_EQ(fnv1a(analysis::trace_jsonl(streamed)), fixture(GetParam()));
  // The records went to the sink; the system kept none.
  EXPECT_TRUE(system->trace_records().empty());
  std::vector<sim::TraceRecord> trace = std::move(streamed);

  // The records kept for the audit give the spans the whole trace gives.
  FaultSpanConfig span_cfg;
  span_cfg.delta_bound = system->delta_bound();
  const std::vector<FaultSpan> spans =
      collect_fault_spans(trace, system->log(), span_cfg);
  EXPECT_TRUE(same_spans(
      collect_fault_spans(span_records, system->log(), span_cfg), spans));
  if (GetParam().lossy_faulty) {
    EXPECT_FALSE(spans.empty());
  }

  const CheckReport batch_report =
      check_run(inputs_from(*system, std::move(trace)), options);
  EXPECT_TRUE(batch_report.clean()) << batch_report.summary();
  EXPECT_EQ(lines(stream_report.summary()), lines(batch_report.summary()));
}

TEST_P(StreamedCheckTest, UnstreamedRunCollectsTheSameTrace) {
  auto system = analysis::build_occupancy_hall(shape_config(GetParam())).system;
  system->run();
  EXPECT_EQ(fnv1a(analysis::trace_jsonl(system->trace_records())),
            fixture(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    LossyFaultyAndFaultFree, StreamedCheckTest,
    ::testing::Values(Shape{"FaultFreeK1", false, 1},
                      Shape{"FaultFreeK2", false, 2},
                      Shape{"FaultFreeK4", false, 4},
                      Shape{"LossyFaultyK1", true, 1},
                      Shape{"LossyFaultyK2", true, 2},
                      Shape{"LossyFaultyK4", true, 4}),
    [](const auto& p) { return std::string(p.param.name); });

}  // namespace
}  // namespace psn::check
