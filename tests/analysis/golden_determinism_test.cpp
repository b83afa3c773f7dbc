// Golden determinism fixtures (label: par): the hot-path implementation may
// change freely — slab scheduler, shared-payload broadcast, dense detector
// state — but the *observable* run artifacts may not. The fixtures below
// were captured from the pre-optimization implementation (PR 3 head) for the
// stock occupancy config under all three wire clock modes; this suite
// asserts that detections, the per-run metrics snapshot CSV, the trace
// JSONL, and the sweep-merged metrics CSV reproduce them byte-identically
// at 1 and at 8 worker threads.
//
// To regenerate after an *intentional* semantic change (never after a pure
// optimization), run with PSN_GOLDEN_PRINT=1 and paste the printed table:
//   PSN_GOLDEN_PRINT=1 ./test_golden --gtest_filter='*Golden*'

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/export.hpp"
#include "analysis/sweep.hpp"
#include "common/error.hpp"
#include "common/name.hpp"
#include "common/table.hpp"
#include "core/detectors.hpp"
#include "core/predicate_parser.hpp"
#include "net/message.hpp"
#include "sim/fault.hpp"

namespace psn::analysis {
namespace {

// FNV-1a 64-bit: tiny, dependency-free, stable across platforms for byte
// input — all we need to pin run artifacts without committing megabytes.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

/// The stock occupancy configuration (all defaults) with tracing enabled and
/// a horizon short enough for a test budget. Every default the experiment
/// ships with — doors, capacity, rate, Δ, ε, lossless, always-on — is kept.
OccupancyConfig stock(net::ClockMode mode) {
  OccupancyConfig cfg;
  cfg.horizon = Duration::seconds(20);
  cfg.clock_mode = mode;
  cfg.trace_capacity = 1 << 18;  // complete trace; eviction would fail below
  return cfg;
}

/// Each detector's name, then its transition stream as CSV: detected_s,
/// to_true, borderline, cause_s, update_index.
std::string detections_bytes(const OccupancyRunResult& run) {
  std::string out;
  for (const DetectorOutcome& o : run.outcomes) {
    out += o.detector;
    out += '\n';
    Table t({"detected_s", "to_true", "borderline", "cause_s", "update_index"});
    for (const core::Detection& d : o.detections) {
      t.row()
          .cell(d.detected_at.to_seconds(), 9)
          .cell(d.to_true ? "1" : "0")
          .cell(d.borderline ? "1" : "0")
          .cell(d.cause_true_time.to_seconds(), 9)
          .cell(d.update_index);
    }
    out += t.csv();
  }
  return out;
}

struct GoldenHashes {
  const char* mode;
  const char* detections;
  const char* metrics_csv;
  const char* trace_jsonl;
};

// --- fixtures: sharded-replay implementation, seed 1, 20 s horizon ---
// (Re-pinned when psn::Rng's engine became SplitMix64 in place of
// std::mt19937_64: every draw — world events, delays, losses, drift —
// changed, so every hash below changed, while the keying of each stream and
// the statistics did not. The claim tests (`ctest -L claims`) gate such a
// re-pin. Regenerated before that for the Δ-windowed sharded runner, whose
// pre-rolled world timeline and per-source strided message seqs changed seqs
// and delay draws. The metrics-CSV column, here and in the shard and faulty
// fixtures below, was re-pinned when the scheduler lost event cancellation:
// the snapshot dropped its always-zero `sim.events_cancelled` row and
// nothing else.)
constexpr GoldenHashes kGolden[] = {
    {"scalar", "d328818301e36c5a", "570dc82764f685bd", "bbbd692b3fb31e93"},
    {"vector", "d328818301e36c5a", "b2c9ab31e865ff77", "dd355658d09b8707"},
    {"physical", "d328818301e36c5a", "4d178d29f4fdf591", "6f6e05155d47258f"},
};
constexpr const char* kGoldenSweepMetricsCsv = "51cba6b38261bdb8";

bool print_mode() { return std::getenv("PSN_GOLDEN_PRINT") != nullptr; }

std::vector<OccupancyConfig> stock_configs() {
  return {stock(net::ClockMode::kScalarStrobe),
          stock(net::ClockMode::kVectorStrobe),
          stock(net::ClockMode::kPhysical)};
}

class GoldenDeterminismTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(GoldenDeterminismTest, RunArtifactsMatchPreOptimizationFixtures) {
  const unsigned threads = GetParam();
  const std::vector<OccupancyRunResult> runs =
      run_specs(stock_configs(), threads);
  ASSERT_EQ(runs.size(), 3u);

  for (std::size_t i = 0; i < runs.size(); ++i) {
    const OccupancyRunResult& run = runs[i];
    ASSERT_EQ(run.trace_evicted, 0u) << "trace ring too small for the run";
    const std::string det = hex64(fnv1a(detections_bytes(run)));
    const std::string met = hex64(fnv1a(run.metrics.csv()));
    const std::string tra = hex64(fnv1a(trace_jsonl(run.trace)));
    if (print_mode()) {
      std::printf("    {\"%s\", \"%s\", \"%s\", \"%s\"},\n", kGolden[i].mode,
                  det.c_str(), met.c_str(), tra.c_str());
      continue;
    }
    EXPECT_EQ(det, kGolden[i].detections)
        << kGolden[i].mode << ": detection stream diverged from golden";
    EXPECT_EQ(met, kGolden[i].metrics_csv)
        << kGolden[i].mode << ": metrics snapshot diverged from golden";
    EXPECT_EQ(tra, kGolden[i].trace_jsonl)
        << kGolden[i].mode << ": trace JSONL diverged from golden";
  }
}

TEST_P(GoldenDeterminismTest, SweepMergedMetricsMatchFixture) {
  // The merge path: three modes × two replications fanned across the pool,
  // merged in grid order. Exercises the metric-merge determinism contract on
  // top of the per-run one.
  const unsigned threads = GetParam();
  SweepSpec spec = sweep(stock(net::ClockMode::kScalarStrobe));
  spec.vary_custom(
          {[](OccupancyConfig& c) { c.clock_mode = net::ClockMode::kScalarStrobe; },
           [](OccupancyConfig& c) { c.clock_mode = net::ClockMode::kVectorStrobe; },
           [](OccupancyConfig& c) { c.clock_mode = net::ClockMode::kPhysical; }})
      .replications(2)
      .threads(threads);
  const std::string csv_hash = hex64(fnv1a(spec.run().metrics_csv()));
  if (print_mode()) {
    std::printf("    kGoldenSweepMetricsCsv = \"%s\"\n", csv_hash.c_str());
    return;
  }
  EXPECT_EQ(csv_hash, kGoldenSweepMetricsCsv);
}

INSTANTIATE_TEST_SUITE_P(Threads, GoldenDeterminismTest,
                         ::testing::Values(1u, 8u),
                         [](const ::testing::TestParamInfo<unsigned>& param) {
                           return std::to_string(param.param) + "threads";
                         });

// --- the sharding acceptance bar (DESIGN.md §14) -------------------------
//
// One run config, every (shards × pool threads) shape, all three wire clock
// modes: detections, the metrics snapshot CSV, and the trace JSONL must be
// byte-identical to the 1-shard run of the same config — and the 1-shard
// run itself is pinned so cross-session drift cannot hide behind the
// self-comparison.

struct ShardArtifacts {
  std::string detections;
  std::string metrics_csv;
  std::string trace_jsonl;
};

ShardArtifacts artifacts_of(const OccupancyRunResult& run) {
  return {hex64(fnv1a(detections_bytes(run))), hex64(fnv1a(run.metrics.csv())),
          hex64(fnv1a(trace_jsonl(run.trace)))};
}

/// doors = 8 (9 processes) so the grid reaches 8 shards; shorter horizon —
/// the grid multiplies runs 15×.
OccupancyConfig shard_grid_config(net::ClockMode mode) {
  OccupancyConfig cfg = stock(mode);
  cfg.doors = 8;
  cfg.horizon = Duration::seconds(10);
  return cfg;
}

// Fixtures for the 1-shard doors = 8 reference runs (PSN_GOLDEN_PRINT=1).
constexpr GoldenHashes kShardGolden[] = {
    {"scalar", "86e9f05c3e6359fa", "674cc4ede90dfcd9", "78c1d9ada162e390"},
    {"vector", "86e9f05c3e6359fa", "ebfc4c7dd6254295", "99713896c683a429"},
    {"physical", "86e9f05c3e6359fa", "fe691571bd614b69", "ca1bd08640e79925"},
};

class ShardedGoldenTest : public ::testing::Test {};

TEST(ShardedGoldenTest, ShardCountAndPoolSizeNeverChangeArtifacts) {
  const net::ClockMode modes[] = {net::ClockMode::kScalarStrobe,
                                  net::ClockMode::kVectorStrobe,
                                  net::ClockMode::kPhysical};
  for (std::size_t i = 0; i < 3; ++i) {
    const OccupancyConfig base = shard_grid_config(modes[i]);
    const OccupancyRunResult ref_run = run_occupancy_experiment(base);
    ASSERT_EQ(ref_run.trace_evicted, 0u);
    const ShardArtifacts ref = artifacts_of(ref_run);
    if (print_mode()) {
      std::printf("    {\"%s\", \"%s\", \"%s\", \"%s\"},\n", kShardGolden[i].mode,
                  ref.detections.c_str(), ref.metrics_csv.c_str(),
                  ref.trace_jsonl.c_str());
    } else {
      EXPECT_EQ(ref.detections, kShardGolden[i].detections)
          << kShardGolden[i].mode << ": 1-shard reference drifted";
      EXPECT_EQ(ref.metrics_csv, kShardGolden[i].metrics_csv)
          << kShardGolden[i].mode << ": 1-shard reference drifted";
      EXPECT_EQ(ref.trace_jsonl, kShardGolden[i].trace_jsonl)
          << kShardGolden[i].mode << ": 1-shard reference drifted";
    }

    struct Shape {
      std::size_t shards;
      std::size_t threads;
    };
    for (const Shape shape :
         {Shape{2, 1}, Shape{2, 8}, Shape{8, 1}, Shape{8, 8}}) {
      OccupancyConfig sharded = base;
      sharded.shards = shape.shards;
      sharded.shard_threads = shape.threads;
      const OccupancyRunResult run = run_occupancy_experiment(sharded);
      const ShardArtifacts got = artifacts_of(run);
      const std::string where = std::string(kShardGolden[i].mode) + " @ " +
                                std::to_string(shape.shards) + " shards × " +
                                std::to_string(shape.threads) + " threads";
      EXPECT_EQ(got.detections, ref.detections) << where << ": detections";
      EXPECT_EQ(got.metrics_csv, ref.metrics_csv) << where << ": metrics";
      EXPECT_EQ(got.trace_jsonl, ref.trace_jsonl) << where << ": trace";
      EXPECT_GT(run.shard_windows, 0u) << where;
    }
  }
}

// --- the fault-layer acceptance bar (DESIGN.md §15) ----------------------
//
// A faulty run — two crash windows, a partition window, a drift spike, and
// scheduled burst loss — must produce byte-identical artifacts at every
// (shards × pool threads) shape under all three wire clock modes, and the
// 1-shard reference is pinned so cross-session drift cannot hide behind the
// self-comparison. Fault schedules are config-derived pure data, so this is
// exactly as strong a bar as the fault-free one above.

OccupancyConfig faulty_grid_config(net::ClockMode mode) {
  OccupancyConfig cfg = shard_grid_config(mode);
  cfg.faults = sim::parse_fault_plan(
      "crash:3@2+3;crash:5@6+2;cut:1-4@3+4;drift:2@1+5:200");
  cfg.loss_windows.push_back({SimTime::zero() + Duration::seconds(4),
                              SimTime::zero() + Duration::seconds(5)});
  cfg.loss_probability = 0.05;
  cfg.check = true;  // the checker must stay clean at every shape, too
  return cfg;
}

// Fixtures for the 1-shard faulty reference runs (PSN_GOLDEN_PRINT=1).
constexpr GoldenHashes kFaultyGolden[] = {
    {"scalar", "266cbe563a21b6e1", "ab72d2bb3f634615", "e4c95284afaa1148"},
    {"vector", "266cbe563a21b6e1", "1e2716122cb10709", "d4435123886197f5"},
    {"physical", "266cbe563a21b6e1", "8a0bc3aee770b8d9", "729e0b0ebdc5bfe1"},
};

TEST(FaultyGoldenTest, FaultScheduleNeverBreaksShardOrThreadDeterminism) {
  const net::ClockMode modes[] = {net::ClockMode::kScalarStrobe,
                                  net::ClockMode::kVectorStrobe,
                                  net::ClockMode::kPhysical};
  for (std::size_t i = 0; i < 3; ++i) {
    const OccupancyConfig base = faulty_grid_config(modes[i]);
    const OccupancyRunResult ref_run = run_occupancy_experiment(base);
    ASSERT_EQ(ref_run.trace_evicted, 0u);
    ASSERT_TRUE(ref_run.check.has_value());
    EXPECT_TRUE(ref_run.check->clean()) << ref_run.check->summary();
    const ShardArtifacts ref = artifacts_of(ref_run);
    if (print_mode()) {
      std::printf("    {\"%s\", \"%s\", \"%s\", \"%s\"},\n",
                  kFaultyGolden[i].mode, ref.detections.c_str(),
                  ref.metrics_csv.c_str(), ref.trace_jsonl.c_str());
    } else {
      EXPECT_EQ(ref.detections, kFaultyGolden[i].detections)
          << kFaultyGolden[i].mode << ": faulty 1-shard reference drifted";
      EXPECT_EQ(ref.metrics_csv, kFaultyGolden[i].metrics_csv)
          << kFaultyGolden[i].mode << ": faulty 1-shard reference drifted";
      EXPECT_EQ(ref.trace_jsonl, kFaultyGolden[i].trace_jsonl)
          << kFaultyGolden[i].mode << ": faulty 1-shard reference drifted";
    }

    struct Shape {
      std::size_t shards;
      std::size_t threads;
    };
    for (const Shape shape :
         {Shape{1, 8}, Shape{4, 1}, Shape{4, 8}}) {
      OccupancyConfig sharded = base;
      sharded.shards = shape.shards;
      sharded.shard_threads = shape.threads;
      const OccupancyRunResult run = run_occupancy_experiment(sharded);
      ASSERT_TRUE(run.check.has_value());
      EXPECT_TRUE(run.check->clean()) << run.check->summary();
      const ShardArtifacts got = artifacts_of(run);
      const std::string where = std::string(kFaultyGolden[i].mode) + " @ " +
                                std::to_string(shape.shards) + " shards × " +
                                std::to_string(shape.threads) + " threads";
      EXPECT_EQ(got.detections, ref.detections) << where << ": detections";
      EXPECT_EQ(got.metrics_csv, ref.metrics_csv) << where << ": metrics";
      EXPECT_EQ(got.trace_jsonl, ref.trace_jsonl) << where << ": trace";
    }
  }
}

TEST(ShardedGoldenTest, ChurnHeavyConfigStaysIdenticalAcrossShards) {
  // Loss draws, scheduled burst windows, and unaligned duty cycling all bend
  // the per-message hot path (drops consume RNG draws; wake schedules warp
  // arrival instants). None of it may depend on the shard count.
  OccupancyConfig cfg = shard_grid_config(net::ClockMode::kVectorStrobe);
  cfg.loss_probability = 0.3;
  cfg.loss_windows.push_back({SimTime::zero() + Duration::seconds(2),
                              SimTime::zero() + Duration::seconds(4)});
  net::DutyCycle duty;
  duty.period = Duration::millis(40);
  duty.window = Duration::millis(25);
  cfg.duty_cycle = duty;
  cfg.duty_phases_aligned = false;

  const OccupancyRunResult ref = run_occupancy_experiment(cfg);
  const ShardArtifacts want = artifacts_of(ref);
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    OccupancyConfig sharded = cfg;
    sharded.shards = shards;
    sharded.shard_threads = 4;
    const ShardArtifacts got = artifacts_of(run_occupancy_experiment(sharded));
    EXPECT_EQ(got.detections, want.detections) << shards << " shards";
    EXPECT_EQ(got.metrics_csv, want.metrics_csv) << shards << " shards";
    EXPECT_EQ(got.trace_jsonl, want.trace_jsonl) << shards << " shards";
  }
}

// --- interning order never reaches an output (DESIGN.md §9) ---------------
//
// A Name's handle depends on which names a process interned first. A run
// must not care: every golden above was pinned in processes that interned
// the vocabulary in the order a run meets it, and the same hashes must come
// out when that order is reversed.

/// Every name a golden run interns: the scenarios' attributes, each
/// detector's two transition notes and the transport's fault causes. A run
/// meets "entered" first and the detector notes in loop order, so interning
/// this list backwards reverses their handle order.
std::vector<std::string> run_vocabulary() {
  std::vector<std::string> names = {"entered", "exited",     "temp",
                                    "occupied", "restricted"};
  for (const auto& detector : core::all_online_detectors()) {
    names.push_back(detector->name() + ":true");
    names.push_back(detector->name() + ":false");
  }
  for (const char* cause : {"partition", "crash", "duty-cycle"}) {
    names.emplace_back(cause);
  }
  return names;
}

/// The 1-shard golden configs with their pinned hashes.
struct PinnedRun {
  OccupancyConfig config;
  GoldenHashes hashes;
};

std::vector<PinnedRun> pinned_runs() {
  const net::ClockMode modes[] = {net::ClockMode::kScalarStrobe,
                                  net::ClockMode::kVectorStrobe,
                                  net::ClockMode::kPhysical};
  std::vector<PinnedRun> runs;
  for (std::size_t i = 0; i < 3; ++i) {
    runs.push_back({stock(modes[i]), kGolden[i]});
    runs.push_back({shard_grid_config(modes[i]), kShardGolden[i]});
    runs.push_back({faulty_grid_config(modes[i]), kFaultyGolden[i]});
  }
  return runs;
}

TEST(InterningOrderDeathTest, ReverseInterningLeavesEveryGoldenUnchanged) {
  if (print_mode()) GTEST_SKIP() << "re-pinning: the fixtures may be stale";
  // Death tests run before every other test, so the forked child starts
  // from an empty table and the reverse order fixes every handle a run
  // takes; the child's exit code is the verdict.
  EXPECT_EXIT(
      {
        if (Name::table_size() != 0) {
          std::fputs("name table not empty at fork\n", stderr);
          std::exit(2);
        }
        const std::vector<std::string> names = run_vocabulary();
        for (auto it = names.rbegin(); it != names.rend(); ++it) {
          [[maybe_unused]] const Name name(*it);
        }
        int diverged = 0;
        for (const PinnedRun& pinned : pinned_runs()) {
          const ShardArtifacts got =
              artifacts_of(run_occupancy_experiment(pinned.config));
          if (got.detections != pinned.hashes.detections ||
              got.metrics_csv != pinned.hashes.metrics_csv ||
              got.trace_jsonl != pinned.hashes.trace_jsonl) {
            std::fprintf(stderr, "%s run diverged\n", pinned.hashes.mode);
            diverged++;
          }
        }
        std::exit(diverged == 0 ? 0 : 1);
      },
      testing::ExitedWithCode(0), "");
}

// --- names resolve once; parsers never intern ----------------------------

TEST(NameTableTest, TracedRerunsInternNothing) {
  const std::vector<PinnedRun> runs = pinned_runs();
  for (const PinnedRun& pinned : runs) run_occupancy_experiment(pinned.config);
  const std::size_t size = Name::table_size();
  for (const PinnedRun& pinned : runs) {
    const OccupancyRunResult run = run_occupancy_experiment(pinned.config);
    EXPECT_FALSE(run.trace.empty()) << pinned.hashes.mode;
    EXPECT_EQ(Name::table_size(), size) << pinned.hashes.mode;
  }
}

TEST(NameTableTest, PredicateAndFaultParsersNeverIntern) {
  const std::size_t size = Name::table_size();
  for (int i = 0; i < 10'000; ++i) {
    const std::string id = "fresh_" + std::to_string(i);
    const core::Predicate p = core::parse_predicate(
        "p" + std::to_string(i),
        "sum(" + id + ") - " + id + "_x[2] > " + std::to_string(i) +
            " && count(" + id + "_y) >= 1");
    EXPECT_FALSE(p.is_conjunctive());
  }
  for (const char* plan :
       {"crash:", "crash:x@1+2", "crash:3@", "crash:3@1+0", "crash:3@1e400+2",
        "cut:1@1+2", "cut:1-2@1", "drift:2@1+5", "drift:2@1+5:ppm",
        "bogus:1@1+1", "fresh_name:1@1+1"}) {
    EXPECT_THROW(sim::parse_fault_plan(plan), ConfigError) << plan;
  }
  EXPECT_EQ(Name::table_size(), size);
}

}  // namespace
}  // namespace psn::analysis
