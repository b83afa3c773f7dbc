#include "analysis/sweep.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace psn::analysis {
namespace {

using namespace psn::time_literals;

OccupancyConfig small_base(std::uint64_t seed = 1) {
  OccupancyConfig cfg;
  cfg.doors = 2;
  cfg.capacity = 50;
  cfg.movement_rate = 10.0;
  cfg.delta = 50_ms;
  cfg.horizon = 10_s;
  cfg.seed = seed;
  return cfg;
}

TEST(SweepSpecTest, ExpandsRowMajorInDeclarationOrder) {
  const auto specs = sweep(small_base())
                         .vary_doors({2, 3})
                         .vary_rate({5.0, 10.0, 15.0})
                         .replications(2)
                         .expand();
  ASSERT_EQ(specs.size(), 2u * 3u * 2u);
  // First axis (doors) slowest, then rate, then replication.
  EXPECT_EQ(specs[0].config.doors, 2u);
  EXPECT_DOUBLE_EQ(specs[0].config.movement_rate, 5.0);
  EXPECT_EQ(specs[0].config.seed, 1u);
  EXPECT_EQ(specs[1].config.seed, 2u);
  EXPECT_EQ(specs[1].point, 0u);
  EXPECT_EQ(specs[1].replication, 1u);
  EXPECT_DOUBLE_EQ(specs[2].config.movement_rate, 10.0);
  EXPECT_EQ(specs[6].config.doors, 3u);
  EXPECT_DOUBLE_EQ(specs[6].config.movement_rate, 5.0);
  EXPECT_EQ(specs[6].point, 3u);
}

TEST(SweepSpecTest, RunMergesEveryDetectorPerPoint) {
  const auto result =
      sweep(small_base()).vary_rate({5.0, 10.0}).replications(2).run();
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_EQ(result.runs, 4u);
  for (const auto& point : result.points) {
    ASSERT_EQ(point.detectors.size(), 4u);
    EXPECT_EQ(point.at("strobe-vector").belief_accuracy.count(), 2u);
    EXPECT_GT(point.world_events, 0u);
  }
  EXPECT_THROW(result.points[0].at("nonexistent"), InvariantError);
}

TEST(SweepSpecTest, MatchesSequentialPerRunResults) {
  // One grid point, two seeds: the sweep must equal hand-run experiments
  // accumulated in seed order.
  const auto result = sweep(small_base(7)).replications(2).run();
  DetectionScore expected;
  for (std::uint64_t s = 7; s <= 8; ++s) {
    expected += run_occupancy_experiment(small_base(s))
                    .outcome("strobe-vector")
                    .score;
  }
  const auto& got = result.points[0].at("strobe-vector").score;
  EXPECT_EQ(got.true_positives, expected.true_positives);
  EXPECT_EQ(got.false_positives, expected.false_positives);
  EXPECT_EQ(got.false_negatives, expected.false_negatives);
  EXPECT_EQ(got.oracle_occurrences, expected.oracle_occurrences);
}

TEST(SweepDeterminismTest, OneAndEightThreadSweepsAreByteIdentical) {
  auto spec = sweep(small_base())
                  .vary_delta({10_ms, 50_ms, 150_ms})
                  .replications(3);
  const std::string serial = spec.threads(1).run().csv();
  const std::string parallel = spec.threads(8).run().csv();
  EXPECT_EQ(serial, parallel);
  EXPECT_FALSE(serial.empty());
}

TEST(SweepDeterminismTest, MetricSnapshotsAreByteIdenticalAcrossThreadCounts) {
  // Metric merging (counters, gauges, RunningStats, histogram bins) happens
  // in grid order regardless of which worker finished first, so the merged
  // snapshots — including FP-sensitive stat summaries — must serialize to
  // the same bytes at 1 and 8 threads.
  auto spec = sweep(small_base())
                  .vary_rate({5.0, 10.0})
                  .replications(4);
  const SweepResult serial = spec.threads(1).run();
  const SweepResult parallel = spec.threads(8).run();
  const std::string serial_csv = serial.metrics_csv();
  EXPECT_EQ(serial_csv, parallel.metrics_csv());
  EXPECT_FALSE(serial_csv.empty());
  // And the snapshot actually carries the run's traffic.
  for (const auto& point : serial.points) {
    EXPECT_GT(point.metrics.counters.at("net.sent"), 0u);
    EXPECT_EQ(point.metrics.stats.at("detector.strobe-vector.belief_accuracy")
                  .count(),
              4u);  // one sample per replication survived the merge
  }
}

TEST(SweepSpecTest, RunSpecsPreservesInputOrder) {
  std::vector<OccupancyConfig> configs;
  for (std::uint64_t s = 1; s <= 6; ++s) configs.push_back(small_base(s));
  const auto runs = run_specs(configs, 4);
  ASSERT_EQ(runs.size(), 6u);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto solo = run_occupancy_experiment(configs[i]);
    EXPECT_EQ(runs[i].world_events, solo.world_events) << "run " << i;
    EXPECT_EQ(runs[i].observed_updates, solo.observed_updates) << "run " << i;
  }
}

TEST(SweepValidationTest, RejectsNonsenseConfigsBeforeRunning) {
  EXPECT_THROW(sweep(small_base()).vary_doors({2, 0}).expand(), ConfigError);

  OccupancyConfig negative_rate = small_base();
  negative_rate.movement_rate = -1.0;
  EXPECT_THROW(sweep(negative_rate).run(), ConfigError);

  OccupancyConfig zero_delta = small_base();
  zero_delta.delta = Duration::zero();  // nonsense under kUniformBounded
  EXPECT_THROW(sweep(zero_delta).run(), ConfigError);
  zero_delta.delay_kind = core::DelayKind::kSynchronous;
  EXPECT_NO_THROW(validate(zero_delta));

  EXPECT_THROW(sweep(small_base()).replications(0), ConfigError);
}

TEST(SweepValidationTest, ValidatedRejectsAtExperimentBoundary) {
  OccupancyConfig bad = small_base();
  bad.doors = 0;
  EXPECT_THROW(run_occupancy_experiment(bad), ConfigError);
  bad = small_base();
  bad.loss_probability = 1.5;
  EXPECT_THROW(run_occupancy_experiment(bad), ConfigError);
  bad = small_base();
  bad.horizon = Duration::zero();
  EXPECT_THROW(run_occupancy_experiment(bad), ConfigError);
  EXPECT_NO_THROW(validate(small_base()));
}

}  // namespace
}  // namespace psn::analysis
