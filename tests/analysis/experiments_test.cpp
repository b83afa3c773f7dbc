#include "analysis/experiments.hpp"

#include <gtest/gtest.h>

#include "analysis/sweep.hpp"

namespace psn::analysis {
namespace {

using namespace psn::time_literals;

OccupancyConfig small_config(std::uint64_t seed = 1) {
  OccupancyConfig cfg;
  cfg.doors = 2;
  cfg.capacity = 50;
  cfg.movement_rate = 10.0;
  cfg.delta = 50_ms;
  cfg.horizon = 20_s;
  cfg.seed = seed;
  return cfg;
}

TEST(OccupancyExperimentTest, ProducesAllFourDetectors) {
  const auto run = run_occupancy_experiment(small_config());
  ASSERT_EQ(run.outcomes.size(), 4u);
  EXPECT_NO_THROW(run.outcome("strobe-vector"));
  EXPECT_NO_THROW(run.outcome("strobe-scalar"));
  EXPECT_NO_THROW(run.outcome("physical-eps"));
  EXPECT_NO_THROW(run.outcome("delivery-order"));
  EXPECT_THROW(run.outcome("nonexistent"), InvariantError);
}

TEST(OccupancyExperimentTest, PhysicalDetectorNearPerfectAtTinyEpsilon) {
  OccupancyConfig cfg = small_config(3);
  cfg.sync_epsilon = 10_us;
  const auto run = run_occupancy_experiment(cfg);
  const auto& phys = run.outcome("physical-eps").score;
  EXPECT_GT(phys.oracle_occurrences, 3u);
  EXPECT_DOUBLE_EQ(phys.recall(), 1.0);
  EXPECT_DOUBLE_EQ(phys.precision(), 1.0);
}

TEST(OccupancyExperimentTest, DeterministicForSameSeed) {
  const auto a = run_occupancy_experiment(small_config(9));
  const auto b = run_occupancy_experiment(small_config(9));
  EXPECT_EQ(a.world_events, b.world_events);
  EXPECT_EQ(a.observed_updates, b.observed_updates);
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].score.true_positives,
              b.outcomes[i].score.true_positives);
    EXPECT_EQ(a.outcomes[i].detections.size(),
              b.outcomes[i].detections.size());
  }
}

TEST(OccupancyExperimentTest, OracleSeesThresholdCrossings) {
  const auto run = run_occupancy_experiment(small_config(4));
  EXPECT_GT(run.oracle.occurrences.size(), 2u);
  EXPECT_GT(run.oracle.fraction_true, 0.0);
  EXPECT_LT(run.oracle.fraction_true, 1.0);
  EXPECT_GT(run.world_events, 50u);
  EXPECT_GT(run.observed_updates, 50u);
}

TEST(OccupancyExperimentTest, StrobeTrafficAccounted) {
  const auto run = run_occupancy_experiment(small_config(5));
  const auto& strobes = run.message_stats.of(net::MessageKind::kStrobe);
  // Each sense event broadcasts to doors + root (= doors + 1 - 1 + ... ):
  // 2 doors + root = 3 processes, so 2 copies per sense.
  EXPECT_EQ(strobes.sent, run.world_events * 2);
  EXPECT_GT(strobes.bytes_sent, 0u);
}

TEST(OccupancyExperimentTest, EffectiveToleranceAuto) {
  OccupancyConfig cfg;
  cfg.delta = 100_ms;
  EXPECT_EQ(cfg.effective_tolerance(), 201_ms);
  cfg.score_tolerance = 5_ms;
  EXPECT_EQ(cfg.effective_tolerance(), 5_ms);
  OccupancyConfig unbounded;
  unbounded.delta = Duration::max();
  EXPECT_EQ(unbounded.effective_tolerance(), 2_s);
}

TEST(OccupancyExperimentTest, RejectsInvalidConfig) {
  OccupancyConfig bad = small_config();
  bad.doors = 0;
  EXPECT_THROW(run_occupancy_experiment(bad), ConfigError);
  bad = small_config();
  bad.movement_rate = -5.0;
  EXPECT_THROW(run_occupancy_experiment(bad), ConfigError);
}

TEST(OccupancyExperimentTest, RejectsConfigsTheModelsWouldAbortOn) {
  // Each of these once passed validate() and then failed an invariant
  // check inside a delay model, the hall, or the sharded window driver.
  using core::DelayKind;
  const auto config = [](DelayKind kind, Duration delta,
                         std::size_t shards = 1) {
    OccupancyConfig cfg = small_config();
    cfg.delay_kind = kind;
    cfg.delta = delta;
    cfg.shards = shards;
    return cfg;
  };
  for (const DelayKind kind :
       {DelayKind::kSynchronous, DelayKind::kFixed, DelayKind::kUniformBounded,
        DelayKind::kExponential}) {
    EXPECT_THROW(validate(config(kind, -(5_ms))), ConfigError);
  }
  EXPECT_THROW(validate(config(DelayKind::kExponential, 0_ms)), ConfigError);
  EXPECT_THROW(validate(config(DelayKind::kUniformBounded, 0_ms)), ConfigError);

  // Sharding needs a positive minimum one-hop delay: fixed 0 has none.
  EXPECT_NO_THROW(validate(config(DelayKind::kFixed, 0_ms)));
  EXPECT_THROW(validate(config(DelayKind::kFixed, 0_ms, 2)), ConfigError);
  EXPECT_THROW(validate(config(DelayKind::kSynchronous, 0_ms, 2)), ConfigError);
  EXPECT_NO_THROW(validate(config(DelayKind::kFixed, 50_ms, 2)));

  OccupancyConfig cfg = small_config();
  cfg.sync_epsilon = -(5_us);
  EXPECT_THROW(validate(cfg), ConfigError);
  cfg = small_config();
  cfg.movement_rate = 0.0;
  EXPECT_THROW(validate(cfg), ConfigError);

  // These passed validate() and then aborted, or failed with a ConfigError
  // only once the pre-roll had run, while the system was being built.
  cfg = small_config();
  net::DutyCycle dc;
  dc.phase = dc.period;
  cfg.duty_cycle = dc;
  EXPECT_THROW(validate(cfg), ConfigError);
  const auto with_faults = [](const std::string& plan) {
    OccupancyConfig faulty = small_config();
    faulty.faults = sim::parse_fault_plan(plan);
    return faulty;
  };
  EXPECT_THROW(validate(with_faults("crash:3@1+1")), ConfigError);  // 2 doors
  EXPECT_THROW(validate(with_faults("crash:0@1+2")), ConfigError);
  EXPECT_THROW(validate(with_faults("crash:1@1+2;crash:1@2+2")), ConfigError);
  cfg = with_faults("cut:1-2@1+1");
  EXPECT_NO_THROW(validate(cfg));  // the complete overlay has the edge
  cfg.topology = core::TopologyKind::kStar;
  EXPECT_THROW(validate(cfg), ConfigError);
}

TEST(ReplicationTest, SumsAcrossSeeds) {
  const auto agg =
      sweep(small_config(10)).replications(3).run().points.front().detectors;
  ASSERT_EQ(agg.size(), 4u);
  for (const auto& [name, outcome] : agg) {
    EXPECT_GT(outcome.score.oracle_occurrences, 0u) << name;
    EXPECT_EQ(outcome.belief_accuracy.count(), 3u) << name;
  }
  // Aggregate equals the sum of individual runs for one detector.
  std::size_t tp_sum = 0;
  for (std::uint64_t s = 10; s < 13; ++s) {
    tp_sum += run_occupancy_experiment(small_config(s))
                  .outcome("strobe-vector")
                  .score.true_positives;
  }
  EXPECT_EQ(agg.at("strobe-vector").score.true_positives, tp_sum);
}

}  // namespace
}  // namespace psn::analysis
