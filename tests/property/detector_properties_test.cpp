// End-to-end property sweeps over the occupancy experiment, parameterized by
// seed: the invariants the paper states must hold on EVERY run, not just on
// average.

#include <gtest/gtest.h>

#include "analysis/experiments.hpp"
#include "clocks/timestamp.hpp"
#include "core/sharded_system.hpp"

namespace psn::analysis {
namespace {

using namespace psn::time_literals;

class DetectorPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  OccupancyConfig config() const {
    OccupancyConfig cfg;
    cfg.doors = 3;
    cfg.capacity = 60;
    cfg.movement_rate = 15.0;
    cfg.delta = 80_ms;
    cfg.horizon = 25_s;
    cfg.seed = GetParam();
    return cfg;
  }
};

TEST_P(DetectorPropertyTest, ScalarDetectorNeverEmitsBorderline) {
  const auto run = run_occupancy_experiment(config());
  for (const auto& d : run.outcome("strobe-scalar").detections) {
    EXPECT_FALSE(d.borderline);
  }
  for (const auto& d : run.outcome("physical-eps").detections) {
    EXPECT_FALSE(d.borderline);
  }
}

TEST_P(DetectorPropertyTest, DetectionsAlternateTruthValues) {
  // Every detector's output is a valid transition stream: strictly
  // alternating to_true / to_false, starting with to_true (φ is false on the
  // empty state for this predicate).
  const auto run = run_occupancy_experiment(config());
  for (const auto& out : run.outcomes) {
    bool expect_true = true;
    for (const auto& d : out.detections) {
      EXPECT_EQ(d.to_true, expect_true) << out.detector;
      expect_true = !expect_true;
    }
  }
}

TEST_P(DetectorPropertyTest, DetectionTimesAreMonotone) {
  const auto run = run_occupancy_experiment(config());
  for (const auto& out : run.outcomes) {
    for (std::size_t i = 1; i < out.detections.size(); ++i) {
      EXPECT_GE(out.detections[i].detected_at,
                out.detections[i - 1].detected_at)
          << out.detector;
    }
  }
}

TEST_P(DetectorPropertyTest, PhysicalPerfectWithTinyEpsilonAndSparseEvents) {
  // ε = 1 us while inter-event gaps are ~70 ms: the physical detector sees
  // the exact true order — zero FP/FN, every time.
  OccupancyConfig cfg = config();
  cfg.movement_rate = 8.0;
  cfg.sync_epsilon = 1_us;
  const auto run = run_occupancy_experiment(cfg);
  const auto& phys = run.outcome("physical-eps").score;
  EXPECT_EQ(phys.false_positives, 0u);
  EXPECT_EQ(phys.false_negatives, 0u);
}

TEST_P(DetectorPropertyTest, SynchronousDeltaZeroAllDetectorsAgree) {
  // E9 / paper §4.2.3 point 5: at Δ = 0 with a strobe per event, the scalar
  // strobe detector equals the vector strobe detector — and both are exact.
  OccupancyConfig cfg = config();
  cfg.delay_kind = core::DelayKind::kSynchronous;
  cfg.delta = Duration::zero();
  cfg.score_tolerance = 1_ms;
  const auto run = run_occupancy_experiment(cfg);

  const auto& scalar = run.outcome("strobe-scalar");
  const auto& vector = run.outcome("strobe-vector");
  ASSERT_EQ(scalar.detections.size(), vector.detections.size());
  for (std::size_t i = 0; i < scalar.detections.size(); ++i) {
    EXPECT_EQ(scalar.detections[i].to_true, vector.detections[i].to_true);
    EXPECT_EQ(scalar.detections[i].cause_true_time,
              vector.detections[i].cause_true_time);
    EXPECT_FALSE(vector.detections[i].borderline) << "race at Δ=0?";
  }
  for (const auto& out : run.outcomes) {
    EXPECT_EQ(out.score.false_positives, 0u) << out.detector;
    EXPECT_EQ(out.score.false_negatives, 0u) << out.detector;
  }
}

TEST_P(DetectorPropertyTest, StrobeStampsOrderedWhenEventsFarApart) {
  // Sense events separated by more than the end-to-end Δ bound must carry
  // ordered (never concurrent) strobe vector stamps.
  const auto cfg = config();
  core::ShardedSystemConfig scfg;
  core::SystemConfig& sys = scfg.base;
  sys.num_sensors = cfg.doors;
  sys.sim.seed = cfg.seed;
  sys.sim.horizon = SimTime::zero() + cfg.horizon;
  sys.delta = cfg.delta;
  core::ShardedPervasiveSystem system(scfg);

  world::ExhibitionHallConfig hall_cfg;
  hall_cfg.doors = static_cast<int>(cfg.doors);
  hall_cfg.capacity = cfg.capacity;
  hall_cfg.movement_rate = cfg.movement_rate;
  hall_cfg.initial_occupancy = 0;
  world::ExhibitionHall hall(system.world(), hall_cfg,
                             system.sim().rng_for("hall"));
  for (int k = 0; k < hall_cfg.doors; ++k) {
    const auto pid = static_cast<ProcessId>(k + 1);
    system.assign(hall.door_object(k), "entered", pid);
    system.assign(hall.door_object(k), "exited", pid);
  }
  hall.start();
  system.run();

  const auto& updates = system.log().updates;
  const Duration bound = system.delta_bound();
  std::size_t checked = 0;
  for (std::size_t a = 0; a < updates.size(); ++a) {
    for (std::size_t b = a + 1; b < updates.size() && b < a + 40; ++b) {
      const auto& ua = updates[a].report;
      const auto& ub = updates[b].report;
      const Duration gap = (ub.true_sense_time - ua.true_sense_time).abs();
      if (gap <= bound) continue;
      checked++;
      const auto& early =
          ua.true_sense_time < ub.true_sense_time ? ua : ub;
      const auto& late = ua.true_sense_time < ub.true_sense_time ? ub : ua;
      EXPECT_NE(clocks::compare(early.strobe_vector, late.strobe_vector),
                clocks::Ordering::kConcurrent)
          << "events " << gap.to_string() << " apart (> Δ) raced";
      // And the scalar order must agree with true time.
      EXPECT_LT(early.strobe_scalar.value, late.strobe_scalar.value + 1);
    }
  }
  EXPECT_GT(checked, 100u);
}

TEST_P(DetectorPropertyTest, LossyRunStillProducesValidStream) {
  OccupancyConfig cfg = config();
  cfg.loss_probability = 0.2;
  const auto run = run_occupancy_experiment(cfg);
  for (const auto& out : run.outcomes) {
    bool expect_true = true;
    for (const auto& d : out.detections) {
      EXPECT_EQ(d.to_true, expect_true) << out.detector << " under loss";
      expect_true = !expect_true;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectorPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace psn::analysis
