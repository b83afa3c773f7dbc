#include "core/proximity.hpp"

#include <gtest/gtest.h>

#include "analysis/scoring.hpp"
#include "common/error.hpp"
#include "core/detectors.hpp"
#include "core/oracle.hpp"
#include "core/predicate_parser.hpp"
#include "world/mobility.hpp"

namespace psn::core {
namespace {

using namespace psn::time_literals;

struct Field {
  explicit Field(std::uint64_t seed = 1, Duration delta = 50_ms) {
    ShardedSystemConfig config;
    SystemConfig& sys = config.base;
    sys.num_sensors = 2;
    sys.sim.seed = seed;
    sys.sim.horizon = SimTime::zero() + 120_s;
    sys.delta = delta;
    system = std::make_unique<ShardedPervasiveSystem>(config);
    // Two overlapping zones: sensor 1 at x=0, sensor 2 at x=15, radius 10 —
    // the overlap is x in [5, 10].
    field = std::make_unique<ProximityField>(
        *system, std::vector<ProximityField::SensorZone>{
                     {1, {0.0, 0.0}, 10.0}, {2, {15.0, 0.0}, 10.0}});
  }
  std::unique_ptr<ShardedPervasiveSystem> system;
  std::unique_ptr<ProximityField> field;
};

TEST(ProximityFieldTest, InitialContainmentPublished) {
  Field f;
  const auto zebra = f.system->world().create_object("zebra", {3.0, 0.0});
  f.field->track(zebra);
  // Inside zone 1, outside zone 2, recorded as world events at t=0.
  const auto& timeline = f.system->world().timeline();
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline.at(0).attribute, "near_zebra");
  EXPECT_TRUE(timeline.at(0).value.as_bool());
  EXPECT_FALSE(timeline.at(1).value.as_bool());
  EXPECT_EQ(f.field->sensors_in_range(zebra), (std::vector<ProcessId>{1}));
}

TEST(ProximityFieldTest, CrossingEmitsTransitions) {
  Field f;
  const auto zebra = f.system->world().create_object("zebra", {-20.0, 0.0});
  f.field->track(zebra);
  // March the zebra straight through both zones.
  world::PatrolMobility patrol(f.system->world(), zebra, {{40.0, 0.0}},
                               /*speed=*/2.0, /*tick=*/100_ms);
  patrol.start();
  f.system->run();

  // Ground truth: entered and left both zones.
  const auto changes = [&](ProcessId zone) {
    std::size_t n = 0;
    for (const world::WorldEvent& ev : f.system->world().timeline().events()) {
      if (ev.object == f.field->zone_object(zone) &&
          ev.attribute == "near_zebra") {
        n++;
      }
    }
    return n;
  };
  // initial false, enter, exit → at least 3 events each.
  EXPECT_GE(changes(1), 3u);
  EXPECT_GE(changes(2), 3u);
  EXPECT_TRUE(f.field->sensors_in_range(zebra).empty());
}

TEST(ProximityFieldTest, OverlapPredicateDetectedEndToEnd) {
  Field f;
  const auto zebra = f.system->world().create_object("zebra", {-15.0, 0.0});
  f.field->track(zebra);
  // Patrol back and forth through the overlap region several times.
  world::PatrolMobility patrol(f.system->world(), zebra,
                               {{30.0, 0.0}, {-15.0, 0.0}},
                               /*speed=*/2.0, /*tick=*/100_ms);
  patrol.start();
  f.system->run();

  const auto phi = parse_predicate(
      "in_overlap", "near_zebra[1] && near_zebra[2]");
  const GroundTruthOracle oracle(phi, f.system->sensing());
  const auto truth =
      oracle.evaluate(f.system->world().timeline(),
                      SimTime::zero() + 120_s);
  // One traversal of the overlap per direction change: several occurrences.
  EXPECT_GE(truth.occurrences.size(), 3u);

  analysis::ScoreConfig cfg;
  cfg.tolerance = 150_ms;
  const auto detections =
      StrobeVectorDetector().run(f.system->log(), phi);
  const auto score = analysis::score_detections(truth, detections, cfg);
  // Zone crossings are seconds apart — far beyond Δ — so detection must be
  // essentially perfect.
  EXPECT_EQ(score.false_negatives, 0u);
  EXPECT_EQ(score.false_positives, 0u);
  EXPECT_EQ(score.true_positives, truth.occurrences.size());
}

TEST(ProximityFieldTest, MultipleTrackedObjects) {
  Field f;
  const auto zebra = f.system->world().create_object("zebra", {0.0, 0.0});
  const auto lion = f.system->world().create_object("lion", {15.0, 0.0});
  f.field->track(zebra);
  f.field->track(lion);
  // Distinct variables exist for each animal.
  EXPECT_TRUE(f.system->world()
                  .object(f.field->zone_object(1))
                  .has_attribute("near_zebra"));
  EXPECT_TRUE(f.system->world()
                  .object(f.field->zone_object(1))
                  .has_attribute("near_lion"));
  EXPECT_EQ(f.field->sensors_in_range(zebra), (std::vector<ProcessId>{1}));
  EXPECT_EQ(f.field->sensors_in_range(lion), (std::vector<ProcessId>{2}));
}

TEST(ProximityFieldTest, Validation) {
  ShardedSystemConfig config;
  SystemConfig& sys = config.base;
  sys.num_sensors = 1;
  ShardedPervasiveSystem system(config);
  EXPECT_THROW(ProximityField(system, {}), InvariantError);
  EXPECT_THROW(ProximityField(
                   system, {{0, {0.0, 0.0}, 5.0}}),  // root cannot sense
               InvariantError);
  EXPECT_THROW(ProximityField(system, {{1, {0.0, 0.0}, -1.0}}),
               InvariantError);
}

}  // namespace
}  // namespace psn::core
