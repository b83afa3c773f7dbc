#include "core/consensus.hpp"

#include <gtest/gtest.h>

#include "analysis/scoring.hpp"
#include "common/error.hpp"
#include "core/oracle.hpp"
#include "core/predicate_parser.hpp"
#include "world/generators.hpp"

namespace psn::core {
namespace {

using namespace psn::time_literals;

SimTime t(std::int64_t ms) { return SimTime::zero() + Duration::millis(ms); }

struct ConsensusFixture {
  explicit ConsensusFixture(Duration delta, std::uint64_t seed = 1) {
    ShardedSystemConfig config;
    SystemConfig& sys = config.base;
    sys.num_sensors = 2;
    sys.sim.seed = seed;
    sys.sim.horizon = SimTime::zero() + 60_s;
    sys.delta = delta;
    system = std::make_unique<ShardedPervasiveSystem>(config);
    enable_all_observers(*system);

    o1 = system->world().create_object("o1");
    o2 = system->world().create_object("o2");
    system->world().object(o1).set_attribute("x", std::int64_t{0});
    system->world().object(o2).set_attribute("x", std::int64_t{0});
    system->assign(o1, "x", 1);
    system->assign(o2, "x", 2);
  }

  std::unique_ptr<ShardedPervasiveSystem> system;
  world::ObjectId o1 = world::kNoObject;
  world::ObjectId o2 = world::kNoObject;
};

TEST(ConsensusTest, ObserverLogsCollected) {
  ConsensusFixture f(10_ms);
  const auto logs = ConsensusStrobeDetector::observer_logs(*f.system);
  EXPECT_EQ(logs.size(), 3u);  // root + 2 sensors
}

TEST(ConsensusTest, SensorsLogOwnAndRemoteReports) {
  ConsensusFixture f(10_ms);
  auto& sched = f.system->sim().scheduler();
  sched.schedule_at(t(100), [&] { f.system->world().emit(f.o1, "x", std::int64_t{1}); });
  sched.schedule_at(t(200), [&] { f.system->world().emit(f.o2, "x", std::int64_t{1}); });
  f.system->run();
  // Each sensor logs its own sense (instantly) plus the other's strobe.
  EXPECT_EQ(f.system->sensor(1).observation_log().updates.size(), 2u);
  EXPECT_EQ(f.system->sensor(2).observation_log().updates.size(), 2u);
  // Own report is logged at the sense instant.
  EXPECT_EQ(f.system->sensor(1).observation_log().updates[0].delivered_at,
            t(100));
}

TEST(ConsensusTest, WellSeparatedEventsAreUnanimous) {
  ConsensusFixture f(10_ms);
  auto& sched = f.system->sim().scheduler();
  // Events far apart (≫ Δ): every observer sees the same order.
  sched.schedule_at(t(100), [&] { f.system->world().emit(f.o1, "x", std::int64_t{1}); });
  sched.schedule_at(t(500), [&] { f.system->world().emit(f.o2, "x", std::int64_t{1}); });
  sched.schedule_at(t(900), [&] { f.system->world().emit(f.o1, "x", std::int64_t{0}); });
  f.system->run();

  const auto phi = parse_predicate("p", "x[1] > 0 && x[2] > 0");
  const auto logs = ConsensusStrobeDetector::observer_logs(*f.system);
  const auto detections = ConsensusStrobeDetector().run(logs, phi);
  ASSERT_EQ(detections.size(), 2u);
  for (const auto& d : detections) {
    EXPECT_FALSE(d.borderline) << "unraced transition flagged borderline";
  }
}

TEST(ConsensusTest, RacingEventsDisagreeSomewhere) {
  // Two sensors sense "simultaneously" (within Δ). Sensor 1 sees its own
  // event at once but sensor 2's only after the delay — and vice versa —
  // so their assembled orders differ and consensus must flag the
  // transition.
  ConsensusFixture f(200_ms);
  auto& sched = f.system->sim().scheduler();
  sched.schedule_at(t(500), [&] { f.system->world().emit(f.o1, "x", std::int64_t{1}); });
  sched.schedule_at(t(501), [&] { f.system->world().emit(f.o2, "x", std::int64_t{1}); });
  f.system->run();

  const auto phi = parse_predicate("p", "x[1] > 0 && x[2] > 0");
  const auto logs = ConsensusStrobeDetector::observer_logs(*f.system);
  const auto detections = ConsensusStrobeDetector().run(logs, phi);
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_TRUE(detections[0].to_true);
  EXPECT_TRUE(detections[0].borderline);
}

TEST(ConsensusTest, RequiresAtLeastTwoObservers) {
  ConsensusFixture f(10_ms);
  const auto phi = parse_predicate("p", "x[1] > 0");
  EXPECT_THROW(
      ConsensusStrobeDetector().run({&f.system->log()}, phi),
      InvariantError);
}

class ConsensusPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ConsensusPropertyTest, ConsensusBorderlineCoversErrors) {
  // On a busy run, score the consensus detector like any other: its
  // confident detections should have precision at least as good as the
  // single-observer vector detector, because disagreement catches races the
  // stamp heuristic can miss.
  ShardedSystemConfig config;
  SystemConfig& sys = config.base;
  sys.num_sensors = 3;
  sys.sim.seed = GetParam();
  sys.sim.horizon = SimTime::zero() + 60_s;
  sys.delta = 120_ms;
  ShardedPervasiveSystem system(config);
  enable_all_observers(system);

  std::vector<std::unique_ptr<world::AttributeDriver>> drivers;
  for (ProcessId pid = 1; pid <= 3; ++pid) {
    std::string name = "o";
    name += std::to_string(pid);
    const auto obj = system.world().create_object(name);
    system.world().object(obj).set_attribute("count", std::int64_t{0});
    system.assign(obj, "count", pid);
    drivers.push_back(std::make_unique<world::AttributeDriver>(
        system.world(), obj, "count",
        std::make_unique<world::PoissonArrivals>(4.0),
        std::make_unique<world::CounterValue>(),
        system.sim().rng_for("drv", pid)));
    drivers.back()->start();
  }
  system.run();

  const auto phi = parse_predicate("p", "sum(count) > 300");
  const GroundTruthOracle oracle(phi, system.sensing());
  const auto truth =
      oracle.evaluate(system.world().timeline(), SimTime::zero() + 60_s);

  analysis::ScoreConfig score_cfg;
  score_cfg.tolerance = 300_ms;
  const auto logs = ConsensusStrobeDetector::observer_logs(system);
  const auto consensus_dets = ConsensusStrobeDetector().run(logs, phi);
  const auto single_dets =
      Detector(DetectorKind::kStrobeVector).run(system.log(), phi);

  const auto consensus =
      analysis::score_detections(truth, consensus_dets, score_cfg);
  const auto single =
      analysis::score_detections(truth, single_dets, score_cfg);

  EXPECT_GE(consensus.precision(), single.precision() - 1e-9);
  // Consensus does not invent or drop transitions — only re-labels them.
  EXPECT_EQ(consensus_dets.size(), single_dets.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsensusPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace psn::core
