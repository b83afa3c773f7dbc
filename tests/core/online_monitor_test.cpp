#include "core/online_monitor.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/predicate_parser.hpp"

namespace psn::core {
namespace {

using namespace psn::time_literals;

SimTime t(std::int64_t ms) { return SimTime::zero() + Duration::millis(ms); }

struct LoopFixture {
  explicit LoopFixture(Duration delta = Duration::millis(20),
                       std::uint64_t seed = 1, ValidityHorizon validity = {}) {
    ShardedSystemConfig config;
    SystemConfig& sys = config.base;
    sys.num_sensors = 2;
    sys.sim.seed = seed;
    sys.sim.horizon = SimTime::zero() + 60_s;
    sys.delay_kind = DelayKind::kFixed;
    sys.delta = delta;
    sys.validity_horizon = validity;
    system = std::make_unique<ShardedPervasiveSystem>(config);

    room = system->world().create_object("room");
    system->world().object(room).set_attribute("temp", 22.0);
    hall = system->world().create_object("hall");
    system->world().object(hall).set_attribute("motion", false);
    system->assign(room, "temp", 1);
    system->assign(hall, "motion", 2);
  }

  std::unique_ptr<ShardedPervasiveSystem> system;
  world::ObjectId room = world::kNoObject;
  world::ObjectId hall = world::kNoObject;
};

ActuationRule thermostat_rule(const LoopFixture& f) {
  ActuationRule rule;
  rule.on_rising_edge = true;
  rule.actuator = 1;
  rule.object = f.room;
  rule.attribute = "temp";
  rule.value = world::AttributeValue(25.0);
  rule.command = "reset_thermostat";
  return rule;
}

TEST(OnlineMonitorTest, DetectsTransitionsLive) {
  LoopFixture f;
  OnlineMonitor monitor(*f.system,
                        parse_predicate("hot", "temp[1] > 30 && motion[2]"));
  auto& sched = f.system->sim().scheduler();
  sched.schedule_at(t(100), [&] { f.system->world().emit(f.hall, "motion", true); });
  sched.schedule_at(t(200), [&] { f.system->world().emit(f.room, "temp", 32.0); });
  sched.schedule_at(t(400), [&] { f.system->world().emit(f.room, "temp", 24.0); });
  f.system->run();

  ASSERT_EQ(monitor.detections().size(), 2u);
  EXPECT_TRUE(monitor.detections()[0].to_true);
  EXPECT_FALSE(monitor.detections()[1].to_true);
  // Online detections match the offline detector on the same log.
  const auto offline = Detector(DetectorKind::kStrobeVector).run(
      f.system->log(), parse_predicate("hot", "temp[1] > 30 && motion[2]"));
  ASSERT_EQ(offline.size(), 2u);
  EXPECT_EQ(offline[0].cause_true_time,
            monitor.detections()[0].cause_true_time);
}

// Under a bounded validity horizon the monitor flags the transitions it
// decides on expired state borderline, exactly as the offline fold of the
// same detector over the same log does.
TEST(OnlineMonitorTest, StaleObservationsMatchTheOfflineDetector) {
  ValidityHorizon validity;
  validity.lifetime = 250_ms;
  LoopFixture f(Duration::millis(20), 1, validity);
  const Predicate phi = parse_predicate("hot", "temp[1] > 30 && motion[2]");
  OnlineMonitor monitor(*f.system, phi);
  auto& sched = f.system->sim().scheduler();
  sched.schedule_at(t(100),
                    [&] { f.system->world().emit(f.hall, "motion", true); });
  sched.schedule_at(t(200),
                    [&] { f.system->world().emit(f.room, "temp", 32.0); });
  sched.schedule_at(t(400),
                    [&] { f.system->world().emit(f.room, "temp", 24.0); });
  sched.schedule_at(t(900),
                    [&] { f.system->world().emit(f.room, "temp", 33.0); });
  f.system->run();

  const auto offline =
      Detector(DetectorKind::kStrobeVector).run(f.system->log(), phi);
  const auto& online = monitor.detections();
  ASSERT_EQ(online.size(), offline.size());
  std::size_t borderline = 0;
  for (std::size_t i = 0; i < online.size(); ++i) {
    EXPECT_EQ(online[i].update_index, offline[i].update_index);
    EXPECT_EQ(online[i].detected_at, offline[i].detected_at);
    EXPECT_EQ(online[i].borderline, offline[i].borderline);
    if (online[i].borderline) borderline++;
  }
  // motion[2] expires at 350 ms; the 400 ms and 900 ms evaluations read it.
  EXPECT_GT(borderline, 0u);
}

TEST(OnlineMonitorTest, ClosedLoopActuationChangesWorld) {
  LoopFixture f;
  OnlineMonitor monitor(*f.system,
                        parse_predicate("hot", "temp[1] > 30 && motion[2]"),
                        {thermostat_rule(f)});
  auto& sched = f.system->sim().scheduler();
  sched.schedule_at(t(100), [&] { f.system->world().emit(f.hall, "motion", true); });
  sched.schedule_at(t(200), [&] { f.system->world().emit(f.room, "temp", 32.0); });
  f.system->run();

  // The loop acted: command issued, a-event applied, temperature reset, and
  // (because the reset is itself sensed) the predicate fell again.
  ASSERT_EQ(monitor.actuations().size(), 1u);
  EXPECT_DOUBLE_EQ(
      f.system->world().object(f.room).attribute("temp").as_double(), 25.0);
  ASSERT_EQ(monitor.detections().size(), 2u);
  EXPECT_FALSE(monitor.detections()[1].to_true);

  // The actuator recorded an a-event.
  bool saw_actuate = false;
  for (const auto& e : *f.system->sensor_executions()[0]) {
    saw_actuate |= e.type == EventType::kActuate;
  }
  EXPECT_TRUE(saw_actuate);
}

TEST(OnlineMonitorTest, ActuationLatencyIsSenseToApply) {
  const Duration delta = Duration::millis(20);
  LoopFixture f(delta);
  OnlineMonitor monitor(*f.system,
                        parse_predicate("hot", "temp[1] > 30 && motion[2]"),
                        {thermostat_rule(f)});
  auto& sched = f.system->sim().scheduler();
  sched.schedule_at(t(100), [&] { f.system->world().emit(f.hall, "motion", true); });
  sched.schedule_at(t(200), [&] { f.system->world().emit(f.room, "temp", 32.0); });
  f.system->run();

  const auto latencies = monitor.actuation_latencies();
  ASSERT_EQ(latencies.size(), 1u);
  // Fixed delays: sense→root (Δ) + root→actuator (Δ) = 2Δ exactly.
  EXPECT_EQ(latencies[0], delta * 2);
}

TEST(OnlineMonitorTest, EveryOccurrenceActuated) {
  LoopFixture f;
  OnlineMonitor monitor(*f.system,
                        parse_predicate("hot", "temp[1] > 30 && motion[2]"),
                        {thermostat_rule(f)});
  auto& sched = f.system->sim().scheduler();
  sched.schedule_at(t(50), [&] { f.system->world().emit(f.hall, "motion", true); });
  // The heater keeps pushing the temperature up; each spike must trigger a
  // fresh reset (the paper's "reset thermostat EACH time" requirement).
  constexpr int kSpikes = 8;
  for (int k = 0; k < kSpikes; ++k) {
    sched.schedule_at(t(200 + 500 * k), [&] {
      f.system->world().emit(f.room, "temp", 33.0);
    });
  }
  f.system->run();

  EXPECT_EQ(monitor.actuations().size(), kSpikes);
  EXPECT_EQ(monitor.actuation_latencies().size(), kSpikes);
  // Thermostat ends at the reset value.
  EXPECT_DOUBLE_EQ(
      f.system->world().object(f.room).attribute("temp").as_double(), 25.0);
}

TEST(OnlineMonitorTest, FallingEdgeRule) {
  LoopFixture f;
  ActuationRule rule = thermostat_rule(f);
  rule.on_rising_edge = false;
  rule.attribute = "lights";
  rule.value = world::AttributeValue(false);
  rule.command = "lights_off";
  OnlineMonitor monitor(*f.system,
                        parse_predicate("occ", "motion[2]"), {rule});
  auto& sched = f.system->sim().scheduler();
  sched.schedule_at(t(100), [&] { f.system->world().emit(f.hall, "motion", true); });
  sched.schedule_at(t(300), [&] { f.system->world().emit(f.hall, "motion", false); });
  f.system->run();

  ASSERT_EQ(monitor.actuations().size(), 1u);
  EXPECT_FALSE(
      f.system->world().object(f.room).attribute("lights").as_bool());
}

TEST(OnlineMonitorTest, BorderlinePolicyRespected) {
  // With fire_on_borderline = false, borderline transitions must not
  // actuate. Force a race: zero-initialized strobes and two concurrent
  // sensed events under a large delay.
  LoopFixture f(Duration::millis(500), 3);
  ActuationRule rule = thermostat_rule(f);
  rule.fire_on_borderline = false;
  OnlineMonitor monitor(*f.system,
                        parse_predicate("hot", "temp[1] > 30 && motion[2]"),
                        {rule});
  auto& sched = f.system->sim().scheduler();
  // Concurrent (within Δ) updates → the rising transition is borderline.
  sched.schedule_at(t(100), [&] { f.system->world().emit(f.room, "temp", 32.0); });
  sched.schedule_at(t(101), [&] { f.system->world().emit(f.hall, "motion", true); });
  f.system->run();

  ASSERT_GE(monitor.detections().size(), 1u);
  EXPECT_TRUE(monitor.detections()[0].borderline);
  EXPECT_TRUE(monitor.actuations().empty());
}

TEST(OnlineMonitorTest, RuleValidation) {
  LoopFixture f;
  ActuationRule bad = thermostat_rule(f);
  bad.actuator = 0;  // the root cannot actuate
  EXPECT_THROW(OnlineMonitor(*f.system,
                             parse_predicate("p", "temp[1] > 30"), {bad}),
               InvariantError);
}

}  // namespace
}  // namespace psn::core
