// Integration of the offline analyses — Cooper–Marzullo Possibly/Definitely
// and Garg–Waldecker — over *live* system executions (the unit tests use
// hand-built views; here the views come from real strobe-stamped runs).

#include <gtest/gtest.h>

#include "core/conjunctive.hpp"
#include "core/lattice.hpp"
#include "core/oracle.hpp"
#include "core/predicate_parser.hpp"
#include "core/sharded_system.hpp"

namespace psn::core {
namespace {

using namespace psn::time_literals;

SimTime t(std::int64_t ms) { return SimTime::zero() + Duration::millis(ms); }

struct TwoSensorRun {
  explicit TwoSensorRun(Duration delta, std::uint64_t seed = 1) {
    ShardedSystemConfig config;
    SystemConfig& sys = config.base;
    sys.num_sensors = 2;
    sys.sim.seed = seed;
    sys.sim.horizon = SimTime::zero() + 30_s;
    sys.delta = delta;
    system = std::make_unique<ShardedPervasiveSystem>(config);
    o1 = system->world().create_object("o1");
    o2 = system->world().create_object("o2");
    system->world().object(o1).set_attribute("x", std::int64_t{0});
    system->world().object(o2).set_attribute("y", std::int64_t{0});
    system->assign(o1, "x", 1);
    system->assign(o2, "y", 2);
  }
  void emit_at(std::int64_t ms, world::ObjectId obj, const std::string& attr,
               std::int64_t v) {
    system->sim().scheduler().schedule_at(t(ms), [this, obj, attr, v] {
      system->world().emit(obj, attr, v);
    });
  }
  std::unique_ptr<ShardedPervasiveSystem> system;
  world::ObjectId o1 = world::kNoObject, o2 = world::kNoObject;
};

/// Every recorded event of every sensor, stamped with the causal
/// Mattern/Fidge clock: the lattice of the network-plane program (§4.1).
/// Every event type ticks the causal clock once, so local indices align
/// with the own-components.
ExecutionView causal_view(const ShardedPervasiveSystem& system) {
  std::vector<ProcessId> pids;
  std::vector<std::vector<ExecutionView::Event>> histories;
  for (const auto* events : system.sensor_executions()) {
    pids.push_back(events->empty() ? kNoProcess : events->front().pid);
    auto& history = histories.emplace_back();
    for (const ProcessEvent& pe : *events) {
      ExecutionView::Event e;
      e.stamp = pe.clocks.causal_vector;
      e.when = pe.clocks.true_time;
      history.push_back(std::move(e));
    }
  }
  return ExecutionView(std::move(pids), std::move(histories));
}

TEST(OfflineSystemTest, DefinitelyHoldsWhenIntervalsWellSeparated) {
  // x>0 over [1 s, 10 s], y>0 over [3 s, 8 s] with Δ = 50 ms: every
  // observation passes through a state with both positive.
  TwoSensorRun run(50_ms);
  run.emit_at(1000, run.o1, "x", 1);
  run.emit_at(3000, run.o2, "y", 1);
  run.emit_at(8000, run.o2, "y", 0);
  run.emit_at(10000, run.o1, "x", 0);
  run.system->run();

  const auto view = ExecutionView::from_strobe_stamps(*run.system);
  const auto phi = parse_predicate("p", "x[1] > 0 && y[2] > 0");
  EXPECT_TRUE(lattice::possibly(view, phi));
  EXPECT_TRUE(lattice::definitely(view, phi));

  // Garg–Waldecker agrees (the predicate is conjunctive).
  const auto matches = WeakConjunctiveDetector().run(view, phi);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].window_begin, t(3000));
}

TEST(OfflineSystemTest, RacyOverlapIsPossiblyButNotDefinitely) {
  // x's pulse and y's pulse overlap in true time but the four events all
  // fall within Δ: the strobe order cannot rule out interleavings that miss
  // the overlap, so Possibly holds but Definitely must not.
  TwoSensorRun run(500_ms);
  run.emit_at(1000, run.o1, "x", 1);
  run.emit_at(1010, run.o2, "y", 1);
  run.emit_at(1020, run.o1, "x", 0);
  run.emit_at(1030, run.o2, "y", 0);
  run.system->run();

  const auto view = ExecutionView::from_strobe_stamps(*run.system);
  const auto phi = parse_predicate("p", "x[1] > 0 && y[2] > 0");
  EXPECT_TRUE(lattice::possibly(view, phi));
  EXPECT_FALSE(lattice::definitely(view, phi));
}

TEST(OfflineSystemTest, SequentialPulsesNotEvenPossible) {
  // y's pulse starts well after x's ended (≫ Δ): no consistent cut has
  // both positive.
  TwoSensorRun run(50_ms);
  run.emit_at(1000, run.o1, "x", 1);
  run.emit_at(2000, run.o1, "x", 0);
  run.emit_at(5000, run.o2, "y", 1);
  run.emit_at(6000, run.o2, "y", 0);
  run.system->run();

  const auto view = ExecutionView::from_strobe_stamps(*run.system);
  const auto phi = parse_predicate("p", "x[1] > 0 && y[2] > 0");
  EXPECT_FALSE(lattice::possibly(view, phi));
  EXPECT_FALSE(lattice::definitely(view, phi));
  EXPECT_TRUE(WeakConjunctiveDetector().run(view, phi).empty());
}

TEST(OfflineSystemTest, PossiblyAgreesWithOracleWhenNoRaces) {
  // Poisson-free deterministic pulses far apart: Possibly ⇔ the oracle saw
  // a true overlap.
  for (const bool overlap : {true, false}) {
    TwoSensorRun run(50_ms, overlap ? 2u : 3u);
    run.emit_at(1000, run.o1, "x", 1);
    run.emit_at(overlap ? 5000 : 2000, run.o1, "x", 0);
    run.emit_at(overlap ? 3000 : 5000, run.o2, "y", 1);
    run.emit_at(overlap ? 7000 : 6000, run.o2, "y", 0);
    run.system->run();
    const auto view = ExecutionView::from_strobe_stamps(*run.system);
    const auto phi = parse_predicate("p", "x[1] > 0 && y[2] > 0");
    const GroundTruthOracle oracle(phi, run.system->sensing());
    const auto truth =
        oracle.evaluate(run.system->world().timeline(), SimTime::zero() + 30_s);
    EXPECT_EQ(lattice::possibly(view, phi), !truth.occurrences.empty());
  }
}

TEST(OfflineSystemTest, CausalViewConsistentWithComputationMessages) {
  // Computation messages create real causal edges; the causal-view lattice
  // must shrink accordingly while the strobe view is unaffected by them.
  TwoSensorRun run(10_ms);
  run.emit_at(1000, run.o1, "x", 1);
  run.system->sim().scheduler().schedule_at(t(2000), [&run] {
    run.system->sensor(1).send_computation(2, "hello");
  });
  run.emit_at(3000, run.o2, "y", 1);
  run.system->run();

  const auto causal = causal_view(*run.system);
  // P1: sense + send = 2 events; P2: receive + sense = 2 events.
  EXPECT_EQ(causal.events(0).size(), 2u);
  EXPECT_EQ(causal.events(1).size(), 2u);
  // The cut {P1: 0 events, P2: both} includes the receive without its send —
  // inconsistent.
  EXPECT_FALSE(causal.consistent({0, 2}));
  EXPECT_TRUE(causal.consistent({2, 2}));

  const auto stats = lattice::count_consistent_cuts(causal);
  EXPECT_LT(stats.consistent_cuts, 9u);  // < unconstrained 3x3
}

}  // namespace
}  // namespace psn::core
