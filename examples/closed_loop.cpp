// The full sense-and-respond loop of the paper's execution model (§2.2):
//
//   world event → sense (n) → strobe broadcast (s/r) → online detection at
//   P_0 → actuation command (s) → a-event at the actuator → world change →
//   sensed again ...
//
// A smart-office thermostat: whenever  temp > 30 && occupied  becomes true,
// the root commands P_1 to reset the thermostat to 26 C — *every* time
// (§3.3: "reset thermostat to 28 C each time ..."). The reset itself is a
// world event, gets sensed, and closes the loop live inside the simulation.
//
// Usage: closed_loop [seconds] [seed]

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/online_monitor.hpp"
#include "core/oracle.hpp"
#include "core/predicate_parser.hpp"
#include "core/temporal_logic.hpp"
#include "example_args.hpp"
#include "world/generators.hpp"

int main(int argc, char** argv) {
  using namespace psn;

  const examples::Args args(argc, argv, "closed_loop [seconds] [seed]");
  const auto seconds =
      args.get<long long>(1, "seconds", 300, 1, examples::kMaxSeconds);
  const auto seed = args.get<std::uint64_t>(2, "seed", 17, 0, UINT64_MAX);

  core::ShardedSystemConfig config;
  core::SystemConfig& sys = config.base;
  sys.num_sensors = 2;
  sys.sim.seed = seed;
  sys.sim.horizon = SimTime::zero() + Duration::seconds(seconds);
  sys.delay_kind = core::DelayKind::kUniformBounded;
  sys.delta = Duration::millis(60);
  core::ShardedPervasiveSystem system(config);

  const auto room = system.world().create_object("server_room");
  system.world().object(room).set_attribute("temp", 26.0);
  const auto door = system.world().create_object("door");
  system.world().object(door).set_attribute("occupied", false);
  system.assign(room, "temp", 1);
  system.assign(door, "occupied", 2);

  // The environment: temperature drifts upward (heat load), occupancy
  // toggles randomly.
  world::AttributeDriver heat(
      system.world(), room, "temp",
      std::make_unique<world::PoissonArrivals>(2.0),
      std::make_unique<world::RandomWalkValue>(1.2, 20.0, 40.0),
      system.sim().rng_for("heat"));
  world::AttributeDriver people(
      system.world(), door, "occupied",
      std::make_unique<world::PoissonArrivals>(0.2),
      std::make_unique<world::ToggleValue>(),
      system.sim().rng_for("people"));

  core::ActuationRule rule;
  rule.on_rising_edge = true;
  rule.fire_on_borderline = true;  // err on the safe side (§5)
  rule.actuator = 1;
  rule.object = room;
  rule.attribute = "temp";
  rule.value = world::AttributeValue(26.0);
  rule.command = "reset_thermostat";

  core::OnlineMonitor monitor(
      system, core::parse_predicate("hot", "temp[1] > 30 && occupied[2]"),
      {rule});

  heat.start();
  people.start();
  system.run();

  std::printf("Closed loop over %lld s (Delta = %s):\n",
              static_cast<long long>(seconds), sys.delta.to_string().c_str());
  const auto rising = static_cast<std::size_t>(
      std::count_if(monitor.detections().begin(), monitor.detections().end(),
                    [](const core::Detection& d) { return d.to_true; }));
  std::printf("  detections: %zu transitions (%zu rising)\n",
              monitor.detections().size(), rising);
  std::printf("  thermostat resets commanded: %zu\n",
              monitor.actuations().size());

  const auto latencies = monitor.actuation_latencies();
  if (!latencies.empty()) {
    SampleSet s;
    for (const auto& d : latencies) s.add(d.to_seconds() * 1e3);
    std::printf(
        "  sense→actuate latency: p50 %.1f ms, p95 %.1f ms, max %.1f ms "
        "(2 message hops, Delta = 60 ms)\n",
        s.median(), s.percentile(95), s.max());
  }

  std::printf(
      "  final room temperature: %.1f C\n",
      system.world().object(room).attribute("temp").as_double());

  // Count how often the room was hot-and-occupied in ground truth vs how
  // long each episode lasted before the loop quenched it.
  const core::GroundTruthOracle oracle(
      core::parse_predicate("hot", "temp[1] > 30 && occupied[2]"),
      system.sensing());
  const auto truth =
      oracle.evaluate(system.world().timeline(), sys.sim.horizon);
  SampleSet episode_ms;
  for (const auto& occ : truth.occurrences) {
    episode_ms.add(occ.duration().to_seconds() * 1e3);
  }
  std::printf(
      "  hot episodes in ground truth: %zu, median duration %.0f ms — each\n"
      "  quenched by an actuation instead of persisting.\n",
      truth.occurrences.size(),
      episode_ms.empty() ? 0.0 : episode_ms.median());

  // Formal check of the control law as a metric-temporal-logic property
  // (paper §3.1.1.a.iv, *TL*-based specification):
  //    G ( hot-onset  →  F[0, 500 ms] reset-applied ).
  const SimTime horizon = sys.sim.horizon;
  std::vector<core::Occurrence> onset_pulses;
  for (const auto& occ : truth.occurrences) {
    onset_pulses.push_back({occ.begin, occ.begin + Duration::millis(1)});
  }
  std::vector<core::Occurrence> reset_pulses;
  for (const auto& e : *system.sensor_executions()[0]) {
    if (e.type == core::EventType::kActuate) {
      reset_pulses.push_back(
          {e.clocks.true_time, e.clocks.true_time + Duration::millis(1)});
    }
  }
  const auto onset =
      core::mtl::BoolSignal::from_intervals(std::move(onset_pulses), horizon);
  const auto reset =
      core::mtl::BoolSignal::from_intervals(std::move(reset_pulses), horizon);
  const bool spec_holds =
      core::mtl::responds_within(onset, reset, Duration::millis(500));
  std::printf(
      "\nMTL spec  G(hot-onset -> F[0,500ms] reset-applied):  %s\n",
      spec_holds ? "HOLDS" : "VIOLATED");

  // The claim: the loop fired, once per rising detection, and the control
  // law held (non-vacuously).
  if (rising == 0 || monitor.actuations().size() != rising || !spec_holds) {
    std::fprintf(stderr,
                 "closed_loop: claim failed: %zu rising detections, %zu "
                 "resets, MTL spec %s\n",
                 rising, monitor.actuations().size(),
                 spec_holds ? "holds" : "violated");
    return 1;
  }
  return 0;
}
