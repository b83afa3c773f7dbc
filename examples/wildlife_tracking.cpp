// Wildlife monitoring in the wild — the setting where the paper argues
// strobe clocks beat physical clock synchronization outright (§3.3: "in the
// wild, remote terrain, nature monitoring, events are often rare compared
// to Delta ... nor may we be able to afford the associated cost of
// synchronized physical clocks").
//
// A zebra with an embedded tag (the paper's own example of a dual-role
// entity, §2.1) wanders a field by random waypoint; three fixed sensors
// with overlapping ranges sense its presence. Predicates:
//   sighted:   count-style   sum(near_zebra) >= 1    (somewhere in coverage)
//   localized: overlap       near_zebra[1] && near_zebra[2]
// detected with vector strobe clocks only — no clock synchronization runs.
//
// Usage: wildlife_tracking [seconds] [seed]

#include <cstdio>
#include <cstdlib>

#include "analysis/scoring.hpp"
#include "common/table.hpp"
#include "core/detectors.hpp"
#include "core/oracle.hpp"
#include "core/predicate_parser.hpp"
#include "core/proximity.hpp"
#include "core/sharded_system.hpp"
#include "world/mobility.hpp"

int main(int argc, char** argv) {
  using namespace psn;

  const auto seconds = argc > 1 ? std::atoll(argv[1]) : 600;
  const auto seed = argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 21;

  core::ShardedSystemConfig config;
  core::SystemConfig& sys = config.base;
  sys.num_sensors = 3;
  sys.sim.seed = seed;
  sys.sim.horizon = SimTime::zero() + Duration::seconds(seconds);
  sys.delay_kind = core::DelayKind::kUniformBounded;
  sys.delta = Duration::millis(400);  // wilderness radios: slow, duty-cycled
  core::ShardedPervasiveSystem system(config);

  core::ProximityField field(
      system, {{1, {20.0, 30.0}, 18.0},
               {2, {45.0, 30.0}, 18.0},
               {3, {70.0, 30.0}, 18.0}});

  const auto zebra = system.world().create_object("zebra", {45.0, 30.0});
  field.track(zebra);

  world::RandomWaypointConfig walk;
  walk.width = 90.0;
  walk.height = 60.0;
  walk.speed_min = 0.5;
  walk.speed_max = 1.8;  // zebra amble — slow relative to Delta, as §3.3 wants
  world::RandomWaypointMobility mobility(system.world(), zebra, walk,
                                         system.sim().rng_for("zebra"));
  mobility.start();
  system.run();

  std::printf(
      "Wildlife tracking: zebra walked %.0f m over %lld s "
      "(%zu waypoints); Delta = %s\n\n",
      mobility.distance_travelled(), static_cast<long long>(seconds),
      mobility.waypoints_visited(), sys.delta.to_string().c_str());

  analysis::ScoreConfig score_cfg;
  score_cfg.tolerance = sys.delta * 2 + Duration::millis(1);

  for (const char* text :
       {"sum(near_zebra) >= 1", "near_zebra[1] && near_zebra[2]"}) {
    const auto phi = core::parse_predicate(text, text);
    const core::GroundTruthOracle oracle(phi, system.sensing());
    const auto truth =
        oracle.evaluate(system.world().timeline(), sys.sim.horizon);
    std::printf("predicate %-32s: %zu true episodes (%.1f%% of time)\n", text,
                truth.occurrences.size(), 100.0 * truth.fraction_true);

    Table table({"detector", "TP", "FP", "FN", "recall", "precision"});
    for (const auto& det : core::all_online_detectors()) {
      const auto detections = det->run(system.log(), phi);
      const auto score =
          analysis::score_detections(truth, detections, score_cfg);
      table.row()
          .cell(det->name())
          .cell(score.true_positives)
          .cell(score.false_positives)
          .cell(score.false_negatives)
          .cell(score.recall(), 3)
          .cell(score.precision(), 3);
    }
    std::printf("%s\n", table.ascii().c_str());
  }

  std::printf(
      "Even with Delta = 400 ms, zone transitions are seconds apart (slow\n"
      "lifeform movement), so strobe clocks detect essentially perfectly —\n"
      "the paper's viability condition in action, with zero sync traffic.\n");
  return 0;
}
