// Smart-office scenario (paper §3.1.1.b.i): "a person enters a room and
// temp > 30°C — temperature can be automatically lowered depending on the
// rule base."
//
// The temperature is sensed by one process and the motion/occupancy by
// another, so the predicate
//
//     phi  =  temp[1] > 30  &&  occupied[2]
//
// is a *conjunctive* predicate across two processes. This example detects it
// three ways:
//   1. the online strobe detectors (single-time-axis simulation),
//   2. Garg–Waldecker weak-conjunctive detection over vector stamps, and
//   3. Cooper–Marzullo Possibly/Definitely over the strobe-induced lattice —
//      the modalities of [17] that the paper discusses in §3.1.1.b.
//
// Usage: smart_office [seconds] [seed]

#include <cstdint>
#include <cstdio>

#include "analysis/scoring.hpp"
#include "common/table.hpp"
#include "core/conjunctive.hpp"
#include "core/detectors.hpp"
#include "core/lattice.hpp"
#include "core/oracle.hpp"
#include "core/predicate_parser.hpp"
#include "core/sharded_system.hpp"
#include "example_args.hpp"
#include "world/scenarios.hpp"

int main(int argc, char** argv) {
  using namespace psn;

  const examples::Args args(argc, argv, "smart_office [seconds] [seed]");
  const auto seconds =
      args.get<long long>(1, "seconds", 300, 1, examples::kMaxSeconds);
  const auto seed = args.get<std::uint64_t>(2, "seed", 1, 0, UINT64_MAX);

  core::ShardedSystemConfig config;
  core::SystemConfig& sys = config.base;
  sys.num_sensors = 2;
  sys.sim.seed = seed;
  sys.sim.horizon = SimTime::zero() + Duration::seconds(seconds);
  sys.delay_kind = core::DelayKind::kUniformBounded;
  sys.delta = Duration::millis(100);
  core::ShardedPervasiveSystem system(config);

  world::SmartOfficeConfig office_cfg;
  office_cfg.rooms = 1;
  office_cfg.temp_change_rate = 1.0;
  office_cfg.motion_rate = 0.3;
  world::SmartOffice office(system.world(), office_cfg,
                            system.sim().rng_for("office"));

  // Temperature sensor is P_1, motion sensor is P_2 — two different nodes
  // watching the same room.
  system.assign(office.room_object(0), "temp", 1);
  system.assign(office.room_object(0), "occupied", 2);

  const core::Predicate phi =
      core::parse_predicate("hot_and_occupied", "temp[1] > 30 && occupied[2]");
  std::printf("predicate: %s  (conjunctive: %s)\n\n",
              phi.to_string().c_str(),
              phi.is_conjunctive() ? "yes" : "no");

  office.start();
  system.run();

  const core::GroundTruthOracle oracle(phi, system.sensing());
  const core::OracleResult truth =
      oracle.evaluate(system.world().timeline(), sys.sim.horizon);
  std::printf("ground truth: %zu occurrences, %.1f%% of the time\n\n",
              truth.occurrences.size(), 100.0 * truth.fraction_true);

  // --- 1. online strobe detectors ---
  analysis::ScoreConfig score_cfg;
  score_cfg.tolerance = sys.delta * 2 + Duration::millis(1);
  Table online({"detector", "TP", "FP", "FN", "borderline", "recall"});
  for (const auto& det : core::all_online_detectors()) {
    const auto detections = det->run(system.log(), phi);
    const auto score = analysis::score_detections(truth, detections, score_cfg);
    online.row()
        .cell(det->name())
        .cell(score.true_positives)
        .cell(score.false_positives)
        .cell(score.false_negatives)
        .cell(score.borderline_detections)
        .cell(score.recall(), 3);
  }
  std::printf("online detection (single time axis via strobes):\n%s\n",
              online.ascii().c_str());

  // --- 2. Garg–Waldecker weak conjunctive over vector stamps ---
  const auto view = core::ExecutionView::from_strobe_stamps(system);
  core::WeakConjunctiveDetector gw;
  const auto matches = gw.run(view, phi);
  std::printf("Garg-Waldecker weak-conjunctive matches: %zu "
              "(vs %zu true occurrences)\n",
              matches.size(), truth.occurrences.size());
  for (std::size_t i = 0; i < matches.size() && i < 5; ++i) {
    std::printf("  match %zu: window begins at %s\n", i + 1,
                matches[i].window_begin.to_string().c_str());
  }

  // --- 3. Possibly / Definitely over the strobe-induced lattice ---
  const auto stats = core::lattice::count_consistent_cuts(view);
  std::printf(
      "\nstrobe-induced lattice: %llu consistent global states "
      "(unconstrained: %.3g) over %llu events\n",
      static_cast<unsigned long long>(stats.consistent_cuts),
      core::lattice::unconstrained_cuts(view),
      static_cast<unsigned long long>(stats.total_events));
  const bool possibly = core::lattice::possibly(view, phi);
  const bool definitely = core::lattice::definitely(view, phi);
  std::printf("Possibly(phi)   = %s\n", possibly ? "true" : "false");
  std::printf("Definitely(phi) = %s\n", definitely ? "true" : "false");

  // Rule-base reaction (paper: "temperature can be automatically lowered"):
  // demonstrate the actuate (a) event on the world plane.
  if (!matches.empty()) {
    system.sensor(1).actuate(system.world(), office.room_object(0), "temp",
                             world::AttributeValue(28.0));
    std::printf("\nactuated: thermostat reset to 28 C (a-event recorded at P_1)\n");
  }

  // The claim, non-vacuously: phi occurs, and Possibly(phi) and
  // Garg-Waldecker both find it. Possibly(phi) being true also makes
  // Definitely(phi) => Possibly(phi) hold.
  if (truth.occurrences.empty() || !possibly || matches.empty()) {
    std::fprintf(stderr,
                 "smart_office: claim failed: %zu occurrences, %zu matches, "
                 "Possibly %d, Definitely %d\n",
                 truth.occurrences.size(), matches.size(), possibly,
                 definitely);
    return 1;
  }
  return 0;
}
