// Hospital scenario (paper §5): RFID badges on visitors and patients.
// Two predicates are monitored simultaneously over the same execution:
//
//   overcrowded:  sum(entered) - sum(exited) > capacity   (waiting room,
//                 relational, the hall predicate at smaller scale), and
//   violation:    occupied[w] && restricted[w]             (someone is in the
//                 infectious-diseases ward while it is restricted).
//
// One run, one strobe stream, two predicates — showing that the root can
// evaluate any number of predicates over the same observation log.
//
// Usage: hospital_ward [seconds] [seed]

#include <cstdint>
#include <cstdio>

#include "analysis/scoring.hpp"
#include "common/table.hpp"
#include "core/detectors.hpp"
#include "core/oracle.hpp"
#include "core/predicate_parser.hpp"
#include "core/sharded_system.hpp"
#include "example_args.hpp"
#include "world/scenarios.hpp"

int main(int argc, char** argv) {
  using namespace psn;

  const examples::Args args(argc, argv, "hospital_ward [seconds] [seed]");
  const auto seconds =
      args.get<long long>(1, "seconds", 120, 1, examples::kMaxSeconds);
  const auto seed = args.get<std::uint64_t>(2, "seed", 3, 0, UINT64_MAX);

  world::HospitalWardConfig ward_cfg;

  core::ShardedSystemConfig config;
  core::SystemConfig& sys = config.base;
  // P_1, P_2: waiting-room door sensors; P_3: ward sensor.
  sys.num_sensors = static_cast<std::size_t>(ward_cfg.waiting_room_doors) + 1;
  sys.sim.seed = seed;
  sys.sim.horizon = SimTime::zero() + Duration::seconds(seconds);
  sys.delta = Duration::millis(80);
  core::ShardedPervasiveSystem system(config);

  world::HospitalWard hospital(system.world(), ward_cfg,
                               system.sim().rng_for("hospital"));

  for (int k = 0; k < ward_cfg.waiting_room_doors; ++k) {
    const auto pid = static_cast<ProcessId>(k + 1);
    system.assign(hospital.waiting_door_object(k), "entered", pid);
    system.assign(hospital.waiting_door_object(k), "exited", pid);
  }
  const auto ward_pid =
      static_cast<ProcessId>(ward_cfg.waiting_room_doors + 1);
  system.assign(hospital.ward_object(), "occupied", ward_pid);
  system.assign(hospital.ward_object(), "restricted", ward_pid);

  const core::Predicate overcrowded = core::parse_predicate(
      "overcrowded", "sum(entered) - sum(exited) > " +
                         std::to_string(ward_cfg.waiting_room_capacity));
  const core::Predicate violation = core::parse_predicate(
      "ward_violation", "occupied[" + std::to_string(ward_pid) +
                            "] && restricted[" + std::to_string(ward_pid) +
                            "]");

  hospital.start();
  system.run();

  analysis::ScoreConfig score_cfg;
  score_cfg.tolerance = sys.delta * 2 + Duration::millis(1);

  // The claim: both predicates occur, and on ward_violation (both conjuncts
  // sensed by one process, so no cross-process race) the strobe and physical
  // detectors are exact. delivery-order is left out: a non-FIFO transport can
  // invert one process's updates.
  bool claim = true;
  for (const core::Predicate* phi : {&overcrowded, &violation}) {
    const core::GroundTruthOracle oracle(*phi, system.sensing());
    const auto truth =
        oracle.evaluate(system.world().timeline(), sys.sim.horizon);
    std::printf("predicate '%s': %zu true occurrences (%.1f%% of time)\n",
                phi->name().c_str(), truth.occurrences.size(),
                100.0 * truth.fraction_true);
    claim = claim && !truth.occurrences.empty();

    Table table({"detector", "TP", "FP", "FN", "FN covered", "recall",
                 "precision"});
    for (const auto& det : core::all_online_detectors()) {
      const auto detections = det->run(system.log(), *phi);
      const auto score =
          analysis::score_detections(truth, detections, score_cfg);
      table.row()
          .cell(det->name())
          .cell(score.true_positives)
          .cell(score.false_positives)
          .cell(score.false_negatives)
          .cell(score.fn_covered_by_borderline)
          .cell(score.recall(), 3)
          .cell(score.precision(), 3);
      if (phi == &violation && det->name() != "delivery-order") {
        claim = claim && score.false_positives == 0 &&
                score.false_negatives == 0;
      }
    }
    std::printf("%s\n", table.ascii().c_str());
  }

  const net::MessageStats stats = system.message_stats();
  const auto& strobes = stats.of(net::MessageKind::kStrobe);
  std::printf("strobe traffic: %zu transmissions, %zu delivered, %zu bytes\n",
              strobes.sent, strobes.delivered, strobes.bytes_sent);
  if (!claim) {
    std::fprintf(stderr,
                 "hospital_ward: claim failed: a predicate never occurred, or "
                 "ward_violation scored an FP or FN\n");
    return 1;
  }
  return 0;
}
