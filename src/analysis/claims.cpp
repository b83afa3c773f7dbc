#include "analysis/claims.hpp"

#include <utility>

#include "analysis/scoring.hpp"
#include "core/detectors.hpp"
#include "core/oracle.hpp"
#include "core/predicate_parser.hpp"
#include "core/sharded_system.hpp"

namespace psn::analysis {

StrobeEquivalence compare_strobes(const OccupancyConfig& config) {
  const OccupancyRunResult run = run_occupancy_experiment(config);
  const DetectorOutcome& s = run.outcome("strobe-scalar");
  const DetectorOutcome& v = run.outcome("strobe-vector");
  StrobeEquivalence eq;
  eq.scalar_transitions = s.detections.size();
  eq.vector_transitions = v.detections.size();
  eq.identical = s.detections.size() == v.detections.size();
  for (std::size_t i = 0; eq.identical && i < s.detections.size(); ++i) {
    eq.identical = s.detections[i].to_true == v.detections[i].to_true &&
                   s.detections[i].cause_true_time ==
                       v.detections[i].cause_true_time;
  }
  eq.scalar_errors = s.score.false_positives + s.score.false_negatives;
  eq.vector_errors = v.score.false_positives + v.score.false_negatives;
  return eq;
}

EveryOccurrence every_occurrence(std::size_t occurrences, std::uint64_t seed) {
  const Duration period = Duration::seconds(2);
  const Duration hot_for = Duration::millis(600);

  core::ShardedSystemConfig config;
  core::SystemConfig& sys = config.base;
  sys.num_sensors = 2;
  sys.sim.seed = seed;
  sys.sim.horizon =
      SimTime::zero() + period * static_cast<std::int64_t>(occurrences + 1);
  sys.delay_kind = core::DelayKind::kUniformBounded;
  sys.delta = Duration::millis(60);
  core::ShardedPervasiveSystem system(config);

  // The paper's thermostat rule: "reset thermostat to 28 C each time
  // 'motion detected' AND 'temp > 30 C'".
  const Name temp("temp");
  const Name motion("motion");
  const auto room = system.world().create_object("room");
  system.world().object(room).set_attribute(temp, 22.0);
  const auto hall = system.world().create_object("hallway");
  system.world().object(hall).set_attribute(motion, false);
  system.assign(room, temp, 1);
  system.assign(hall, motion, 2);

  auto& sched = system.sim().scheduler();
  for (std::size_t k = 0; k < occurrences; ++k) {
    const SimTime base =
        SimTime::zero() + period * static_cast<std::int64_t>(k);
    sched.schedule_at(base + Duration::millis(100), [&system, hall, motion] {
      system.world().emit(hall, motion, true);
    });
    sched.schedule_at(base + Duration::millis(500), [&system, room, temp] {
      system.world().emit(room, temp, 31.5);
    });
    sched.schedule_at(base + Duration::millis(500) + hot_for,
                      [&system, room, temp] {
                        system.world().emit(room, temp, 24.0);
                      });
    sched.schedule_at(base + period - Duration::millis(100),
                      [&system, hall, motion] {
                        system.world().emit(hall, motion, false);
                      });
  }
  system.run();

  const auto phi =
      core::parse_predicate("hot_and_motion", "temp[1] > 30 && motion[2]");
  const core::GroundTruthOracle oracle(phi, system.sensing());
  const auto truth =
      oracle.evaluate(system.world().timeline(), sys.sim.horizon);

  ScoreConfig score_cfg;
  score_cfg.tolerance = Duration::millis(150);

  EveryOccurrence out;
  out.occurrences = truth.occurrences.size();
  for (const auto& det : core::all_online_detectors()) {
    const auto detections = det->run(system.log(), phi);
    OccurrenceReport report;
    report.detector = det->name();
    for (const auto& d : detections) {
      (d.to_true ? report.became_true : report.became_false)++;
    }
    DetectionScore score = score_detections(truth, detections, score_cfg);
    report.true_positives = score.true_positives;
    report.false_negatives = score.false_negatives;
    report.latency_s = std::move(score.latency_s);
    out.detectors.push_back(std::move(report));
  }
  return out;
}

}  // namespace psn::analysis
