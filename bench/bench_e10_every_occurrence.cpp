// E10 — paper §3.3: "We emphasize that each occurrence of the predicate
// should be detected. ... Existing literature on predicate detection, e.g.,
// [14, 17], detects only the first time the predicate becomes true and then
// the algorithms 'hang'."
//
// A deterministic thermostat-style workload makes φ true exactly k times;
// every detector must report all k became-true transitions (plus the k
// became-false ones), and we report per-occurrence reaction latency.
//
// Expected shape: detections = k for every detector, with latency ≈ message
// delay — not 1 as a detect-once algorithm would give.

#include <cstdio>

#include "analysis/scoring.hpp"
#include "common/table.hpp"
#include "core/detectors.hpp"
#include "core/oracle.hpp"
#include "core/predicate_parser.hpp"
#include "core/sharded_system.hpp"

int main() {
  using namespace psn;

  constexpr int kOccurrences = 25;
  const Duration period = Duration::seconds(2);
  const Duration hot_for = Duration::millis(600);

  core::ShardedSystemConfig config;
  core::SystemConfig& sys = config.base;
  sys.num_sensors = 2;
  sys.sim.seed = 5;
  sys.sim.horizon = SimTime::zero() + period * (kOccurrences + 1);
  sys.delay_kind = core::DelayKind::kUniformBounded;
  sys.delta = Duration::millis(60);
  core::ShardedPervasiveSystem system(config);

  // P_1 senses temperature, P_2 senses motion; the thermostat rule of the
  // paper: "reset thermostat to 28 C each time 'motion detected' AND
  // 'temp > 30 C'".
  const auto room = system.world().create_object("room");
  system.world().object(room).set_attribute("temp", 22.0);
  const auto hall = system.world().create_object("hallway");
  system.world().object(hall).set_attribute("motion", false);
  system.assign(room, "temp", 1);
  system.assign(hall, "motion", 2);

  auto& sched = system.sim().scheduler();
  // Motion is on during most of each period; temperature spikes above 30 for
  // `hot_for` in the middle — φ becomes true exactly once per period.
  for (int k = 0; k < kOccurrences; ++k) {
    const SimTime base = SimTime::zero() + period * k;
    sched.schedule_at(base + Duration::millis(100), [&system, hall] {
      system.world().emit(hall, "motion", true);
    });
    sched.schedule_at(base + Duration::millis(500), [&system, room] {
      system.world().emit(room, "temp", 31.5);
    });
    sched.schedule_at(base + Duration::millis(500) + hot_for,
                      [&system, room] {
                        system.world().emit(room, "temp", 24.0);
                      });
    sched.schedule_at(base + period - Duration::millis(100),
                      [&system, hall] {
                        system.world().emit(hall, "motion", false);
                      });
  }
  system.run();

  const auto phi =
      core::parse_predicate("hot_and_motion", "temp[1] > 30 && motion[2]");
  const core::GroundTruthOracle oracle(phi, system.sensing());
  const auto truth =
      oracle.evaluate(system.world().timeline(), sys.sim.horizon);

  std::printf(
      "E10: every-occurrence detection — thermostat rule fires %zu times in "
      "ground truth\n\n",
      truth.occurrences.size());

  analysis::ScoreConfig score_cfg;
  score_cfg.tolerance = Duration::millis(150);

  Table table({"detector", "became-true reported", "became-false reported",
               "TP", "missed", "p50 latency (ms)", "p95 latency (ms)"});
  for (const auto& det : core::all_online_detectors()) {
    const auto detections = det->run(system.log(), phi);
    std::size_t ups = 0, downs = 0;
    for (const auto& d : detections) (d.to_true ? ups : downs)++;
    const auto score = analysis::score_detections(truth, detections, score_cfg);
    table.row()
        .cell(det->name())
        .cell(ups)
        .cell(downs)
        .cell(score.true_positives)
        .cell(score.false_negatives)
        .cell(score.latency_s.empty() ? 0.0 : score.latency_s.median() * 1e3,
              4)
        .cell(score.latency_s.empty() ? 0.0
                                      : score.latency_s.percentile(95) * 1e3,
              4);
  }
  std::printf("%s\n", table.ascii().c_str());
  std::printf(
      "Claim check: every detector reports ~%d became-true transitions (one\n"
      "per occurrence) — no detector 'hangs' after the first hit; latency is\n"
      "on the order of the message delay.\n",
      kOccurrences);
  return 0;
}
