// Ablation A4 — the paper's §5 "consensus based algorithm using vector
// strobes": race classification by multi-observer agreement instead of (or
// on top of) single-observer stamp concurrency.
//
// Each sensor keeps its own observation log; a transition is confident only
// if every observer derived it identically. Compare against the
// single-observer stamp heuristic on identical runs.
//
// Expected: consensus precision ≥ single-observer precision (disagreement
// catches stale-ordering races the stamp rule misses), at the cost of a
// larger borderline bin and O(n) observer state.

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "analysis/scoring.hpp"
#include "common/crew.hpp"
#include "common/table.hpp"
#include "core/consensus.hpp"
#include "core/oracle.hpp"
#include "core/predicate_parser.hpp"
#include "world/scenarios.hpp"

namespace {

using namespace psn;

struct SeedScores {
  analysis::DetectionScore single;
  analysis::DetectionScore consensus;
};

/// One full system build + run + consensus scoring for one seed. Pure
/// function of (delta_ms, seed), so seeds fan out across the crew.
SeedScores run_consensus_seed(std::int64_t delta_ms, std::uint64_t seed) {
  core::ShardedSystemConfig config;
  core::SystemConfig& sys = config.base;
  sys.num_sensors = 3;
  sys.sim.seed = seed;
  sys.sim.horizon = SimTime::zero() + Duration::seconds(60);
  sys.delta = Duration::millis(delta_ms);
  core::ShardedPervasiveSystem system(config);
  core::enable_all_observers(system);

  world::ExhibitionHallConfig hall_cfg;
  hall_cfg.doors = 3;
  hall_cfg.capacity = 50;
  hall_cfg.movement_rate = 12.0;
  hall_cfg.target_occupancy = 50;
  hall_cfg.initial_occupancy = 40;
  world::ExhibitionHall hall(system.world(), hall_cfg,
                             system.sim().rng_for("hall"));
  for (int k = 0; k < 3; ++k) {
    const auto pid = static_cast<ProcessId>(k + 1);
    system.assign(hall.door_object(k), "entered", pid);
    system.assign(hall.door_object(k), "exited", pid);
  }
  hall.start();
  system.run();

  const auto phi =
      core::parse_predicate("overcrowded", "sum(entered) - sum(exited) > 50");
  const core::GroundTruthOracle oracle(phi, system.sensing());
  const auto truth = oracle.evaluate(system.world().timeline(),
                                     SimTime::zero() + Duration::seconds(60));
  analysis::ScoreConfig score_cfg;
  score_cfg.tolerance = Duration::millis(2 * delta_ms + 1);

  const auto single_dets =
      core::Detector(core::DetectorKind::kStrobeVector).run(system.log(), phi);
  const auto logs = core::ConsensusStrobeDetector::observer_logs(system);
  const auto consensus_dets = core::ConsensusStrobeDetector().run(logs, phi);

  SeedScores scores;
  scores.single = analysis::score_detections(truth, single_dets, score_cfg);
  scores.consensus =
      analysis::score_detections(truth, consensus_dets, score_cfg);
  return scores;
}

}  // namespace

int main() {
  using namespace psn;

  constexpr std::size_t kReps = 10;
  std::printf(
      "A4: consensus vs single-observer borderline classification "
      "(3-door hall, capacity 50, 12 movements/s, %zu seeds x 60 s)\n\n",
      kReps);

  Table table({"Delta (ms)", "occurrences", "single FP", "consensus FP",
               "single precision", "consensus precision", "single bin",
               "consensus bin", "recall w/ bin (cons.)"});

  Crew crew(std::min(Crew::hardware_threads(), kReps));
  std::vector<SeedScores> per_seed(kReps);

  for (const std::int64_t delta_ms : {25, 75, 150, 300}) {
    // Seeds 1..kReps are independent runs; merge in seed order keeps the
    // totals identical to a sequential loop at any crew size.
    crew.for_each(kReps, [&](std::size_t i) {
      per_seed[i] = run_consensus_seed(delta_ms, i + 1);
    });
    analysis::DetectionScore single_total, consensus_total;
    for (const SeedScores& s : per_seed) {
      single_total += s.single;
      consensus_total += s.consensus;
    }

    table.row()
        .cell(delta_ms)
        .cell(single_total.oracle_occurrences)
        .cell(single_total.false_positives)
        .cell(consensus_total.false_positives)
        .cell(single_total.precision(), 3)
        .cell(consensus_total.precision(), 3)
        .cell(single_total.borderline_detections)
        .cell(consensus_total.borderline_detections)
        .cell(consensus_total.recall_with_borderline(), 3);
  }
  std::printf("%s\n", table.ascii().c_str());
  std::printf(
      "Reading: multi-observer agreement removes residual confident FPs the\n"
      "stamp heuristic lets through (the E6 caveat in EXPERIMENTS.md), at\n"
      "the price of a larger borderline bin — the full §5 claim, 'false\n"
      "positives AND most false negatives in the borderline bin'.\n");
  return 0;
}
