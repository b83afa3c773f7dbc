#pragma once

#include <cstddef>
#include <vector>

#include "common/sim_time.hpp"
#include "common/stats.hpp"
#include "core/detectors.hpp"
#include "core/oracle.hpp"

namespace psn::analysis {

/// Matching policy for scoring a detector's became-true reports against the
/// oracle's occurrence starts.
struct ScoreConfig {
  /// A detection matches an oracle occurrence start if their true-time
  /// distance is within this tolerance. Use ~Δ plus a small margin: a correct
  /// detector cannot be more punctual than the message delay.
  Duration tolerance = Duration::millis(500);
};

/// Confusion counts of one detector run against ground truth. Borderline
/// detections (the vector-strobe race bin) are accounted separately so the
/// paper's claim — "false positives and most false negatives land in the
/// borderline bin" (§5) — is directly measurable.
struct DetectionScore {
  std::size_t oracle_occurrences = 0;
  std::size_t confident_detections = 0;
  std::size_t borderline_detections = 0;

  std::size_t true_positives = 0;    ///< confident, matched
  std::size_t false_positives = 0;   ///< confident, unmatched
  std::size_t false_negatives = 0;   ///< oracle start with no confident match
  /// Of the false negatives, how many had a borderline detection within
  /// tolerance (the race was at least flagged).
  std::size_t fn_covered_by_borderline = 0;
  /// Borderline detections that matched a real occurrence (correct but
  /// hedged) vs not (would-be false positives, successfully quarantined).
  std::size_t borderline_matched = 0;
  std::size_t borderline_unmatched = 0;

  /// detected_at − occurrence start, seconds, for matched confident pairs.
  SampleSet latency_s;

  /// Cause true times of the confident false positives, and occurrence start
  /// times of the false negatives — the inputs of the Δ-race audit
  /// (check/race_scan.hpp), which demands a race to blame for each.
  std::vector<SimTime> fp_cause_times;
  std::vector<SimTime> fn_occurrence_times;

  double precision() const;
  double recall() const;
  /// Recall when borderline detections are treated as positives — the
  /// "err on the safe side" reading of the borderline bin (§5).
  double recall_with_borderline() const;
  /// FN / occurrences (0 with no occurrences).
  double fn_rate() const;
  /// FP / confident detections (0 with no confident detections).
  double fp_rate() const;

  /// Accumulates counts across replications (latency samples concatenate).
  DetectionScore& operator+=(const DetectionScore& other);
};

/// Greedy in-order matching of became-true detections to oracle occurrence
/// starts on the true-time axis (DESIGN.md §6.5). Confident detections are
/// matched first; leftover oracle starts then try the borderline pool.
DetectionScore score_detections(const core::OracleResult& oracle,
                                const std::vector<core::Detection>& detections,
                                const ScoreConfig& config);

/// Fraction of [0, horizon) during which the detector's belief about φ
/// equalled ground truth. Reaction latency is charged: the belief changes
/// at each detection's detected_at.
double belief_accuracy(const core::OracleResult& oracle,
                       const std::vector<core::Detection>& detections,
                       SimTime horizon);

}  // namespace psn::analysis
