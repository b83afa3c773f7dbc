#pragma once

#include <string>
#include <vector>

#include "core/detectors.hpp"
#include "core/observation.hpp"
#include "core/predicate.hpp"
#include "core/sharded_system.hpp"

namespace psn::core {

/// Consensus-based strobe-vector detection — the paper's §5 formulation:
/// "the *consensus based algorithm* using vector strobes will be able to
/// place false positives and most false negatives in a 'borderline bin'
/// which is characterized by a race condition."
///
/// Every observer (the root plus any sensor with its observation log
/// enabled) sees the same strobe broadcasts in a *different* delivery
/// order. When no race occurred, all observers assemble the same state
/// sequence and report identical transitions; when the deciding updates
/// raced within Δ, observers disagree — either on whether a transition
/// happened at all, or on which sense event triggered it. Consensus
/// detection therefore classifies:
///   - transitions every observer reports identically → confident,
///   - anything else → borderline (a race, by construction).
/// This sharpens the single-observer stamp-concurrency heuristic of
/// the strobe-vector detector: disagreement is direct evidence of a race.
class ConsensusStrobeDetector {
 public:
  /// Runs the vector-strobe detector over each observer's log and merges
  /// by vote. `logs` must contain at least two observers (the root's log
  /// plus sensors'); detections are reported on the first (root) log's
  /// timeline.
  std::vector<Detection> run(
      const std::vector<const ObservationLog*>& logs,
      const Predicate& predicate) const;

  /// Convenience: collects the root log plus every sensor log that was
  /// enabled on `system`.
  static std::vector<const ObservationLog*> observer_logs(
      const ShardedPervasiveSystem& system);
};

/// Enables observation logs on all sensors of `system` (call before run()).
void enable_all_observers(ShardedPervasiveSystem& system);

}  // namespace psn::core
