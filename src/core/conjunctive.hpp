#pragma once

#include <optional>
#include <vector>

#include "clocks/timestamp.hpp"
#include "common/sim_time.hpp"
#include "core/execution_view.hpp"
#include "core/predicate.hpp"

namespace psn::core {

/// A maximal run of events at one process during which its local conjunct
/// held, bounded by the vector stamps of the opening event and of the event
/// that falsified it (open-ended intervals have no closing stamp).
struct ConjunctInterval {
  std::size_t process = 0;       ///< index into the ExecutionView
  std::size_t begin_event = 0;   ///< event index that made the conjunct true
  std::optional<std::size_t> end_event;  ///< event that falsified it
  clocks::VectorStamp begin_stamp;
  std::optional<clocks::VectorStamp> end_stamp;
  SimTime begin_time;
  std::optional<SimTime> end_time;
};

/// One detected satisfaction of the weak conjunctive predicate: a set of
/// pairwise-overlappable intervals, one per involved process.
struct ConjunctiveMatch {
  std::vector<ConjunctInterval> intervals;
  /// Earliest instant at which all conjuncts could have held together.
  SimTime window_begin;
};

/// Garg–Waldecker weak-conjunctive-predicate detection (paper §3.1.2.a,
/// [14]): φ = ∧ φ_i with each φ_i locally evaluable. Possibly(φ) holds iff
/// there is a set of local intervals, one per process, that are pairwise
/// concurrent — tested here purely with vector stamps (no physical clock).
///
/// Unlike the original "first occurrence then hang" algorithm the paper
/// criticizes (§3.3), this implementation keeps consuming intervals and
/// reports *every* disjoint occurrence.
class WeakConjunctiveDetector {
 public:
  /// `predicate` must satisfy Predicate::is_conjunctive().
  std::vector<ConjunctiveMatch> run(const ExecutionView& view,
                                    const Predicate& predicate) const;

  /// The true-intervals of the conjunction of `predicate`'s local conjuncts
  /// at view process `process` (exposed for tests and for the examples that
  /// display them). `predicate` must be conjunctive with a conjunct there.
  static std::vector<ConjunctInterval> local_intervals(
      const ExecutionView& view, std::size_t process,
      const Predicate& predicate);
};

}  // namespace psn::core
