#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "clocks/timestamp.hpp"
#include "common/sim_time.hpp"
#include "core/observation.hpp"
#include "core/oracle.hpp"
#include "core/predicate.hpp"

namespace psn::core {

/// A closed-open time interval [begin, end) on some time axis (true time,
/// or a clock's readings).
struct TimeInterval {
  SimTime begin;
  SimTime end;

  Duration duration() const { return end - begin; }
  bool valid() const { return begin <= end; }
};

/// Allen's thirteen interval relations (paper §3.1.1.a.ii cites Allen [1]
/// and Hamblin [15] as the basis for "relative timing relations" such as
/// "X before Y" or "X overlaps Y").
enum class AllenRelation {
  kBefore,        ///< a ends strictly before b begins
  kMeets,         ///< a.end == b.begin
  kOverlaps,      ///< a starts first, they overlap, a ends first
  kStarts,        ///< same begin, a ends first
  kDuring,        ///< a strictly inside b
  kFinishes,      ///< same end, a starts later
  kEqual,
  kFinishedBy,    ///< inverse of kFinishes
  kContains,      ///< inverse of kDuring
  kStartedBy,     ///< inverse of kStarts
  kOverlappedBy,  ///< inverse of kOverlaps
  kMetBy,         ///< inverse of kMeets
  kAfter,         ///< inverse of kBefore
};

/// Exact Allen classification on a shared (single) time axis. Requires both
/// intervals non-empty (begin < end).
AllenRelation classify(const TimeInterval& a, const TimeInterval& b);

/// Coarse relation between two intervals under a *partial* order of time —
/// what vector stamps can certify without any physical clock. This is the
/// coarsest level of the fine-grained interval-interaction hierarchy of
/// [20, 21] that the paper references.
enum class CausalIntervalRelation {
  kPrecedes,     ///< a's end happens-before b's begin: a is over before b starts
  kPrecededBy,   ///< symmetric
  kConcurrent,   ///< neither end precedes the other begin — they *may* overlap
};

/// An interval of a variable satisfying a condition, bounded by vector
/// stamps (for causal classification) and by true/physical times.
struct StampedInterval {
  VarRef var;
  TimeInterval when;  ///< on whatever axis the extractor used
  clocks::VectorStamp begin_stamp;
  /// Missing for intervals still open at the horizon.
  std::optional<clocks::VectorStamp> end_stamp;
};

CausalIntervalRelation classify_causal(const StampedInterval& a,
                                       const StampedInterval& b);

/// Extracts, from the root's observation log, the maximal intervals during
/// which `condition` held on variable `var` (condition takes the reported
/// numeric value). Times are the reports' ε-synchronized timestamps —
/// what a deployed root actually has; stamps are the strobe vectors.
std::vector<StampedInterval> extract_intervals(
    const ObservationLog& log, const VarRef& var,
    const std::function<bool(double)>& condition);

/// Relative-timing specification (paper §3.1.1.a.ii): "X `relation` Y",
/// optionally with a real-time gap bound — e.g. the secure-banking rule of
/// [22]: the biometric key (Y) must be presented AFTER the password (X),
/// within `max_gap`.
struct RelativeTimingSpec {
  AllenRelation relation = AllenRelation::kBefore;
  /// For kBefore/kAfter: maximum allowed gap between the intervals
  /// (Duration::max() = unbounded), and minimum required gap.
  Duration min_gap = Duration::zero();
  Duration max_gap = Duration::max();
};

/// Whether intervals a (X) and b (Y) satisfy the spec on the single axis.
bool satisfies(const TimeInterval& a, const TimeInterval& b,
               const RelativeTimingSpec& spec);

/// A matched occurrence of a relative-timing predicate.
struct RelativeTimingMatch {
  StampedInterval x;
  StampedInterval y;
  /// True iff the vector stamps also certify the order (no race): for a
  /// kBefore spec, x causally precedes y. When false, the match rests only
  /// on ε-accurate timestamps and could be a race artifact.
  bool causally_certified = false;
};

/// Every-occurrence detector for a two-interval relative-timing predicate
/// over the observation log: finds all (x, y) interval pairs satisfying the
/// spec, marking which are additionally certified by the partial order.
class RelativeTimingDetector {
 public:
  RelativeTimingDetector(VarRef x_var, std::function<bool(double)> x_cond,
                         VarRef y_var, std::function<bool(double)> y_cond,
                         RelativeTimingSpec spec);

  std::vector<RelativeTimingMatch> run(const ObservationLog& log) const;

 private:
  VarRef x_var_, y_var_;
  std::function<bool(double)> x_cond_, y_cond_;
  RelativeTimingSpec spec_;
};

}  // namespace psn::core
