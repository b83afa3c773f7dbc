#pragma once

#include <vector>

#include "common/sim_time.hpp"
#include "core/oracle.hpp"

namespace psn::core::mtl {

/// A piecewise-constant boolean signal over [0, horizon) — the natural
/// semantic domain for the paper's "Temporal logic (*TL*) based"
/// specification option (§3.1.1.a.iv, citing the space-and-time
/// requirements logic of [6]): predicate truth values as functions of time,
/// produced by the oracle or by a detector's transition stream.
class BoolSignal {
 public:
  /// Builds from a transition list (ascending times). `initial` is the
  /// value on [0, first transition).
  BoolSignal(bool initial, std::vector<Transition> transitions,
             SimTime horizon);
  SimTime horizon() const { return horizon_; }
  /// True somewhere on [0, horizon).
  bool ever() const { return !intervals_.empty(); }

  // --- signal algebra (all results share this signal's horizon) ---
  BoolSignal operator!() const;
  BoolSignal operator&&(const BoolSignal& other) const;

  /// Eventually within [lo, hi]:  result(t) ⇔ ∃ t' ∈ [t+lo, t+hi] ∩ [0,H):
  /// this(t'). The metric "F" operator.
  BoolSignal eventually(Duration lo, Duration hi) const;

  /// Construct directly from true-intervals (clamped to [0, horizon)).
  static BoolSignal from_intervals(std::vector<Occurrence> intervals,
                                   SimTime horizon);

 private:
  SimTime horizon_;
  std::vector<Occurrence> intervals_;  // disjoint, sorted, non-empty each
};

/// The response idiom G (trigger → F[0, deadline] response) — e.g. "every
/// hot-and-occupied episode is followed by a thermostat reset within a
/// second".
bool responds_within(const BoolSignal& trigger, const BoolSignal& response,
                     Duration deadline);

}  // namespace psn::core::mtl
