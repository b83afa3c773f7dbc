#pragma once

#include <cstddef>

#include "analysis/experiments.hpp"

namespace psn::analysis {

// E9's strobe-equivalence check. bench_e9 prints through it at full scale
// and the `claims` tests assert through it at reduced scale, so a printed
// table and an asserted shape cannot drift apart. (E1 and E2 share
// analysis::sweep the same way.)

/// E9 part 1: strobe scalars against strobe vectors on one run.
struct StrobeEquivalence {
  std::size_t scalar_transitions = 0;
  std::size_t vector_transitions = 0;
  /// Same transitions with the same cause times, in the same order.
  bool identical = false;
  std::size_t scalar_errors = 0;  ///< FP + FN
  std::size_t vector_errors = 0;  ///< FP + FN
};

StrobeEquivalence compare_strobes(const OccupancyConfig& config);

}  // namespace psn::analysis
