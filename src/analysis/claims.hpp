#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "common/stats.hpp"

namespace psn::analysis {

// E9's strobe-equivalence check and E10's every-occurrence workload.
// bench_e9 and bench_e10 print through them and the `claims` tests assert
// through them, so a printed table and an asserted shape cannot drift
// apart. (E1 and E2 share analysis::sweep the same way.)

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

/// E10: what one detector reported on the thermostat workload.
struct OccurrenceReport {
  std::string detector;
  std::size_t became_true = 0;
  std::size_t became_false = 0;
  std::size_t true_positives = 0;
  std::size_t false_negatives = 0;
  SampleSet latency_s;  ///< reaction latency per detected occurrence
};

struct EveryOccurrence {
  std::size_t occurrences = 0;  ///< became-true transitions in ground truth
  std::vector<OccurrenceReport> detectors;  ///< all_online_detectors() order
};

/// E10: two sensors, P_1 on a room's temperature and P_2 on a hallway's
/// motion, under uniform delay with Δ = 60 ms. Each 2 s period turns motion
/// on, holds the temperature above 30 for 600 ms, then turns motion off, so
/// the thermostat rule φ = temp[1] > 30 && motion[2] becomes true exactly
/// `occurrences` times. Scored with a 150 ms tolerance.
EveryOccurrence every_occurrence(std::size_t occurrences, std::uint64_t seed);

}  // namespace psn::analysis
