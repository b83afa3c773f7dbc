#pragma once

#include <vector>

#include "common/sim_time.hpp"
#include "core/predicate.hpp"
#include "core/sensing.hpp"
#include "world/timeline.hpp"

namespace psn::core {

/// A change of the predicate's truth value in ground truth (or in a
/// detector's output — the two streams are scored against each other).
struct Transition {
  SimTime when;
  bool to_true = false;
  world::WorldEventIndex cause = world::kNoWorldEvent;
};

/// A maximal true-time interval [begin, end) during which φ held.
struct Occurrence {
  SimTime begin;
  SimTime end;
  Duration duration() const { return end - begin; }
};

struct OracleResult {
  std::vector<Transition> transitions;
  std::vector<Occurrence> occurrences;
  /// Fraction of [0, horizon) during which φ held.
  double fraction_true = 0.0;
};

/// Replays the world timeline in true-time order, translating world events
/// into predicate variables via the sensing map, and records exactly when φ
/// changed truth value. This is what a zero-delay, perfectly-clocked,
/// omniscient observer would see — the reference every detector is measured
/// against (DESIGN.md §6.5).
class GroundTruthOracle {
 public:
  GroundTruthOracle(Predicate predicate, const SensingMap& sensing);

  OracleResult evaluate(const world::WorldTimeline& timeline,
                        SimTime horizon) const;

 private:
  Predicate predicate_;
  const SensingMap& sensing_;
};

}  // namespace psn::core
