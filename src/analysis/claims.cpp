#include "analysis/claims.hpp"

namespace psn::analysis {

StrobeEquivalence compare_strobes(const OccupancyConfig& config) {
  const OccupancyRunResult run = run_occupancy_experiment(config);
  const DetectorOutcome& s = run.outcome("strobe-scalar");
  const DetectorOutcome& v = run.outcome("strobe-vector");
  StrobeEquivalence eq;
  eq.scalar_transitions = s.detections.size();
  eq.vector_transitions = v.detections.size();
  eq.identical = s.detections.size() == v.detections.size();
  for (std::size_t i = 0; eq.identical && i < s.detections.size(); ++i) {
    eq.identical = s.detections[i].to_true == v.detections[i].to_true &&
                   s.detections[i].cause_true_time ==
                       v.detections[i].cause_true_time;
  }
  eq.scalar_errors = s.score.false_positives + s.score.false_negatives;
  eq.vector_errors = v.score.false_positives + v.score.false_negatives;
  return eq;
}

}  // namespace psn::analysis
