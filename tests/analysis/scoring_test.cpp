#include "analysis/scoring.hpp"

#include <gtest/gtest.h>

namespace psn::analysis {
namespace {

using namespace psn::time_literals;

SimTime t(std::int64_t ms) { return SimTime::zero() + Duration::millis(ms); }

core::OracleResult oracle_with_starts(std::initializer_list<std::int64_t> ms) {
  core::OracleResult r;
  for (const auto m : ms) {
    r.occurrences.push_back({t(m), t(m + 50)});
    r.transitions.push_back({t(m), true, 0});
    r.transitions.push_back({t(m + 50), false, 0});
  }
  return r;
}

core::Detection became_true(std::int64_t cause_ms, std::int64_t detect_ms,
                            bool borderline = false) {
  core::Detection d;
  d.to_true = true;
  d.borderline = borderline;
  d.cause_true_time = t(cause_ms);
  d.detected_at = t(detect_ms);
  return d;
}

ScoreConfig tol(std::int64_t ms) {
  ScoreConfig c;
  c.tolerance = Duration::millis(ms);
  return c;
}

TEST(ScoringTest, PerfectDetection) {
  const auto oracle = oracle_with_starts({100, 300, 500});
  std::vector<core::Detection> dets = {
      became_true(100, 120), became_true(300, 330), became_true(500, 540)};
  const auto s = score_detections(oracle, dets, tol(50));
  EXPECT_EQ(s.true_positives, 3u);
  EXPECT_EQ(s.false_positives, 0u);
  EXPECT_EQ(s.false_negatives, 0u);
  EXPECT_DOUBLE_EQ(s.precision(), 1.0);
  EXPECT_DOUBLE_EQ(s.recall(), 1.0);
  // Latencies recorded for matched pairs.
  EXPECT_EQ(s.latency_s.count(), 3u);
  EXPECT_NEAR(s.latency_s.mean(), (0.020 + 0.030 + 0.040) / 3.0, 1e-9);
}

TEST(ScoringTest, MissAndGhost) {
  const auto oracle = oracle_with_starts({100, 300});
  // One correct, one spurious far from anything.
  std::vector<core::Detection> dets = {became_true(100, 110),
                                       became_true(900, 910)};
  const auto s = score_detections(oracle, dets, tol(50));
  EXPECT_EQ(s.true_positives, 1u);
  EXPECT_EQ(s.false_positives, 1u);
  EXPECT_EQ(s.false_negatives, 1u);
  EXPECT_DOUBLE_EQ(s.precision(), 0.5);
  EXPECT_DOUBLE_EQ(s.recall(), 0.5);
}

TEST(ScoringTest, ToleranceBoundary) {
  const auto oracle = oracle_with_starts({100});
  const auto inside = score_detections(oracle, {became_true(150, 150)}, tol(50));
  EXPECT_EQ(inside.true_positives, 1u);
  const auto outside =
      score_detections(oracle, {became_true(151, 151)}, tol(50));
  EXPECT_EQ(outside.true_positives, 0u);
  EXPECT_EQ(outside.false_positives, 1u);
  EXPECT_EQ(outside.false_negatives, 1u);
}

TEST(ScoringTest, EachOccurrenceMatchedOnce) {
  const auto oracle = oracle_with_starts({100});
  // Two detections near the same occurrence: one TP, one FP.
  std::vector<core::Detection> dets = {became_true(100, 105),
                                       became_true(110, 115)};
  const auto s = score_detections(oracle, dets, tol(50));
  EXPECT_EQ(s.true_positives, 1u);
  EXPECT_EQ(s.false_positives, 1u);
}

TEST(ScoringTest, BorderlineCoversFalseNegative) {
  const auto oracle = oracle_with_starts({100, 300});
  // The first start gets only a borderline detection; the second a confident
  // one.
  std::vector<core::Detection> dets = {became_true(100, 105, true),
                                       became_true(300, 310)};
  const auto s = score_detections(oracle, dets, tol(50));
  EXPECT_EQ(s.true_positives, 1u);
  EXPECT_EQ(s.false_negatives, 1u);
  EXPECT_EQ(s.fn_covered_by_borderline, 1u);
  EXPECT_EQ(s.borderline_matched, 1u);
  EXPECT_EQ(s.borderline_unmatched, 0u);
  EXPECT_DOUBLE_EQ(s.recall(), 0.5);
  EXPECT_DOUBLE_EQ(s.recall_with_borderline(), 1.0);
}

TEST(ScoringTest, BorderlineGhostQuarantined) {
  const auto oracle = oracle_with_starts({100});
  // A borderline detection far from any occurrence is NOT a false positive —
  // the detector hedged, correctly.
  std::vector<core::Detection> dets = {became_true(100, 105),
                                       became_true(900, 905, true)};
  const auto s = score_detections(oracle, dets, tol(50));
  EXPECT_EQ(s.false_positives, 0u);
  EXPECT_EQ(s.borderline_unmatched, 1u);
}

TEST(ScoringTest, ConfidentMatchesTakePriorityOverBorderline) {
  const auto oracle = oracle_with_starts({100});
  std::vector<core::Detection> dets = {became_true(105, 110, true),
                                       became_true(100, 120)};
  const auto s = score_detections(oracle, dets, tol(50));
  EXPECT_EQ(s.true_positives, 1u);        // the confident one matched
  EXPECT_EQ(s.borderline_matched, 0u);    // borderline found nothing left
  EXPECT_EQ(s.borderline_unmatched, 1u);
}

TEST(ScoringTest, BecameFalseTransitionsIgnored) {
  const auto oracle = oracle_with_starts({100});
  core::Detection down;
  down.to_true = false;
  down.cause_true_time = t(100);
  down.detected_at = t(100);
  const auto s = score_detections(oracle, {down}, tol(50));
  EXPECT_EQ(s.confident_detections, 0u);
  EXPECT_EQ(s.false_negatives, 1u);
}

TEST(ScoringTest, EmptyEverything) {
  const auto s =
      score_detections(core::OracleResult{}, {}, tol(50));
  EXPECT_EQ(s.true_positives, 0u);
  EXPECT_DOUBLE_EQ(s.precision(), 1.0);
  EXPECT_DOUBLE_EQ(s.recall(), 1.0);
}

TEST(ScoringTest, AggregationSumsCounts) {
  DetectionScore a, b;
  a.true_positives = 2;
  a.oracle_occurrences = 3;
  a.latency_s.add(0.1);
  b.true_positives = 1;
  b.oracle_occurrences = 2;
  b.latency_s.add(0.3);
  a += b;
  EXPECT_EQ(a.true_positives, 3u);
  EXPECT_EQ(a.oracle_occurrences, 5u);
  EXPECT_EQ(a.latency_s.count(), 2u);
}

TEST(BeliefAccuracyTest, PerfectBeliefIsOne) {
  core::OracleResult oracle;
  oracle.transitions.push_back({t(100), true, 0});
  oracle.transitions.push_back({t(200), false, 0});
  std::vector<core::Detection> dets;
  core::Detection up = became_true(100, 100);
  core::Detection down;
  down.to_true = false;
  down.cause_true_time = t(200);
  down.detected_at = t(200);
  dets = {up, down};
  EXPECT_DOUBLE_EQ(belief_accuracy(oracle, dets, t(1000)), 1.0);
}

TEST(BeliefAccuracyTest, LatencyChargedWhenUsingDetectionTime) {
  core::OracleResult oracle;
  oracle.transitions.push_back({t(100), true, 0});
  // Detector reacts 100 ms late and never reports the falling edge.
  std::vector<core::Detection> dets = {became_true(100, 200)};
  const double acc = belief_accuracy(oracle, dets, t(1000), true);
  EXPECT_NEAR(acc, 0.9, 1e-9);
  const double acc_cause = belief_accuracy(oracle, dets, t(1000), false);
  EXPECT_NEAR(acc_cause, 1.0, 1e-9);
}

TEST(BeliefAccuracyTest, AlwaysWrongIsZero) {
  core::OracleResult oracle;
  oracle.transitions.push_back({t(0), true, 0});
  const double acc = belief_accuracy(oracle, {}, t(1000));
  EXPECT_DOUBLE_EQ(acc, 0.0);
}

TEST(BeliefAccuracyTest, NoSignalsPerfectAgreement) {
  EXPECT_DOUBLE_EQ(belief_accuracy(core::OracleResult{}, {}, t(1000)), 1.0);
}

}  // namespace
}  // namespace psn::analysis
