#include "core/interval_algebra.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace psn::core {
namespace {

using namespace psn::time_literals;

SimTime t(std::int64_t ms) { return SimTime::zero() + Duration::millis(ms); }
TimeInterval iv(std::int64_t b, std::int64_t e) { return {t(b), t(e)}; }

/// The enum lists each relation's inverse at the mirrored position (before
/// and after at the ends, equal in the middle).
AllenRelation inverse(AllenRelation r) {
  return static_cast<AllenRelation>(
      static_cast<int>(AllenRelation::kAfter) - static_cast<int>(r));
}

TEST(AllenTest, AllThirteenRelations) {
  EXPECT_EQ(classify(iv(0, 10), iv(20, 30)), AllenRelation::kBefore);
  EXPECT_EQ(classify(iv(0, 10), iv(10, 30)), AllenRelation::kMeets);
  EXPECT_EQ(classify(iv(0, 15), iv(10, 30)), AllenRelation::kOverlaps);
  EXPECT_EQ(classify(iv(10, 20), iv(10, 30)), AllenRelation::kStarts);
  EXPECT_EQ(classify(iv(15, 20), iv(10, 30)), AllenRelation::kDuring);
  EXPECT_EQ(classify(iv(20, 30), iv(10, 30)), AllenRelation::kFinishes);
  EXPECT_EQ(classify(iv(10, 30), iv(10, 30)), AllenRelation::kEqual);
  EXPECT_EQ(classify(iv(10, 30), iv(20, 30)), AllenRelation::kFinishedBy);
  EXPECT_EQ(classify(iv(10, 30), iv(15, 20)), AllenRelation::kContains);
  EXPECT_EQ(classify(iv(10, 30), iv(10, 20)), AllenRelation::kStartedBy);
  EXPECT_EQ(classify(iv(10, 30), iv(0, 15)), AllenRelation::kOverlappedBy);
  EXPECT_EQ(classify(iv(10, 30), iv(0, 10)), AllenRelation::kMetBy);
  EXPECT_EQ(classify(iv(20, 30), iv(0, 10)), AllenRelation::kAfter);
}

TEST(AllenTest, InverseIsInvolutionAndMatchesSwap) {
  const TimeInterval cases[][2] = {
      {iv(0, 10), iv(20, 30)}, {iv(0, 10), iv(10, 30)},
      {iv(0, 15), iv(10, 30)}, {iv(10, 20), iv(10, 30)},
      {iv(15, 20), iv(10, 30)}, {iv(20, 30), iv(10, 30)},
      {iv(10, 30), iv(10, 30)},
  };
  for (const auto& c : cases) {
    const AllenRelation r = classify(c[0], c[1]);
    EXPECT_EQ(inverse(inverse(r)), r);
    EXPECT_EQ(classify(c[1], c[0]), inverse(r)) << static_cast<int>(r);
  }
}

TEST(AllenTest, RejectsEmptyIntervals) {
  EXPECT_THROW(classify(iv(10, 10), iv(0, 5)), InvariantError);
}

TEST(AllenTest, Exhaustiveness) {
  // Every pair of non-empty intervals classifies to exactly one relation,
  // and swapping yields the inverse — over a grid of endpoint combinations.
  const std::int64_t pts[] = {0, 5, 10, 15};
  for (std::int64_t ab : pts) {
    for (std::int64_t ae : pts) {
      if (ae <= ab) continue;
      for (std::int64_t bb : pts) {
        for (std::int64_t be : pts) {
          if (be <= bb) continue;
          const AllenRelation r = classify(iv(ab, ae), iv(bb, be));
          EXPECT_EQ(classify(iv(bb, be), iv(ab, ae)), inverse(r));
        }
      }
    }
  }
}

TEST(CausalClassifyTest, ThreeOutcomes) {
  StampedInterval a, b;
  a.begin_stamp = clocks::VectorStamp({1, 0});
  a.end_stamp = clocks::VectorStamp({2, 0});
  b.begin_stamp = clocks::VectorStamp({2, 1});  // knows a's end
  b.end_stamp = clocks::VectorStamp({2, 2});
  EXPECT_EQ(classify_causal(a, b), CausalIntervalRelation::kPrecedes);
  EXPECT_EQ(classify_causal(b, a), CausalIntervalRelation::kPrecededBy);

  StampedInterval c, d;
  c.begin_stamp = clocks::VectorStamp({1, 0});
  c.end_stamp = clocks::VectorStamp({2, 0});
  d.begin_stamp = clocks::VectorStamp({0, 1});
  d.end_stamp = clocks::VectorStamp({0, 2});
  EXPECT_EQ(classify_causal(c, d), CausalIntervalRelation::kConcurrent);
}

TEST(CausalClassifyTest, OpenIntervalNeverPrecedes) {
  StampedInterval open, later;
  open.begin_stamp = clocks::VectorStamp({1, 0});
  // no end stamp: open at horizon
  later.begin_stamp = clocks::VectorStamp({5, 5});
  later.end_stamp = clocks::VectorStamp({5, 6});
  EXPECT_EQ(classify_causal(open, later), CausalIntervalRelation::kConcurrent);
}

TEST(SatisfiesTest, BeforeWithGapBounds) {
  RelativeTimingSpec spec;
  spec.relation = AllenRelation::kBefore;
  spec.max_gap = 100_ms;
  EXPECT_TRUE(satisfies(iv(0, 10), iv(50, 60), spec));    // gap 40 ms
  EXPECT_FALSE(satisfies(iv(0, 10), iv(200, 210), spec)); // gap 190 ms
  EXPECT_TRUE(satisfies(iv(0, 10), iv(10, 20), spec));    // meets: gap 0
  EXPECT_FALSE(satisfies(iv(50, 60), iv(0, 10), spec));   // wrong order

  spec.min_gap = 20_ms;
  EXPECT_FALSE(satisfies(iv(0, 10), iv(15, 20), spec));   // gap 5 < min
  EXPECT_TRUE(satisfies(iv(0, 10), iv(40, 50), spec));
}

TEST(SatisfiesTest, AfterIsFlippedBefore) {
  RelativeTimingSpec spec;
  spec.relation = AllenRelation::kAfter;
  spec.max_gap = 100_ms;
  EXPECT_TRUE(satisfies(iv(50, 60), iv(0, 10), spec));
  EXPECT_FALSE(satisfies(iv(0, 10), iv(50, 60), spec));
}

TEST(SatisfiesTest, ExactRelations) {
  RelativeTimingSpec spec;
  spec.relation = AllenRelation::kOverlaps;
  EXPECT_TRUE(satisfies(iv(0, 15), iv(10, 30), spec));
  EXPECT_FALSE(satisfies(iv(0, 5), iv(10, 30), spec));
  spec.relation = AllenRelation::kDuring;
  EXPECT_TRUE(satisfies(iv(15, 20), iv(10, 30), spec));
}

// ---- extraction from an observation log ----

ReceivedUpdate report(ProcessId pid, const std::string& attr, double value,
                      std::int64_t synced_ms, std::uint64_t own_seq,
                      std::vector<std::uint64_t> stamp) {
  ReceivedUpdate u;
  u.delivered_at = t(synced_ms + 5);
  u.reporter = pid;
  u.report.attribute = attr;
  u.report.value = world::AttributeValue(value);
  u.report.synced_timestamp = t(synced_ms);
  u.report.true_sense_time = t(synced_ms);
  u.report.strobe_scalar = {own_seq, pid};
  u.report.strobe_vector = clocks::VectorStamp(std::move(stamp));
  (void)own_seq;
  return u;
}

TEST(ExtractIntervalsTest, BasicExtraction) {
  ObservationLog log;
  log.num_processes = 2;
  log.updates.push_back(report(1, "x", 1.0, 100, 1, {0, 1}));
  log.updates.push_back(report(1, "x", 0.0, 200, 2, {0, 2}));
  log.updates.push_back(report(1, "x", 5.0, 300, 3, {0, 3}));

  const auto intervals = extract_intervals(
      log, VarRef{1, "x"}, [](double v) { return v > 0.0; });
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_EQ(intervals[0].when.begin, t(100));
  EXPECT_EQ(intervals[0].when.end, t(200));
  ASSERT_TRUE(intervals[0].end_stamp.has_value());
  EXPECT_EQ(intervals[1].when.begin, t(300));
  EXPECT_EQ(intervals[1].when.end, SimTime::max());  // open
  EXPECT_FALSE(intervals[1].end_stamp.has_value());
}

TEST(ExtractIntervalsTest, OutOfOrderDeliveryHandledByStampOrder) {
  ObservationLog log;
  log.num_processes = 2;
  // Delivered out of order: the falsifier (seq 2) arrives before the riser
  // (seq 1). Stamp-order extraction must still see one clean interval.
  log.updates.push_back(report(1, "x", 0.0, 200, 2, {0, 2}));
  log.updates.push_back(report(1, "x", 1.0, 100, 1, {0, 1}));
  const auto intervals = extract_intervals(
      log, VarRef{1, "x"}, [](double v) { return v > 0.0; });
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_EQ(intervals[0].when.begin, t(100));
  EXPECT_EQ(intervals[0].when.end, t(200));
}

TEST(ExtractIntervalsTest, FiltersOtherVariables) {
  ObservationLog log;
  log.num_processes = 3;
  log.updates.push_back(report(1, "x", 1.0, 100, 1, {0, 1, 0}));
  log.updates.push_back(report(2, "x", 1.0, 100, 1, {0, 0, 1}));  // other pid
  log.updates.push_back(report(1, "y", 1.0, 100, 2, {0, 2, 0}));  // other attr
  const auto intervals = extract_intervals(
      log, VarRef{1, "x"}, [](double v) { return v > 0.0; });
  EXPECT_EQ(intervals.size(), 1u);
}

TEST(RelativeTimingDetectorTest, SecureBankingRule) {
  // Paper §3.1.1.a.ii / [22]: "a biometric key is presented remotely after
  // a password is entered across the network" — Y after X, within 2 s.
  ObservationLog log;
  log.num_processes = 3;
  // password session at P1: [100, 300)
  log.updates.push_back(report(1, "password_ok", 1.0, 100, 1, {0, 1, 0}));
  log.updates.push_back(report(1, "password_ok", 0.0, 300, 2, {0, 2, 0}));
  // biometric at P2: [500, 600) — gap 200 ms after password end, and its
  // begin stamp dominates the password end stamp (causally after).
  log.updates.push_back(report(2, "biometric_ok", 1.0, 500, 1, {0, 2, 1}));
  log.updates.push_back(report(2, "biometric_ok", 0.0, 600, 2, {0, 2, 2}));

  RelativeTimingSpec spec;
  spec.relation = AllenRelation::kBefore;  // X (password) before Y (biometric)
  spec.max_gap = 2_s;
  RelativeTimingDetector det(
      VarRef{1, "password_ok"}, [](double v) { return v > 0; },
      VarRef{2, "biometric_ok"}, [](double v) { return v > 0; }, spec);
  const auto matches = det.run(log);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_TRUE(matches[0].causally_certified);
}

TEST(RelativeTimingDetectorTest, RacyMatchNotCertified) {
  ObservationLog log;
  log.num_processes = 3;
  log.updates.push_back(report(1, "x", 1.0, 100, 1, {0, 1, 0}));
  log.updates.push_back(report(1, "x", 0.0, 200, 2, {0, 2, 0}));
  // y begins 50 ms later by timestamps, but its stamp does NOT dominate
  // x's end stamp — a race: the timestamps could be lying within eps.
  log.updates.push_back(report(2, "y", 1.0, 250, 1, {0, 0, 1}));
  log.updates.push_back(report(2, "y", 0.0, 400, 2, {0, 0, 2}));

  RelativeTimingSpec spec;
  spec.relation = AllenRelation::kBefore;
  RelativeTimingDetector det(
      VarRef{1, "x"}, [](double v) { return v > 0; }, VarRef{2, "y"},
      [](double v) { return v > 0; }, spec);
  const auto matches = det.run(log);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_FALSE(matches[0].causally_certified);
}

TEST(RelativeTimingDetectorTest, EveryPairReported) {
  ObservationLog log;
  log.num_processes = 3;
  // Two password sessions, two biometric sessions, all in order.
  std::uint64_t p_seq = 0, b_seq = 0;
  for (int k = 0; k < 2; ++k) {
    const std::int64_t base = 1000 * k;
    log.updates.push_back(report(1, "x", 1.0, base + 100, ++p_seq,
                                 {0, p_seq, b_seq}));
    log.updates.push_back(report(1, "x", 0.0, base + 200, ++p_seq,
                                 {0, p_seq, b_seq}));
    log.updates.push_back(report(2, "y", 1.0, base + 300, ++b_seq,
                                 {0, p_seq, b_seq}));
    log.updates.push_back(report(2, "y", 0.0, base + 400, ++b_seq,
                                 {0, p_seq, b_seq}));
  }
  RelativeTimingSpec spec;
  spec.relation = AllenRelation::kBefore;
  spec.max_gap = 500_ms;  // only the same-episode pairs qualify
  RelativeTimingDetector det(
      VarRef{1, "x"}, [](double v) { return v > 0; }, VarRef{2, "y"},
      [](double v) { return v > 0; }, spec);
  EXPECT_EQ(det.run(log).size(), 2u);
}

}  // namespace
}  // namespace psn::core
