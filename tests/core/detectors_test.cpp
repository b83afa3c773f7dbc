// Hand-crafted observation logs exercising each online detector's decision
// rules: staleness filtering, race (borderline) classification, and
// timestamp-order processing.

#include "core/detectors.hpp"

#include <gtest/gtest.h>

#include "analysis/experiments.hpp"
#include "core/predicate_parser.hpp"

namespace psn::core {
namespace {

using namespace psn::time_literals;

SimTime t(std::int64_t ms) { return SimTime::zero() + Duration::millis(ms); }

/// Builder for observation logs with explicit stamps.
struct LogBuilder {
  explicit LogBuilder(std::size_t n) { log.num_processes = n; }

  LogBuilder& update(std::int64_t delivered_ms, ProcessId reporter,
                     const std::string& attr, double value,
                     clocks::ScalarStamp scalar,
                     std::vector<std::uint64_t> vec,
                     std::int64_t sensed_ms = -1,
                     std::int64_t synced_us_offset = 0) {
    ReceivedUpdate u;
    u.delivered_at = t(delivered_ms);
    u.reporter = reporter;
    u.report.attribute = attr;
    u.report.value = world::AttributeValue(value);
    u.report.strobe_scalar = scalar;
    u.report.strobe_vector = clocks::VectorStamp(std::move(vec));
    const std::int64_t sensed = sensed_ms >= 0 ? sensed_ms : delivered_ms - 1;
    u.report.true_sense_time = t(sensed);
    u.report.synced_timestamp =
        t(sensed) + Duration::micros(synced_us_offset);
    log.updates.push_back(std::move(u));
    return *this;
  }

  ObservationLog log;
};

constexpr Detector kDeliveryOrder(DetectorKind::kDeliveryOrder);
constexpr Detector kStrobeScalar(DetectorKind::kStrobeScalar);
constexpr Detector kStrobeVector(DetectorKind::kStrobeVector);
constexpr Detector kPhysicalEps(DetectorKind::kPhysicalEps);

Predicate both_positive() { return parse_predicate("p", "x[1] > 0 && x[2] > 0"); }

TEST(DeliveryOrderDetectorTest, AppliesEverythingInArrivalOrder) {
  LogBuilder b(3);
  b.update(10, 1, "x", 1.0, {1, 1}, {0, 1, 0});
  b.update(20, 2, "x", 1.0, {1, 2}, {0, 0, 1});
  b.update(30, 1, "x", 0.0, {2, 1}, {0, 2, 1});
  const auto detections = kDeliveryOrder.run(b.log, both_positive());
  ASSERT_EQ(detections.size(), 2u);
  EXPECT_TRUE(detections[0].to_true);
  EXPECT_EQ(detections[0].detected_at, t(20));
  EXPECT_FALSE(detections[1].to_true);
  EXPECT_EQ(detections[1].detected_at, t(30));
  EXPECT_FALSE(detections[0].borderline);
}

TEST(StrobeScalarDetectorTest, DiscardsStaleUpdates) {
  // Updates from P1 arrive out of order; the older stamp must not overwrite
  // the newer value.
  LogBuilder b(2);
  b.update(10, 1, "x", 5.0, {3, 1}, {0, 3});   // newer arrives first
  b.update(20, 1, "x", 1.0, {2, 1}, {0, 2});   // stale — must be dropped
  const auto detections =
      kStrobeScalar.run(b.log, parse_predicate("p", "x[1] > 3"));
  ASSERT_EQ(detections.size(), 1u);  // only the became-true at t=10
  EXPECT_TRUE(detections[0].to_true);
}

TEST(StrobeScalarDetectorTest, NoBorderlineEver) {
  // Scalar order is total: races are invisible (paper §3.3) — the detector
  // never hedges.
  LogBuilder b(3);
  b.update(10, 1, "x", 1.0, {1, 1}, {0, 1, 0});
  b.update(11, 2, "x", 1.0, {1, 2}, {0, 0, 1});  // concurrent in vector terms
  const auto detections = kStrobeScalar.run(b.log, both_positive());
  for (const auto& d : detections) EXPECT_FALSE(d.borderline);
  ASSERT_EQ(detections.size(), 1u);
}

TEST(StrobeScalarDetectorTest, EqualStampsBreakByPid) {
  LogBuilder b(3);
  b.update(10, 2, "x", 2.0, {5, 2}, {0, 0, 5});
  // Same scalar value from lower pid — (5,1) < (5,2) so for a *different*
  // variable it still applies.
  b.update(20, 1, "x", 3.0, {5, 1}, {0, 5, 0});
  const auto detections =
      kStrobeScalar.run(b.log, parse_predicate("p", "x[1] + x[2] > 4"));
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_TRUE(detections[0].to_true);
}

TEST(StrobeVectorDetectorTest, DropsCausallySupersededUpdate) {
  LogBuilder b(2);
  b.update(10, 1, "x", 5.0, {3, 1}, {0, 3});
  b.update(20, 1, "x", 1.0, {2, 1}, {0, 2});  // happens-before the applied one
  const auto detections =
      kStrobeVector.run(b.log, parse_predicate("p", "x[1] > 3"));
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_TRUE(detections[0].to_true);
}

TEST(StrobeVectorDetectorTest, FlagsRaceAsBorderline) {
  // P1 and P2 sense concurrently (vector stamps incomparable): the resulting
  // transition must be borderline.
  LogBuilder b(3);
  b.update(10, 1, "x", 1.0, {1, 1}, {0, 1, 0});
  b.update(12, 2, "x", 1.0, {1, 2}, {0, 0, 1});  // concurrent with the above
  const auto detections = kStrobeVector.run(b.log, both_positive());
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_TRUE(detections[0].to_true);
  EXPECT_TRUE(detections[0].borderline);
}

TEST(StrobeVectorDetectorTest, OrderedUpdatesAreConfident) {
  // P2 heard P1's strobe before sensing: stamps are ordered — no race.
  LogBuilder b(3);
  b.update(10, 1, "x", 1.0, {1, 1}, {0, 1, 0});
  b.update(30, 2, "x", 1.0, {2, 2}, {0, 1, 1});  // dominates P1's stamp
  const auto detections = kStrobeVector.run(b.log, both_positive());
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_TRUE(detections[0].to_true);
  EXPECT_FALSE(detections[0].borderline);
}

TEST(StrobeVectorDetectorTest, RaceWithIrrelevantVariableIgnored) {
  // A concurrent update of a variable the predicate does not read must not
  // taint the transition.
  LogBuilder b(3);
  b.update(5, 2, "noise", 1.0, {1, 2}, {0, 0, 1});
  b.update(10, 1, "x", 5.0, {1, 1}, {0, 1, 0});  // concurrent with noise
  const auto detections =
      kStrobeVector.run(b.log, parse_predicate("p", "x[1] > 3"));
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_FALSE(detections[0].borderline);
}

TEST(StrobeVectorDetectorTest, AggregateReadsEveryVariableOfItsName) {
  // sum(x) reads x[1] and x[2] though φ names neither: their concurrent
  // updates decide the transition, so it is borderline.
  LogBuilder b(3);
  b.update(10, 1, "x", 1.0, {1, 1}, {0, 1, 0});
  b.update(12, 2, "x", 1.0, {1, 2}, {0, 0, 1});  // concurrent with the above
  const auto detections =
      kStrobeVector.run(b.log, parse_predicate("p", "sum(x) > 1"));
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_TRUE(detections[0].to_true);
  EXPECT_TRUE(detections[0].borderline);
}

TEST(StrobeVectorDetectorTest, AggregateIgnoresRaceWithAnotherName) {
  // y[2] is concurrent with x[1], but sum(x) does not read y.
  LogBuilder b(3);
  b.update(5, 2, "y", 1.0, {1, 2}, {0, 0, 1});
  b.update(10, 1, "x", 1.0, {1, 1}, {0, 1, 0});  // concurrent with y[2]
  const auto detections =
      kStrobeVector.run(b.log, parse_predicate("p", "sum(x) > 0"));
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_TRUE(detections[0].to_true);
  EXPECT_FALSE(detections[0].borderline);
}

TEST(PhysicalClockDetectorTest, ProcessesInTimestampOrder) {
  // Delivery order inverts the sense order; the synced timestamps restore it.
  LogBuilder b(3);
  // Sensed at 100 ms but delivered late.
  b.update(/*delivered=*/300, 1, "x", 1.0, {1, 1}, {0, 1, 0},
           /*sensed=*/100);
  // Sensed at 200 ms, delivered first.
  b.update(/*delivered=*/210, 2, "x", 1.0, {1, 2}, {0, 0, 1},
           /*sensed=*/200);
  // Falsifier sensed at 250 ms.
  b.update(/*delivered=*/260, 1, "x", 0.0, {2, 1}, {0, 2, 0},
           /*sensed=*/250);
  const auto detections = kPhysicalEps.run(b.log, both_positive());
  // Correct order: x1=1 (100), x2=1 (200) → true, x1=0 (250) → false.
  ASSERT_EQ(detections.size(), 2u);
  EXPECT_TRUE(detections[0].to_true);
  EXPECT_EQ(detections[0].cause_true_time, t(200));
  EXPECT_FALSE(detections[1].to_true);
}

TEST(PhysicalClockDetectorTest, SkewCanInvertCloseEvents) {
  // Two events 1 ms apart, but clock offsets of ±2 ms invert their synced
  // timestamps — the Mayo–Kearns failure mode.
  LogBuilder b(3);
  b.update(100, 1, "x", 1.0, {1, 1}, {0, 1, 0}, /*sensed=*/50,
           /*synced_us_offset=*/+2000);
  b.update(101, 2, "x", 1.0, {1, 2}, {0, 0, 1}, /*sensed=*/51,
           /*synced_us_offset=*/-2000);
  // In true time: x1 then x2, so φ becomes true at x2 (51 ms).
  // In synced order: x2 (49 ms) then x1 (52 ms) — φ "becomes true" at x1.
  const auto detections = kPhysicalEps.run(b.log, both_positive());
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_EQ(detections[0].cause_true_time, t(50));  // the wrong culprit
}

TEST(EveryOccurrenceTest, AllDetectorsReportEachTransition) {
  // φ toggles five times; every detector must report all 10 transitions
  // (no "detect once then hang" — paper §3.3).
  LogBuilder b(2);
  std::uint64_t stamp = 0;
  for (int k = 0; k < 5; ++k) {
    stamp++;
    b.update(100 * (2 * k + 1), 1, "x", 5.0, {stamp, 1}, {0, stamp});
    stamp++;
    b.update(100 * (2 * k + 2), 1, "x", 0.0, {stamp, 1}, {0, stamp});
  }
  const auto phi = parse_predicate("p", "x[1] > 3");
  for (const auto& det : all_online_detectors()) {
    const auto detections = det->run(b.log, phi);
    EXPECT_EQ(detections.size(), 10u) << det->name();
    for (std::size_t i = 0; i < detections.size(); ++i) {
      EXPECT_EQ(detections[i].to_true, i % 2 == 0) << det->name();
    }
  }
}

TEST(DetectorTest, EmptyLogYieldsNothing) {
  ObservationLog log;
  log.num_processes = 2;
  const auto phi = parse_predicate("p", "x[1] > 3");
  for (const auto& det : all_online_detectors()) {
    EXPECT_TRUE(det->run(log, phi).empty()) << det->name();
  }
}

TEST(DetectorTest, AllFourNamesDistinct) {
  const auto dets = all_online_detectors();
  ASSERT_EQ(dets.size(), 4u);
  std::set<std::string> names;
  for (const auto& d : dets) names.insert(d->name());
  EXPECT_EQ(names.size(), 4u);
}

TEST(StrobeOrderTest, ConstantTimeTestsMatchTheComponentwiseOrder) {
  // Differential check of the O(1) race and staleness tests against the
  // componentwise ones on every update pair of real 32-door hall logs.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    analysis::OccupancyConfig cfg;
    cfg.doors = 32;
    cfg.horizon = 30_s;
    cfg.seed = seed;
    auto system = analysis::build_occupancy_hall(cfg).system;
    system->run();
    const std::vector<ReceivedUpdate>& updates = system->log().updates;
    ASSERT_GT(updates.size(), 300u) << seed;
    std::size_t concurrent_pairs = 0;
    std::size_t same_reporter_pairs = 0;
    std::size_t superseded_pairs = 0;
    for (const ReceivedUpdate& u : updates) {
      const clocks::VectorStamp& us = u.report.strobe_vector;
      for (const ReceivedUpdate& f : updates) {
        const clocks::VectorStamp& fs = f.report.strobe_vector;
        const bool concurrent = clocks::concurrent(us, fs);
        ASSERT_EQ(strobe_concurrent(us, u.reporter, fs, f.reporter),
                  concurrent)
            << "seed " << seed << ": " << us.to_string() << " vs "
            << fs.to_string();
        concurrent_pairs += concurrent ? 1 : 0;
        if (u.reporter != f.reporter) continue;
        same_reporter_pairs++;
        const clocks::Ordering ord = clocks::compare(us, fs);
        const bool superseded = ord == clocks::Ordering::kBefore ||
                                ord == clocks::Ordering::kEqual;
        ASSERT_EQ(strobe_superseded(us, fs, u.reporter), superseded)
            << "seed " << seed << ": " << us.to_string() << " vs "
            << fs.to_string();
        superseded_pairs += superseded ? 1 : 0;
      }
    }
    // Both outcomes of both tests occur, so neither side is vacuous (each
    // update supersedes itself; more than that must).
    EXPECT_GT(concurrent_pairs, 0u) << seed;
    EXPECT_LT(concurrent_pairs, updates.size() * updates.size()) << seed;
    EXPECT_GT(superseded_pairs, updates.size()) << seed;
    EXPECT_LT(superseded_pairs, same_reporter_pairs) << seed;
  }
}

TEST(StrobeOrderTest, DimensionZeroStampsTakeTheComponentwiseOrder) {
  // Lean clocks send empty strobe vectors: equal, so never concurrent, and
  // a later one is superseded by an earlier one.
  const clocks::VectorStamp empty;
  EXPECT_FALSE(strobe_concurrent(empty, 1, empty, 2));
  EXPECT_TRUE(strobe_superseded(empty, empty, 1));
}

}  // namespace
}  // namespace psn::core
