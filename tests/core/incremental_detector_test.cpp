#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/rng.hpp"
#include "core/detectors.hpp"
#include "core/predicate_parser.hpp"

namespace psn::core {
namespace {

using namespace psn::time_literals;

SimTime t(std::int64_t ms) { return SimTime::zero() + Duration::millis(ms); }

ReceivedUpdate update(std::int64_t delivered_ms, ProcessId reporter,
                      const std::string& attr, double value,
                      std::vector<std::uint64_t> stamp) {
  ReceivedUpdate u;
  u.delivered_at = t(delivered_ms);
  u.reporter = reporter;
  u.report.attribute = attr;
  u.report.value = world::AttributeValue(value);
  u.report.strobe_scalar = {stamp[reporter], reporter};
  u.report.strobe_vector = clocks::VectorStamp(std::move(stamp));
  u.report.true_sense_time = t(delivered_ms - 1);
  u.report.synced_timestamp = u.report.true_sense_time;
  return u;
}

/// fold(feed) in the kind's consumption order, stated independently of
/// Detector::run: delivery order, or a stable sort by (synced timestamp,
/// reporter) for physical-eps.
std::vector<Detection> fold_feed(DetectorKind kind, const ObservationLog& log,
                                 const Predicate& phi) {
  std::vector<std::size_t> order(log.updates.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (kind == DetectorKind::kPhysicalEps) {
    std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
      const ReceivedUpdate& ua = log.updates[a];
      const ReceivedUpdate& ub = log.updates[b];
      return std::pair(ua.report.synced_timestamp, ua.reporter) <
             std::pair(ub.report.synced_timestamp, ub.reporter);
    });
  }
  OnlineDetector det(kind, phi);
  std::vector<Detection> out;
  for (const std::size_t i : order) {
    if (auto d = det.feed(log.updates[i], i)) out.push_back(*d);
  }
  return out;
}

void expect_same(const std::vector<Detection>& streamed,
                 const std::vector<Detection>& batch,
                 const std::string& context) {
  ASSERT_EQ(streamed.size(), batch.size()) << context;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(streamed[i].to_true, batch[i].to_true) << context;
    EXPECT_EQ(streamed[i].borderline, batch[i].borderline) << context;
    EXPECT_EQ(streamed[i].update_index, batch[i].update_index) << context;
    EXPECT_EQ(streamed[i].detected_at, batch[i].detected_at) << context;
    EXPECT_EQ(streamed[i].cause_true_time, batch[i].cause_true_time)
        << context;
  }
}

TEST(IncrementalDetectorTest, FeedMatchesBatchRun) {
  const auto phi = parse_predicate("p", "x[1] > 0 && x[2] > 0");
  ObservationLog log;
  log.num_processes = 3;
  log.updates.push_back(update(10, 1, "x", 1.0, {0, 1, 0}));
  log.updates.push_back(update(12, 2, "x", 1.0, {0, 0, 1}));  // vector race
  log.updates.push_back(update(20, 1, "x", 0.0, {0, 2, 1}));
  log.updates.push_back(update(25, 1, "x", 2.0, {0, 3, 1}));
  // Stale under the scalar order ((2, 1) after (3, 1)) and the vector one.
  log.updates.push_back(update(26, 1, "x", 1.0, {0, 2, 0}));
  log.updates.push_back(update(30, 2, "x", 0.0, {0, 3, 2}));
  // Equal synced time from two reporters, delivered out of (synced,
  // reporter) order: physical-eps consumes 7 before 6.
  log.updates.push_back(update(40, 2, "x", 1.0, {0, 3, 3}));
  log.updates.push_back(update(45, 1, "x", 3.0, {0, 4, 2}));
  log.updates[6].report.synced_timestamp = t(35);
  log.updates[7].report.synced_timestamp = t(35);

  for (const Detector* det : all_online_detectors()) {
    const auto batch = det->run(log, phi);
    expect_same(fold_feed(det->kind(), log, phi), batch, det->name());
    ASSERT_FALSE(batch.empty()) << det->name();
    // Update 6 completes φ; physical-eps could act on it only once update 7
    // (consumed first) had arrived.
    const Detection& last = batch.back();
    EXPECT_EQ(last.update_index, 6u) << det->name();
    EXPECT_EQ(last.detected_at,
              det->kind() == DetectorKind::kPhysicalEps ? t(45) : t(40))
        << det->name();
  }
}

TEST(IncrementalDetectorTest, HoldingTracksTruthValue) {
  const auto phi = parse_predicate("p", "x[1] > 0");
  OnlineDetector det(DetectorKind::kStrobeVector, phi);
  EXPECT_FALSE(det.holding());
  det.feed(update(10, 1, "x", 5.0, {0, 1}), 0);
  EXPECT_TRUE(det.holding());
  det.feed(update(20, 1, "x", 0.0, {0, 2}), 1);
  EXPECT_FALSE(det.holding());
}

TEST(IncrementalDetectorTest, NoDetectionWithoutChange) {
  const auto phi = parse_predicate("p", "x[1] > 10");
  OnlineDetector det(DetectorKind::kStrobeVector, phi);
  EXPECT_FALSE(det.feed(update(10, 1, "x", 1.0, {0, 1}), 0).has_value());
  EXPECT_FALSE(det.feed(update(20, 1, "x", 2.0, {0, 2}), 1).has_value());
  EXPECT_TRUE(det.feed(update(30, 1, "x", 11.0, {0, 3}), 2).has_value());
}

TEST(IncrementalDetectorTest, StaleFeedIsIgnored) {
  const auto phi = parse_predicate("p", "x[1] > 0");
  OnlineDetector det(DetectorKind::kStrobeVector, phi);
  det.feed(update(10, 1, "x", 5.0, {0, 3}), 0);
  // Older stamp with a falsifying value: must not fire a transition.
  EXPECT_FALSE(det.feed(update(20, 1, "x", 0.0, {0, 2}), 1).has_value());
  EXPECT_TRUE(det.holding());
}

TEST(IncrementalDetectorTest, MoveSemanticsPreserveState) {
  const auto phi = parse_predicate("p", "x[1] > 0");
  OnlineDetector a(DetectorKind::kStrobeVector, phi);
  a.feed(update(10, 1, "x", 5.0, {0, 1}), 0);
  OnlineDetector b = std::move(a);
  EXPECT_TRUE(b.holding());
  // The moved-to detector continues the stream seamlessly.
  const auto d = b.feed(update(20, 1, "x", 0.0, {0, 2}), 1);
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(d->to_true);
}

TEST(IncrementalDetectorTest, ExpiredObservationsAreFlaggedStale) {
  const auto phi = parse_predicate("p", "x[1] > 0 && x[2] > 0");
  ValidityHorizon horizon;
  horizon.lifetime = Duration::millis(50);
  OnlineDetector det(DetectorKind::kStrobeVector, phi, horizon);

  ReceivedUpdate first = update(10, 1, "x", 1.0, {0, 1, 0});
  first.report.synced_timestamp = t(9);
  // x[2] is still unknown: φ stays false and nothing is flagged.
  EXPECT_FALSE(det.feed(first, 0).has_value());

  // The second variable arrives 110 ms later: x[1]'s state expired at
  // 59 ms, so this evaluation reads expired state — the resulting
  // transition must be flagged borderline (the paper's err-on-the-safe-side
  // policy applied to temporal validity). The stamps are ordered, so no
  // race explains the flag.
  ReceivedUpdate second = update(120, 2, "x", 1.0, {0, 1, 1});
  second.report.synced_timestamp = t(119);
  const auto d = det.feed(second, 1);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->to_true);
  EXPECT_TRUE(d->borderline);
}

TEST(IncrementalDetectorTest, UnboundedHorizonNeverCountsStale) {
  const auto phi = parse_predicate("p", "x[1] > 0 && x[2] > 0");
  OnlineDetector det(DetectorKind::kStrobeVector, phi);
  // A detector's default validity policy is unbounded: arbitrarily old
  // state stays valid and nothing is flagged.
  det.feed(update(10, 1, "x", 1.0, {0, 1, 0}), 0);
  const auto d = det.feed(update(100000, 2, "x", 1.0, {0, 1, 1}), 1);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->to_true);
  EXPECT_FALSE(d->borderline);
}

TEST(IncrementalDetectorTest, RandomLogStreamBatchEquivalence) {
  // Property: for random logs, fold(feed) == batch, for every kind.
  const auto phi = parse_predicate("p", "sum(x) > 5");
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    ObservationLog log;
    log.num_processes = 4;
    std::vector<std::uint64_t> counts(4, 0);
    for (int i = 0; i < 80; ++i) {
      const auto pid = static_cast<ProcessId>(rng.uniform_int(1, 3));
      counts[pid]++;
      std::vector<std::uint64_t> stamp(4, 0);
      for (std::size_t k = 0; k < 4; ++k) {
        // Partially merged knowledge: anywhere from 0 to the true count.
        stamp[k] = static_cast<std::uint64_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(counts[k])));
      }
      stamp[pid] = counts[pid];  // own component exact
      log.updates.push_back(update(10 * (i + 1), pid, "x",
                                   rng.uniform(0.0, 4.0), std::move(stamp)));
    }
    for (const Detector* det : all_online_detectors()) {
      expect_same(fold_feed(det->kind(), log, phi), det->run(log, phi),
                  det->name() + " seed " + std::to_string(seed));
    }
  }
}

}  // namespace
}  // namespace psn::core
