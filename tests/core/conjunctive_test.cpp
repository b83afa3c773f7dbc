#include "core/conjunctive.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/predicate_parser.hpp"

namespace psn::core {
namespace {

SimTime t(std::int64_t ms) { return SimTime::zero() + Duration::millis(ms); }

struct ViewBuilder {
  explicit ViewBuilder(std::vector<ProcessId> pids)
      : pids_(std::move(pids)), events_(pids_.size()) {}

  ViewBuilder& event(std::size_t process, std::vector<std::uint64_t> stamp,
                     const std::string& var, double value, std::int64_t ms) {
    ExecutionView::Event e;
    e.stamp = clocks::VectorStamp(std::move(stamp));
    e.var = VarRef{pids_[process], var};
    e.value = value;
    e.when = t(ms);
    events_[process].push_back(std::move(e));
    return *this;
  }

  ExecutionView build() { return ExecutionView(pids_, events_); }

  std::vector<ProcessId> pids_;
  std::vector<std::vector<ExecutionView::Event>> events_;
};

TEST(LocalIntervalsTest, ExtractsTrueRuns) {
  ViewBuilder b({1});
  b.event(0, {0, 1}, "x", 1.0, 10);   // conjunct true
  b.event(0, {0, 2}, "x", 0.0, 20);   // false
  b.event(0, {0, 3}, "x", 2.0, 30);   // true again, open-ended
  const auto view = b.build();
  const auto intervals = WeakConjunctiveDetector::local_intervals(
      view, 0, parse_predicate("c", "x[1] > 0"));
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_EQ(intervals[0].begin_time, t(10));
  ASSERT_TRUE(intervals[0].end_time.has_value());
  EXPECT_EQ(*intervals[0].end_time, t(20));
  EXPECT_EQ(intervals[1].begin_time, t(30));
  EXPECT_FALSE(intervals[1].end_time.has_value());  // open at horizon
}

TEST(LocalIntervalsTest, RejectsConjunctTrueOnEmptyState) {
  ViewBuilder b({1});
  b.event(0, {0, 1}, "x", 1.0, 10);
  const auto view = b.build();
  EXPECT_THROW(WeakConjunctiveDetector::local_intervals(
                   view, 0, parse_predicate("c", "x[1] < 5")),
               InvariantError);
}

TEST(WeakConjunctiveTest, ConcurrentIntervalsMatch) {
  // P1's x>0 interval and P2's y>0 interval are concurrent (no causal order
  // between them): Possibly(x>0 && y>0) must be detected.
  ViewBuilder b({1, 2});
  b.event(0, {0, 1, 0}, "x", 1.0, 10);
  b.event(1, {0, 0, 1}, "y", 1.0, 12);
  const auto matches = WeakConjunctiveDetector().run(
      b.build(), parse_predicate("p", "x[1] > 0 && y[2] > 0"));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].intervals.size(), 2u);
  EXPECT_EQ(matches[0].window_begin, t(12));
}

TEST(WeakConjunctiveTest, SequentialIntervalsDoNotMatch) {
  // P1's interval ends (causally) before P2's begins: no common cut.
  ViewBuilder b({1, 2});
  b.event(0, {0, 1, 0}, "x", 1.0, 10);  // x>0 begins
  b.event(0, {0, 2, 0}, "x", 0.0, 20);  // x>0 ends, stamp [0,2,0]
  // P2's y>0 begins knowing P1's end (stamp dominates [0,2,0]).
  b.event(1, {0, 2, 1}, "y", 1.0, 30);
  const auto matches = WeakConjunctiveDetector().run(
      b.build(), parse_predicate("p", "x[1] > 0 && y[2] > 0"));
  EXPECT_TRUE(matches.empty());
}

TEST(WeakConjunctiveTest, EliminationFindsLaterInterval) {
  // P1's first interval precedes P2's interval, but P1's *second* interval
  // overlaps it: GW must skip the first and match the second.
  ViewBuilder b({1, 2});
  b.event(0, {0, 1, 0}, "x", 1.0, 10);
  b.event(0, {0, 2, 0}, "x", 0.0, 20);   // first interval closed
  b.event(1, {0, 2, 1}, "y", 1.0, 30);   // y-interval knows that closure
  b.event(0, {0, 3, 1}, "x", 5.0, 40);   // second x-interval, concurrent-ish
  const auto matches = WeakConjunctiveDetector().run(
      b.build(), parse_predicate("p", "x[1] > 0 && y[2] > 0"));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].window_begin, t(40));
}

TEST(WeakConjunctiveTest, EveryOccurrenceReported) {
  // Two disjoint co-occurrences must yield two matches (not "detect once and
  // hang", paper §3.3).
  ViewBuilder b({1, 2});
  // First co-occurrence.
  b.event(0, {0, 1, 0}, "x", 1.0, 10);
  b.event(1, {0, 0, 1}, "y", 1.0, 11);
  b.event(0, {0, 2, 1}, "x", 0.0, 20);
  b.event(1, {0, 2, 2}, "y", 0.0, 21);
  // Second co-occurrence.
  b.event(0, {0, 3, 2}, "x", 1.0, 30);
  b.event(1, {0, 3, 3}, "y", 1.0, 31);
  const auto matches = WeakConjunctiveDetector().run(
      b.build(), parse_predicate("p", "x[1] > 0 && y[2] > 0"));
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].window_begin, t(11));
  EXPECT_EQ(matches[1].window_begin, t(31));
}

TEST(WeakConjunctiveTest, UninvolvedProcessDoesNotConstrain) {
  // The predicate only mentions P1; P2's execution is irrelevant.
  ViewBuilder b({1, 2});
  b.event(0, {0, 1, 0}, "x", 1.0, 10);
  b.event(1, {0, 0, 1}, "z", 9.0, 15);
  const auto matches = WeakConjunctiveDetector().run(
      b.build(), parse_predicate("p", "x[1] > 0"));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].intervals.size(), 1u);
}

TEST(WeakConjunctiveTest, NoIntervalsNoMatch) {
  ViewBuilder b({1, 2});
  b.event(0, {0, 1, 0}, "x", 1.0, 10);
  // P2 never satisfies its conjunct.
  b.event(1, {0, 0, 1}, "y", 0.0, 15);
  const auto matches = WeakConjunctiveDetector().run(
      b.build(), parse_predicate("p", "x[1] > 0 && y[2] > 0"));
  EXPECT_TRUE(matches.empty());
}

TEST(WeakConjunctiveTest, RequiresConjunctivePredicate) {
  ViewBuilder b({1, 2});
  b.event(0, {0, 1, 0}, "x", 1.0, 10);
  EXPECT_THROW(WeakConjunctiveDetector().run(
                   b.build(), parse_predicate("p", "x[1] + y[2] > 7")),
               InvariantError);
}

}  // namespace
}  // namespace psn::core
