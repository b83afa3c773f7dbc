#include "core/oracle.hpp"

#include <gtest/gtest.h>

#include "core/predicate_parser.hpp"
#include "world/timeline.hpp"

namespace psn::core {
namespace {

using namespace psn::time_literals;

SimTime t(std::int64_t ms) { return SimTime::zero() + Duration::millis(ms); }

world::WorldEvent ev(std::int64_t ms, world::ObjectId obj,
                     const std::string& attr, world::AttributeValue v) {
  world::WorldEvent e;
  e.when = t(ms);
  e.object = obj;
  e.attribute = attr;
  e.value = v;
  return e;
}

struct OracleFixture {
  OracleFixture() {
    sensing.assign(0, "x", 1);
    sensing.assign(1, "y", 2);
  }
  SensingMap sensing;
  world::WorldTimeline timeline;
};

TEST(OracleTest, SingleOccurrence) {
  OracleFixture f;
  f.timeline.append(ev(100, 0, "x", std::int64_t{5}));   // x=5 → φ true
  f.timeline.append(ev(300, 0, "x", std::int64_t{1}));   // φ false
  const GroundTruthOracle oracle(parse_predicate("p", "x[1] > 3"), f.sensing);
  const OracleResult r = oracle.evaluate(f.timeline, t(1000));

  ASSERT_EQ(r.transitions.size(), 2u);
  EXPECT_EQ(r.transitions[0].when, t(100));
  EXPECT_TRUE(r.transitions[0].to_true);
  EXPECT_EQ(r.transitions[1].when, t(300));
  EXPECT_FALSE(r.transitions[1].to_true);

  ASSERT_EQ(r.occurrences.size(), 1u);
  EXPECT_EQ(r.occurrences[0].begin, t(100));
  EXPECT_EQ(r.occurrences[0].end, t(300));
  EXPECT_EQ(r.occurrences[0].duration(), 200_ms);
  EXPECT_NEAR(r.fraction_true, 0.2, 1e-9);
}

TEST(OracleTest, EveryOccurrenceCounted) {
  // The paper's requirement (§3.3): detect EACH occurrence, not just the
  // first.
  OracleFixture f;
  for (int k = 0; k < 5; ++k) {
    f.timeline.append(ev(100 + 200 * k, 0, "x", std::int64_t{10}));
    f.timeline.append(ev(200 + 200 * k, 0, "x", std::int64_t{0}));
  }
  const GroundTruthOracle oracle(parse_predicate("p", "x[1] > 3"), f.sensing);
  const OracleResult r = oracle.evaluate(f.timeline, t(2000));
  EXPECT_EQ(r.occurrences.size(), 5u);
  EXPECT_EQ(r.transitions.size(), 10u);
}

TEST(OracleTest, OpenAtHorizon) {
  OracleFixture f;
  f.timeline.append(ev(400, 0, "x", std::int64_t{9}));
  const GroundTruthOracle oracle(parse_predicate("p", "x[1] > 3"), f.sensing);
  const OracleResult r = oracle.evaluate(f.timeline, t(1000));
  ASSERT_EQ(r.occurrences.size(), 1u);
  EXPECT_EQ(r.occurrences[0].end, t(1000));
  EXPECT_NEAR(r.fraction_true, 0.6, 1e-9);
}

TEST(OracleTest, CrossVariablePredicate) {
  OracleFixture f;
  f.timeline.append(ev(100, 0, "x", std::int64_t{4}));
  f.timeline.append(ev(200, 1, "y", std::int64_t{4}));  // x+y=8 > 7 → true
  f.timeline.append(ev(300, 0, "x", std::int64_t{3}));  // 7 → false
  const GroundTruthOracle oracle(parse_predicate("p", "x[1] + y[2] > 7"),
                                 f.sensing);
  const OracleResult r = oracle.evaluate(f.timeline, t(500));
  ASSERT_EQ(r.occurrences.size(), 1u);
  EXPECT_EQ(r.occurrences[0].begin, t(200));
  EXPECT_EQ(r.occurrences[0].end, t(300));
}

TEST(OracleTest, UnassignedAttributesIgnored) {
  OracleFixture f;
  f.timeline.append(ev(100, 0, "unmonitored", std::int64_t{99}));
  f.timeline.append(ev(200, 0, "x", std::int64_t{5}));
  const GroundTruthOracle oracle(parse_predicate("p", "x[1] > 3"), f.sensing);
  const OracleResult r = oracle.evaluate(f.timeline, t(500));
  ASSERT_EQ(r.occurrences.size(), 1u);
  EXPECT_EQ(r.occurrences[0].begin, t(200));
}

TEST(OracleTest, EventsBeyondHorizonIgnored) {
  OracleFixture f;
  f.timeline.append(ev(100, 0, "x", std::int64_t{5}));
  f.timeline.append(ev(900, 0, "x", std::int64_t{0}));
  const GroundTruthOracle oracle(parse_predicate("p", "x[1] > 3"), f.sensing);
  const OracleResult r = oracle.evaluate(f.timeline, t(500));
  ASSERT_EQ(r.occurrences.size(), 1u);
  EXPECT_EQ(r.occurrences[0].end, t(500));  // clipped at horizon
}

TEST(OracleTest, NoChangeNoTransitions) {
  OracleFixture f;
  f.timeline.append(ev(100, 0, "x", std::int64_t{1}));
  f.timeline.append(ev(200, 0, "x", std::int64_t{2}));
  const GroundTruthOracle oracle(parse_predicate("p", "x[1] > 3"), f.sensing);
  const OracleResult r = oracle.evaluate(f.timeline, t(500));
  EXPECT_TRUE(r.transitions.empty());
  EXPECT_TRUE(r.occurrences.empty());
  EXPECT_DOUBLE_EQ(r.fraction_true, 0.0);
}

TEST(OracleTest, TrueOnEmptyStateRecordsInitialTransition) {
  OracleFixture f;
  // φ is true with no variables reported at all (x=0 ⇒ x < 3).
  const GroundTruthOracle oracle(parse_predicate("p", "x[1] < 3"), f.sensing);
  f.timeline.append(ev(100, 0, "x", std::int64_t{10}));
  const OracleResult r = oracle.evaluate(f.timeline, t(200));
  ASSERT_GE(r.transitions.size(), 2u);
  EXPECT_EQ(r.transitions[0].when, SimTime::zero());
  EXPECT_TRUE(r.transitions[0].to_true);
  ASSERT_EQ(r.occurrences.size(), 1u);
  EXPECT_EQ(r.occurrences[0].begin, SimTime::zero());
  EXPECT_EQ(r.occurrences[0].end, t(100));
}

}  // namespace
}  // namespace psn::core
