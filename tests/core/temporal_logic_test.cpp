#include "core/temporal_logic.hpp"

#include <gtest/gtest.h>

namespace psn::core::mtl {
namespace {

using namespace psn::time_literals;

SimTime t(std::int64_t ms) { return SimTime::zero() + Duration::millis(ms); }
const SimTime kHorizon = t(1000);

BoolSignal sig(std::initializer_list<std::pair<std::int64_t, std::int64_t>>
                   true_intervals) {
  std::vector<Occurrence> xs;
  for (const auto& [b, e] : true_intervals) xs.push_back({t(b), t(e)});
  return BoolSignal::from_intervals(std::move(xs), kHorizon);
}

/// The signal's value on the millisecond [ms, ms + 1); every test signal
/// changes only on whole milliseconds.
bool at(const BoolSignal& s, std::int64_t ms) {
  return (s && sig({{ms, ms + 1}})).ever();
}

/// Same truth value everywhere on [0, horizon).
bool same(const BoolSignal& a, const BoolSignal& b) {
  return !(a && !b).ever() && !(!a && b).ever();
}

TEST(BoolSignalTest, ConstructionFromTransitions) {
  std::vector<Transition> trs = {{t(100), true, 0}, {t(300), false, 0},
                                 {t(700), true, 0}};
  BoolSignal s(false, trs, kHorizon);
  EXPECT_FALSE(at(s, 0));
  EXPECT_TRUE(at(s, 100));
  EXPECT_TRUE(at(s, 299));
  EXPECT_FALSE(at(s, 300));
  EXPECT_TRUE(at(s, 999));  // open at horizon
  EXPECT_TRUE(same(s, sig({{100, 300}, {700, 1000}})));
}

TEST(BoolSignalTest, InitialValueRespected) {
  BoolSignal s(true, {{t(400), false, 0}}, kHorizon);
  EXPECT_TRUE(at(s, 0));
  EXPECT_FALSE(at(s, 400));
  EXPECT_TRUE(same(s, sig({{0, 400}})));
}

TEST(BoolSignalTest, FromOracleMatchesOracle) {
  OracleResult oracle;
  oracle.transitions = {{t(200), true, 0}, {t(500), false, 0}};
  const BoolSignal s(false, oracle.transitions, kHorizon);
  EXPECT_FALSE(at(s, 100));
  EXPECT_TRUE(at(s, 350));
  EXPECT_FALSE(at(s, 600));
}

TEST(BoolSignalTest, ConstantsAndQueries) {
  const auto yes = sig({{0, 1000}});
  const auto no = sig({});
  EXPECT_FALSE((!yes).ever());  // always
  EXPECT_TRUE(yes.ever());
  EXPECT_FALSE(no.ever());
  EXPECT_TRUE((!no).ever());
}

TEST(BoolSignalTest, OverlappingIntervalsNormalized) {
  const auto s = sig({{100, 300}, {200, 400}, {400, 500}});
  EXPECT_TRUE(same(s, sig({{100, 500}})));  // merged into [100, 500)
  EXPECT_FALSE(at(s, 99));
  EXPECT_TRUE(at(s, 400));
  EXPECT_FALSE(at(s, 500));
}

TEST(BoolSignalTest, Negation) {
  const auto s = sig({{100, 300}});
  const auto ns = !s;
  EXPECT_TRUE(at(ns, 0));
  EXPECT_FALSE(at(ns, 200));
  EXPECT_TRUE(at(ns, 500));
  EXPECT_TRUE(same(ns, sig({{0, 100}, {300, 1000}})));
  // Double negation is identity.
  EXPECT_TRUE(same(!ns, s));
}

TEST(BoolSignalTest, AndOr) {
  const auto a = sig({{100, 400}});
  const auto b = sig({{300, 600}});
  EXPECT_TRUE(same(a && b, sig({{300, 400}})));
  const auto either = !(!a && !b);
  EXPECT_TRUE(same(either, sig({{100, 600}})));
}

TEST(BoolSignalTest, DeMorgan) {
  const auto a = sig({{50, 200}, {600, 800}});
  const auto b = sig({{150, 700}});
  // ¬(a ∧ b), against ¬a ∨ ¬b written out by hand.
  const auto lhs = !(a && b);
  const auto rhs = sig({{0, 150}, {200, 600}, {700, 1000}});
  for (std::int64_t ms = 0; ms < 1000; ms += 7) {
    EXPECT_EQ(at(lhs, ms), at(rhs, ms)) << ms;
  }
  EXPECT_TRUE(same(lhs, rhs));
}

TEST(MtlTest, EventuallyShiftsBackward) {
  // φ true on [500, 600); F[0, 100] φ true on [400, 600).
  const auto s = sig({{500, 600}});
  EXPECT_TRUE(same(s.eventually(0_ms, 100_ms), sig({{400, 600}})));
}

TEST(MtlTest, EventuallyWithLowerBound) {
  // F[100, 200] φ with φ on [500, 600): true iff [t+100, t+200] hits it:
  // t ∈ [300, 500).
  const auto s = sig({{500, 600}});
  EXPECT_TRUE(same(s.eventually(100_ms, 200_ms), sig({{300, 500}})));
}

TEST(MtlTest, AlwaysWithin) {
  // G[0, 100] φ, written as its dual ¬F[0, 100]¬φ, with φ on [200, 500):
  // need [t, t+100] ⊆ φ: t ∈ [200, 400). The closed [t, t+100] sample at
  // t=400 includes 500 — outside φ.
  const auto s = sig({{200, 500}});
  const auto g = !((!s).eventually(0_ms, 100_ms));
  EXPECT_TRUE(same(g, sig({{200, 400}})));
}

TEST(MtlTest, EventuallyAlwaysDuality) {
  // G[0, 50] φ implies φ now, and φ now implies F[0, 50] φ.
  const auto s = sig({{120, 380}, {700, 910}});
  const auto always = !((!s).eventually(0_ms, 50_ms));
  const auto eventually = s.eventually(0_ms, 50_ms);
  EXPECT_FALSE((always && !s).ever());
  EXPECT_FALSE((s && !eventually).ever());
  for (std::int64_t ms = 0; ms < 1000; ms += 3) {
    EXPECT_LE(at(always, ms), at(s, ms)) << ms;
    EXPECT_LE(at(s, ms), at(eventually, ms)) << ms;
  }
}

TEST(MtlTest, RespondsWithin) {
  // Trigger episodes at [100,150) and [500,550); responses at 180 and 590.
  const auto trigger = sig({{100, 150}, {500, 550}});
  const auto response = sig({{180, 190}, {590, 600}});
  EXPECT_TRUE(responds_within(trigger, response, 100_ms));
  // A 30 ms deadline misses the first response (at 180, trigger from 100).
  EXPECT_FALSE(responds_within(trigger, response, 30_ms));
}

TEST(MtlTest, RespondsWithinNoResponder) {
  const auto trigger = sig({{100, 150}});
  const auto response = sig({});
  EXPECT_FALSE(responds_within(trigger, response, 1_s));
  EXPECT_TRUE(responds_within(sig({}), response, 1_s));  // vacuous
}

TEST(MtlTest, NeverInvariant) {
  // The invariant G ¬bad holds iff `bad` is never true, even for 1 ms.
  EXPECT_FALSE(sig({}).ever());
  EXPECT_TRUE(sig({{1, 2}}).ever());
}

TEST(MtlTest, ThermostatSpecificationShape) {
  // The paper-flavored rule: G(hot-onset → F[0, 100ms] reset). The response
  // property is per-instant, so the trigger is the *onset pulse* of each
  // hot episode (the became-true edge a detector emits).
  const auto hot_onset = sig({{100, 110}, {600, 610}});
  const auto reset_ok = sig({{180, 190}, {690, 700}});
  EXPECT_TRUE(responds_within(hot_onset, reset_ok, 100_ms));
  // A 50 ms deadline misses both resets.
  EXPECT_FALSE(responds_within(hot_onset, reset_ok, 50_ms));
  const auto reset_missing_second = sig({{180, 190}});
  EXPECT_FALSE(responds_within(hot_onset, reset_missing_second, 100_ms));
}

}  // namespace
}  // namespace psn::core::mtl
