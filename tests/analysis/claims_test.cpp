// The paper's aggregate claims as assertions (`ctest -L claims`): reduced
// scale, seed-replicated versions of EXPERIMENTS.md E1, E2 and E9, asserted
// through the same analysis:: functions the bench_e* binaries print through
// (analysis::sweep for E1 and E2, analysis::compare_strobes for E9).
// Golden hashes pin bytes; these pin meaning, so a re-pin of the goldens
// (e.g. after an RNG change) cannot silently break a reproduced claim.
#include "analysis/claims.hpp"
#include "analysis/sweep.hpp"

#include <gtest/gtest.h>

namespace psn::analysis {
namespace {

using namespace psn::time_literals;

// λ = 10 movements/s, so Δ ∈ {1, 100, 300} ms is Δ·λ ∈ {0.01, 1, 3}.
constexpr double kRate = 10.0;
constexpr std::size_t kReps = 10;

double delta_lambda(const PointResult& p) {
  return p.config.delta.to_seconds() * kRate;
}

std::vector<PointResult> reduced_sweep(std::uint64_t seed) {
  OccupancyConfig base;
  base.doors = 2;
  base.capacity = 50;
  base.movement_rate = kRate;
  base.horizon = 60_s;
  base.seed = seed;
  return sweep(base)
      .vary_delta({1_ms, 100_ms, 300_ms})
      .replications(kReps)
      .run()
      .points;
}

// E1: vector-strobe error ≈ 0 at Δ·λ ≪ 1 and non-decreasing in Δ·λ. The
// tolerance absorbs seed noise between adjacent points; the measured steps
// (EXPERIMENTS.md) are ten times larger.
TEST(ClaimsTest, E1VectorFnRateNonDecreasingInDeltaLambda) {
  constexpr double kStepTolerance = 0.02;
  constexpr double kNearZero = 0.02;
  const auto points = reduced_sweep(1);
  ASSERT_EQ(points.size(), 3u);
  for (const auto& p : points) {
    ASSERT_GT(p.at("strobe-vector").score.oracle_occurrences, 200u)
        << "Δ·λ " << delta_lambda(p);
  }
  EXPECT_LE(points[0].at("strobe-vector").score.fn_rate(), kNearZero);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].at("strobe-vector").score.fn_rate(),
              points[i - 1].at("strobe-vector").score.fn_rate() -
                  kStepTolerance)
        << "Δ·λ " << delta_lambda(points[i - 1]) << " -> "
        << delta_lambda(points[i]);
  }
}

// E2: scalar strobes assert races confidently, vector strobes quarantine
// them, so scalar FP ≥ vector FP at every Δ; at Δ·λ ≪ 1 there are almost no
// races, so the vector FP rate is ≈ 0.
TEST(ClaimsTest, E2ScalarFpAtLeastVectorFpAndVectorFpNearZero) {
  constexpr std::size_t kFpSlack = 1;  // one FP of seed noise per point
  constexpr double kNearZero = 0.02;
  const auto points = reduced_sweep(100);
  ASSERT_EQ(points.size(), 3u);
  for (const auto& p : points) {
    EXPECT_GE(p.at("strobe-scalar").score.false_positives + kFpSlack,
              p.at("strobe-vector").score.false_positives)
        << "Δ·λ " << delta_lambda(p);
  }
  EXPECT_LE(points[0].at("strobe-vector").score.fp_rate(), kNearZero);
}

// E9: at Δ = 0 (synchronous delivery, a strobe per event) strobe scalars and
// strobe vectors detect identically and exactly. A theorem, so the
// tolerance is zero on every seed.
TEST(ClaimsTest, E9ScalarEqualsVectorAtDeltaZero) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    OccupancyConfig cfg;
    cfg.doors = 3;
    cfg.capacity = 60;
    cfg.movement_rate = 20.0;
    cfg.delay_kind = core::DelayKind::kSynchronous;
    cfg.delta = Duration::zero();
    cfg.score_tolerance = 1_ms;
    cfg.horizon = 30_s;
    cfg.seed = seed;
    const StrobeEquivalence eq = compare_strobes(cfg);
    EXPECT_GT(eq.scalar_transitions, 0u) << "seed " << seed;
    EXPECT_TRUE(eq.identical) << "seed " << seed;
    EXPECT_EQ(eq.scalar_errors, 0u) << "seed " << seed;
    EXPECT_EQ(eq.vector_errors, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace psn::analysis
