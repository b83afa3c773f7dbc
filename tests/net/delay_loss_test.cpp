#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "net/delay_model.hpp"
#include "net/loss_model.hpp"

namespace psn::net {
namespace {

using namespace psn::time_literals;

SimTime t(std::int64_t ms) { return SimTime::zero() + Duration::millis(ms); }

TEST(SynchronousDelayTest, AlwaysZero) {
  SynchronousDelay d;
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(d.sample(rng), Duration::zero());
  EXPECT_EQ(d.bound(), Duration::zero());
}

TEST(FixedDelayTest, Constant) {
  FixedDelay d(25_ms);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(d.sample(rng), 25_ms);
  EXPECT_EQ(d.bound(), 25_ms);
  EXPECT_THROW(FixedDelay(-(1_ms)), InvariantError);
}

TEST(UniformBoundedDelayTest, SamplesWithinBounds) {
  UniformBoundedDelay d(10_ms, 100_ms);
  Rng rng(3);
  RunningStats s;
  for (int i = 0; i < 10000; ++i) {
    const Duration v = d.sample(rng);
    EXPECT_GE(v, 10_ms);
    EXPECT_LE(v, 100_ms);
    s.add(v.to_seconds());
  }
  EXPECT_NEAR(s.mean(), 0.055, 0.002);
  EXPECT_EQ(d.bound(), 100_ms);
}

TEST(UniformBoundedDelayTest, WithBoundHelper) {
  const auto d = UniformBoundedDelay::with_bound(200_ms);
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const Duration v = d->sample(rng);
    EXPECT_GE(v, 20_ms);
    EXPECT_LE(v, 200_ms);
  }
}

TEST(UniformBoundedDelayTest, Validation) {
  EXPECT_THROW(UniformBoundedDelay(10_ms, 5_ms), InvariantError);
  EXPECT_THROW(UniformBoundedDelay(-(1_ms), 5_ms), InvariantError);
}

TEST(ExponentialDelayTest, MeanAndUnboundedness) {
  ExponentialDelay d(50_ms);
  Rng rng(5);
  RunningStats s;
  Duration max_seen = Duration::zero();
  for (int i = 0; i < 20000; ++i) {
    const Duration v = d.sample(rng);
    s.add(v.to_seconds());
    max_seen = std::max(max_seen, v);
  }
  EXPECT_NEAR(s.mean(), 0.050, 0.002);
  EXPECT_GT(max_seen, 200_ms);  // heavy tail actually shows up
  EXPECT_EQ(d.bound(), Duration::max());
}

TEST(NoLossTest, NeverDrops) {
  NoLoss l;
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(l.drop(t(i), rng));
}

TEST(BernoulliLossTest, RateMatches) {
  BernoulliLoss l(0.2);
  Rng rng(8);
  int drops = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) drops += l.drop(t(0), rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.2, 0.02);
  EXPECT_THROW(BernoulliLoss(1.2), InvariantError);
}

TEST(GilbertElliottLossTest, BurstsAreCorrelated) {
  // Almost-deterministic regime: long bad bursts, lossless good state.
  GilbertElliottLoss l(0.01, 0.05, 0.0, 1.0);
  Rng rng(9);
  // Measure the average run length of consecutive drops; correlated loss
  // should produce runs far longer than Bernoulli at the same average rate.
  int total_drops = 0, runs = 0;
  bool in_run = false;
  for (int i = 0; i < 100000; ++i) {
    const bool dropped = l.drop(t(0), rng);
    total_drops += dropped ? 1 : 0;
    if (dropped && !in_run) runs++;
    in_run = dropped;
  }
  ASSERT_GT(runs, 0);
  const double mean_run =
      static_cast<double>(total_drops) / static_cast<double>(runs);
  EXPECT_GT(mean_run, 5.0);
}

TEST(ScheduledBurstLossTest, DropsOnlyInsideWindows) {
  ScheduledBurstLoss l({{t(100), t(200)}, {t(500), t(600)}});
  Rng rng(10);
  EXPECT_FALSE(l.drop(t(99), rng));
  EXPECT_TRUE(l.drop(t(100), rng));
  EXPECT_TRUE(l.drop(t(199), rng));
  EXPECT_FALSE(l.drop(t(200), rng));  // end exclusive
  EXPECT_TRUE(l.drop(t(550), rng));
  EXPECT_FALSE(l.drop(t(700), rng));
}

TEST(ScheduledBurstLossTest, RejectsInvertedWindow) {
  EXPECT_THROW(ScheduledBurstLoss({{t(5), t(1)}}), InvariantError);
}

}  // namespace
}  // namespace psn::net
