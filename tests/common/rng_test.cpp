#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <type_traits>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace psn {
namespace {

// One word of state: constructing and copying an Rng per message is O(1).
static_assert(sizeof(Rng) == 8);
static_assert(std::is_trivially_copyable_v<Rng>);

TEST(RngTest, MatchesSplitMix64ReferenceValues) {
  Rng r(1234567);
  EXPECT_EQ(r(), 6457827717110365317ULL);
  EXPECT_EQ(r(), 3203168211198807973ULL);
  EXPECT_EQ(r(), 9817491932198370423ULL);
}

TEST(RngTest, FirstDrawOfPerMessageStreamsIsUniform) {
  // Streams keyed exactly as Transport::transmit keys each message copy,
  // over consecutive (seq, dst): the first uniform01() of each must be
  // uniform. Chi-square over 16 bins, 15 degrees of freedom; 37.70 is the
  // p = 0.001 critical value.
  constexpr int kBins = 16;
  constexpr std::uint64_t kSeqs = 3125, kDsts = 32;  // 10^5 streams
  const std::uint64_t msg_seed = Rng(2024).substream("transport")();
  std::array<int, kBins> counts{};
  for (std::uint64_t seq = 0; seq < kSeqs; ++seq) {
    for (std::uint64_t dst = 0; dst < kDsts; ++dst) {
      Rng hop(mix64(msg_seed ^ mix64(seq) ^
                    (0x9e3779b97f4a7c15ULL * (dst + 1))));
      counts[static_cast<std::size_t>(hop.uniform01() * kBins)]++;
    }
  }
  const double expected = static_cast<double>(kSeqs * kDsts) / kBins;
  double chi2 = 0.0;
  for (const int c : counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  EXPECT_LT(chi2, 37.70);
}

TEST(RngTest, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform01() == b.uniform01()) same++;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, ZeroSeedIsUsable) {
  Rng r(0);
  const double v = r.uniform01();
  EXPECT_GE(v, 0.0);
  EXPECT_LT(v, 1.0);
}

TEST(RngTest, SubstreamsAreIndependentOfSiblings) {
  Rng parent(42);
  Rng s1 = parent.substream("alpha");
  Rng s2 = parent.substream("beta");
  // Streams keyed by different names must differ...
  EXPECT_NE(s1.uniform01(), s2.uniform01());
  // ...and re-deriving the same name yields the same stream.
  Rng parent2(42);
  Rng s1_again = parent2.substream("alpha");
  Rng s1_ref = Rng(42).substream("alpha");
  EXPECT_DOUBLE_EQ(s1_again.uniform01(), s1_ref.uniform01());
}

TEST(RngTest, SubstreamDoesNotAdvanceParent) {
  Rng a(7), b(7);
  (void)a.substream("x");
  (void)a.substream("y", 3);
  EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
}

TEST(RngTest, SubstreamIndexMatters) {
  Rng parent(9);
  Rng s0 = parent.substream("node", 0);
  Rng s1 = parent.substream("node", 1);
  EXPECT_NE(s0.uniform01(), s1.uniform01());
}

TEST(RngTest, Uniform01InRange) {
  Rng r(5);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng r(6);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
  EXPECT_THROW(r.uniform(1.0, 0.0), InvariantError);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng r(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliRate) {
  Rng r(8);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
  EXPECT_THROW(r.bernoulli(1.5), InvariantError);
}

TEST(RngTest, BernoulliDegenerate) {
  Rng r(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(RngTest, ExponentialMean) {
  Rng r(10);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(r.exponential(2.5));
  EXPECT_NEAR(s.mean(), 2.5, 0.1);
  EXPECT_THROW(r.exponential(0.0), InvariantError);
}

TEST(RngTest, NormalMoments) {
  Rng r(11);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(RngTest, ExponentialGapNeverZero) {
  Rng r(12);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(r.exponential_gap(1e9).count_nanos(), 1);
  }
}

TEST(RngTest, ExponentialGapMatchesRate) {
  Rng r(13);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) {
    s.add(r.exponential_gap(50.0).to_seconds());
  }
  EXPECT_NEAR(s.mean(), 1.0 / 50.0, 0.002);
}

TEST(RngTest, UniformDurationBounds) {
  Rng r(14);
  const Duration lo = Duration::millis(10), hi = Duration::millis(20);
  for (int i = 0; i < 1000; ++i) {
    const Duration d = r.uniform_duration(lo, hi);
    EXPECT_GE(d, lo);
    EXPECT_LE(d, hi);
  }
}

TEST(Mix64Test, IsDeterministicAndSpreads) {
  EXPECT_EQ(mix64(1), mix64(1));
  EXPECT_NE(mix64(1), mix64(2));
  EXPECT_NE(mix64(0), 0u);
}

TEST(HashNameTest, DistinguishesNames) {
  EXPECT_EQ(hash_name("abc"), hash_name("abc"));
  EXPECT_NE(hash_name("abc"), hash_name("abd"));
  EXPECT_NE(hash_name(""), hash_name("a"));
}

}  // namespace
}  // namespace psn
