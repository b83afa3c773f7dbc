#include "clocks/timestamp.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace psn::clocks {
namespace {

TEST(ScalarStampTest, TotalOrderByValueThenPid) {
  const ScalarStamp a{5, 1}, b{5, 2}, c{6, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(a, c);
  EXPECT_EQ(compare(a, b), Ordering::kBefore);
  EXPECT_EQ(compare(c, a), Ordering::kAfter);
  EXPECT_EQ(compare(a, a), Ordering::kEqual);
}

TEST(ScalarStampTest, NeverConcurrent) {
  // A scalar stamp order is total: races are invisible (paper §3.3).
  const ScalarStamp a{5, 1}, b{5, 2};
  EXPECT_NE(compare(a, b), Ordering::kConcurrent);
}

TEST(ScalarStampTest, WireSizeIsConstant) {
  EXPECT_EQ(ScalarStamp::wire_size(), 8u);
}

TEST(ScalarStampTest, ToString) {
  EXPECT_EQ((ScalarStamp{7, 2}).to_string(), "7@2");
}

TEST(VectorStampTest, CompareBeforeAfterEqual) {
  VectorStamp a({1, 2, 3});
  VectorStamp b({1, 2, 3});
  VectorStamp c({2, 2, 3});
  EXPECT_EQ(compare(a, b), Ordering::kEqual);
  EXPECT_EQ(compare(a, c), Ordering::kBefore);
  EXPECT_EQ(compare(c, a), Ordering::kAfter);
  EXPECT_TRUE(happens_before(a, c));
  EXPECT_FALSE(happens_before(c, a));
  EXPECT_FALSE(happens_before(a, b));  // equal is not before
}

TEST(VectorStampTest, Concurrency) {
  VectorStamp a({2, 0});
  VectorStamp b({0, 2});
  EXPECT_EQ(compare(a, b), Ordering::kConcurrent);
  EXPECT_TRUE(concurrent(a, b));
  EXPECT_TRUE(concurrent(b, a));
  EXPECT_FALSE(concurrent(a, a));
}

TEST(VectorStampTest, MergeIsComponentwiseMax) {
  VectorStamp a({1, 5, 2});
  VectorStamp b({3, 1, 2});
  a.merge(b);
  EXPECT_EQ(a, VectorStamp({3, 5, 2}));
  // Merge is idempotent.
  a.merge(b);
  EXPECT_EQ(a, VectorStamp({3, 5, 2}));
}

TEST(VectorStampTest, MergeYieldsLeastUpperBound) {
  VectorStamp a({2, 0, 1});
  VectorStamp b({0, 3, 1});
  VectorStamp m = a;
  m.merge(b);
  EXPECT_EQ(compare(a, m), Ordering::kBefore);
  EXPECT_EQ(compare(b, m), Ordering::kBefore);
}

TEST(VectorStampTest, DimensionMismatchThrows) {
  VectorStamp a(2), b(3);
  EXPECT_THROW(a.merge(b), InvariantError);
}

/// The componentwise definition of the vector order: a ≤ b iff every
/// a[i] ≤ b[i]. The single-pass kernels must agree with it on every pair.
Ordering componentwise_order(const VectorStamp& a, const VectorStamp& b) {
  bool le = true;
  bool ge = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    le = le && a[i] <= b[i];
    ge = ge && a[i] >= b[i];
  }
  if (le && ge) return Ordering::kEqual;
  if (le) return Ordering::kBefore;
  if (ge) return Ordering::kAfter;
  return Ordering::kConcurrent;
}

/// Checks compare, concurrent and happens_before on (a, b) and (b, a).
void expect_kernels_match(const VectorStamp& a, const VectorStamp& b,
                          Ordering expected) {
  SCOPED_TRACE(a.to_string() + " vs " + b.to_string());
  ASSERT_EQ(componentwise_order(a, b), expected);
  for (const auto& [x, y] : {std::pair{&a, &b}, std::pair{&b, &a}}) {
    const Ordering want = componentwise_order(*x, *y);
    EXPECT_EQ(compare(*x, *y), want);
    EXPECT_EQ(concurrent(*x, *y), want == Ordering::kConcurrent);
    EXPECT_EQ(happens_before(*x, *y), want == Ordering::kBefore);
  }
}

/// A uniform draw in [lo, hi] and a uniform index in [0, n).
std::uint64_t draw(Rng& rng, std::int64_t lo, std::int64_t hi) {
  return static_cast<std::uint64_t>(rng.uniform_int(lo, hi));
}
std::size_t pick(Rng& rng, std::size_t n) {
  return draw(rng, 0, static_cast<std::int64_t>(n) - 1);
}

TEST(VectorStampKernelTest, StructuredPairsMatchTheComponentwiseDefinition) {
  Rng rng(20);
  for (const std::size_t n : {0u, 1u, 2u, 3u, 5u, 21u, 64u}) {
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<std::uint64_t> base(n);
      for (auto& c : base) c = draw(rng, 1, 1000);
      const VectorStamp a(base);
      expect_kernels_match(a, VectorStamp(base), Ordering::kEqual);
      if (n == 0) continue;

      // Ordered, the one strict component first, in the middle, or last:
      // the kernels must scan past every equal component to see it.
      for (const std::size_t pos : {std::size_t{0}, n / 2, n - 1}) {
        std::vector<std::uint64_t> up = base;
        up[pos] += draw(rng, 1, 5);
        expect_kernels_match(a, VectorStamp(up), Ordering::kBefore);
      }
      // Ordered with random nonnegative increments everywhere.
      std::vector<std::uint64_t> later = base;
      for (auto& c : later) c += draw(rng, 0, 3);
      later[pick(rng, n)]++;
      expect_kernels_match(a, VectorStamp(later), Ordering::kBefore);

      if (n < 2) continue;
      // Concurrent: one component up and another down, at the two ends and
      // at random positions, so both early exits are taken.
      const std::size_t i = pick(rng, n);
      const std::size_t j = (i + 1 + pick(rng, n - 1)) % n;
      for (const auto& [hi, lo] : {std::pair{std::size_t{0}, n - 1},
                                   std::pair{n - 1, std::size_t{0}},
                                   std::pair{i, j}}) {
        std::vector<std::uint64_t> other = base;
        other[hi] += 1;
        other[lo] -= 1;
        expect_kernels_match(a, VectorStamp(other), Ordering::kConcurrent);
      }
    }
  }
}

TEST(VectorStampKernelTest, MismatchedDimensionsThrow) {
  for (const auto& [m, n] :
       {std::pair<std::size_t, std::size_t>{2, 3}, {0, 1}, {1, 0}}) {
    const VectorStamp a(m);
    const VectorStamp b(n);
    EXPECT_THROW((void)compare(a, b), InvariantError);
    EXPECT_THROW((void)concurrent(a, b), InvariantError);
    EXPECT_THROW((void)happens_before(a, b), InvariantError);
  }
}

TEST(VectorStampTest, WireSizeGrowsWithN) {
  EXPECT_EQ(VectorStamp(1).wire_size(), 8u);
  EXPECT_EQ(VectorStamp(16).wire_size(), 128u);
}

TEST(VectorStampTest, ToString) {
  EXPECT_EQ(VectorStamp({1, 0, 4}).to_string(), "[1,0,4]");
}

TEST(OrderingTest, Names) {
  EXPECT_STREQ(to_string(Ordering::kBefore), "before");
  EXPECT_STREQ(to_string(Ordering::kConcurrent), "concurrent");
}

}  // namespace
}  // namespace psn::clocks
