#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace psn {
namespace {

TEST(RunningStatsTest, EmptyDefaults) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, KnownValues) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStatsTest, MergeEqualsConcatenation) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

TEST(SampleSetTest, PercentilesExact) {
  SampleSet s;
  for (const double x : {10.0, 20.0, 30.0, 40.0, 50.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 50.0);
  EXPECT_DOUBLE_EQ(s.median(), 30.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 20.0);
  EXPECT_DOUBLE_EQ(s.percentile(12.5), 15.0);  // interpolated
}

TEST(SampleSetTest, UnsortedInsertionOrder) {
  SampleSet s;
  for (const double x : {50.0, 10.0, 40.0, 20.0, 30.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.min(), 10.0);
  EXPECT_DOUBLE_EQ(s.max(), 50.0);
  EXPECT_DOUBLE_EQ(s.median(), 30.0);
}

TEST(SampleSetTest, MeanAndStddev) {
  SampleSet s;
  for (const double x : {1.0, 2.0, 3.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 1.0);
}

TEST(SampleSetTest, EmptyAndSingle) {
  SampleSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 7.0);
}

TEST(SampleSetTest, PercentileRangeChecked) {
  SampleSet s;
  s.add(1.0);
  EXPECT_THROW(s.percentile(-1), InvariantError);
  EXPECT_THROW(s.percentile(101), InvariantError);
}

TEST(HistogramTest, BinsAndEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_EQ(h.bins(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
  h.add(0.0);
  h.add(1.999);
  h.add(2.0);
  h.add(9.999);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.bin_count(4), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(HistogramTest, OverflowUnderflow) {
  Histogram h(0.0, 1.0, 2);
  h.add(-0.1);
  h.add(1.0);  // hi edge is exclusive
  h.add(5.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(HistogramTest, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 0.0, 3), InvariantError);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), InvariantError);
}

TEST(HistogramTest, MergeAddsBinsAndTallies) {
  Histogram a(0.0, 4.0, 4);
  Histogram b(0.0, 4.0, 4);
  a.add(1.0);
  a.add(-1.0);
  b.add(1.5);
  b.add(9.0);
  a.merge(b);
  EXPECT_EQ(a.bin_count(1), 2u);  // both in [1, 2)
  EXPECT_EQ(a.underflow(), 1u);
  EXPECT_EQ(a.overflow(), 1u);
  EXPECT_EQ(a.total(), 4u);
}

TEST(HistogramTest, MergeRejectsShapeMismatch) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_NO_THROW(h.merge(Histogram(0.0, 10.0, 5)));
  EXPECT_THROW(h.merge(Histogram(0.0, 10.0, 6)), InvariantError);
  EXPECT_THROW(h.merge(Histogram(0.0, 20.0, 5)), InvariantError);
  EXPECT_THROW(h.merge(Histogram(1.0, 10.0, 5)), InvariantError);
}

TEST(HistogramTest, AsciiRendersOneRowPerBin) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(1.5);
  const std::string art = h.ascii(10);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 2);
}

}  // namespace
}  // namespace psn
