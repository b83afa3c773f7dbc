#include "common/sim_time.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace psn {
namespace {

using namespace psn::time_literals;

TEST(DurationTest, FactoryUnitsAgree) {
  EXPECT_EQ(Duration::seconds(1).count_nanos(), 1'000'000'000);
  EXPECT_EQ(Duration::millis(1).count_nanos(), 1'000'000);
  EXPECT_EQ(Duration::micros(1).count_nanos(), 1'000);
  EXPECT_EQ(Duration::nanos(1).count_nanos(), 1);
  EXPECT_EQ(Duration::seconds(2), Duration::millis(2000));
}

TEST(DurationTest, LiteralsMatchFactories) {
  EXPECT_EQ(5_s, Duration::seconds(5));
  EXPECT_EQ(250_ms, Duration::millis(250));
  EXPECT_EQ(7_us, Duration::micros(7));
  EXPECT_EQ(13_ns, Duration::nanos(13));
}

TEST(DurationTest, Arithmetic) {
  EXPECT_EQ(1_s + 500_ms, Duration::millis(1500));
  EXPECT_EQ(1_s - 250_ms, Duration::millis(750));
  EXPECT_EQ(100_ms * 3, Duration::millis(300));
  EXPECT_EQ(1_s / 4, Duration::millis(250));
  EXPECT_EQ(-(3_ms), Duration::millis(-3));
  Duration d = 1_s;
  d += 1_ms;
  d -= 2_ms;
  EXPECT_EQ(d, Duration::nanos(999'000'000));
}

TEST(DurationTest, Comparisons) {
  EXPECT_LT(1_ms, 2_ms);
  EXPECT_GT(1_s, 999_ms);
  EXPECT_LE(5_us, 5_us);
  EXPECT_EQ(Duration::zero(), 0_ns);
}

TEST(DurationTest, FromSecondsRoundsToNearestNano) {
  EXPECT_EQ(Duration::from_seconds(1.5).count_nanos(), 1'500'000'000);
  EXPECT_EQ(Duration::from_seconds(1e-9).count_nanos(), 1);
  EXPECT_EQ(Duration::from_seconds(0.49e-9).count_nanos(), 0);
  EXPECT_EQ(Duration::from_seconds(-2.0).count_nanos(), -2'000'000'000);
}

TEST(DurationTest, FromSecondsRejectsNonFinite) {
  EXPECT_THROW(Duration::from_seconds(std::numeric_limits<double>::infinity()),
               InvariantError);
  EXPECT_THROW(Duration::from_seconds(std::nan("")), InvariantError);
}

TEST(DurationTest, ToSecondsRoundTrip) {
  EXPECT_DOUBLE_EQ((1500_ms).to_seconds(), 1.5);
  EXPECT_DOUBLE_EQ((1500_ms).to_millis(), 1500.0);
}

TEST(DurationTest, ScaledRounds) {
  EXPECT_EQ((100_ms).scaled(0.5), 50_ms);
  EXPECT_EQ((3_ns).scaled(0.5), 2_ns);  // round-half-away behavior of llround
  EXPECT_EQ((100_ms).scaled(-1.0), -(100_ms));
}

TEST(DurationTest, Abs) {
  EXPECT_EQ((-(5_ms)).abs(), 5_ms);
  EXPECT_EQ((5_ms).abs(), 5_ms);
  EXPECT_EQ(Duration::zero().abs(), Duration::zero());
}

TEST(DurationTest, FormattingPicksUnit) {
  EXPECT_EQ((2_s).to_string(), "2.000s");
  EXPECT_EQ((1500_ms).to_string(), "1.500s");
  EXPECT_EQ((250_ms).to_string(), "250.000ms");
  EXPECT_EQ((10_us).to_string(), "10.000us");
  EXPECT_EQ((42_ns).to_string(), "42ns");
}

TEST(SimTimeTest, Arithmetic) {
  const SimTime t0 = SimTime::zero();
  const SimTime t1 = t0 + 5_s;
  EXPECT_EQ(t1.count_nanos(), 5'000'000'000);
  EXPECT_EQ(t1 - t0, 5_s);
  EXPECT_EQ(t1 - 1_s, t0 + 4_s);
  SimTime t = t1;
  t += 500_ms;
  EXPECT_EQ(t - t1, 500_ms);
}

TEST(SimTimeTest, Ordering) {
  EXPECT_LT(SimTime::zero(), SimTime::zero() + 1_ns);
  EXPECT_EQ(SimTime::max(), SimTime::max());
  EXPECT_LT(SimTime::from_seconds(1.0), SimTime::max());
}

TEST(SimTimeTest, FromSecondsRejectsNegative) {
  EXPECT_THROW(SimTime::from_seconds(-1.0), InvariantError);
}

// Seconds whose nanosecond count reaches 2^63 used to overflow llround
// (undefined behaviour; INT64_MIN in practice) and wrap to a negative time.
TEST(SimTimeTest, FromSecondsRejectsOutOfRange) {
  EXPECT_TRUE(seconds_fit_nanos(9e9));
  EXPECT_FALSE(seconds_fit_nanos(9.3e9));
  EXPECT_FALSE(seconds_fit_nanos(std::nan("")));
  EXPECT_FALSE(seconds_fit_nanos(-std::numeric_limits<double>::infinity()));
  EXPECT_EQ(SimTime::from_seconds(9e9).count_nanos(),
            9'000'000'000'000'000'000);
  EXPECT_THROW(SimTime::from_seconds(9.3e9), InvariantError);
  EXPECT_THROW(SimTime::from_seconds(1e300), InvariantError);
  EXPECT_EQ(Duration::from_seconds(-9e9).count_nanos(),
            -9'000'000'000'000'000'000);
  EXPECT_THROW(Duration::from_seconds(9.3e9), InvariantError);
  EXPECT_THROW(Duration::from_seconds(-1e300), InvariantError);
}

TEST(SimTimeTest, DefaultIsZero) {
  EXPECT_EQ(SimTime{}, SimTime::zero());
  EXPECT_EQ(Duration{}, Duration::zero());
}

}  // namespace
}  // namespace psn
