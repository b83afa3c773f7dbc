#include "clocks/physical.hpp"

#include <gtest/gtest.h>

#include "clocks/clock_bundle.hpp"

namespace psn::clocks {
namespace {

using namespace psn::time_literals;

SimTime t(std::int64_t ms) { return SimTime::zero() + Duration::millis(ms); }

TEST(DriftingClockTest, PureOffset) {
  DriftingClockConfig cfg;
  cfg.initial_offset = 5_ms;
  DriftingClock c(cfg, Rng(1));
  EXPECT_EQ(c.read_exact(t(100)), t(105));
  EXPECT_EQ(c.read_exact(t(100)) - t(100), 5_ms);
}

TEST(DriftingClockTest, DriftAccumulates) {
  DriftingClockConfig cfg;
  cfg.drift_ppm = 100.0;  // 100 us per second
  DriftingClock c(cfg, Rng(2));
  EXPECT_EQ(c.read_exact(SimTime::from_seconds(10.0)),
            SimTime::from_seconds(10.0) + Duration::micros(1000));
}

TEST(DriftingClockTest, NegativeDriftLagsBehind) {
  DriftingClockConfig cfg;
  cfg.drift_ppm = -50.0;
  DriftingClock c(cfg, Rng(3));
  EXPECT_LT(c.read_exact(SimTime::from_seconds(100.0)),
            SimTime::from_seconds(100.0));
}

TEST(DriftingClockTest, CorrectionShiftsReading) {
  DriftingClockConfig cfg;
  cfg.initial_offset = 10_ms;
  DriftingClock c(cfg, Rng(4));
  c.apply_correction(-(10_ms));
  EXPECT_EQ(c.read_exact(t(50)), t(50));
  c.apply_correction(2_ms);
  EXPECT_EQ(c.read_exact(t(50)) - t(50), 2_ms);
}

TEST(DriftingClockTest, ReadJitterBounded) {
  DriftingClockConfig cfg;
  cfg.read_jitter = 100_us;
  DriftingClock c(cfg, Rng(5));
  for (int i = 0; i < 1000; ++i) {
    const Duration err = c.read(t(10)) - t(10);
    EXPECT_LE(err.abs(), 100_us);
  }
}

TEST(DriftingClockTest, JitterlessReadEqualsExact) {
  DriftingClockConfig cfg;
  cfg.initial_offset = 3_ms;
  DriftingClock c(cfg, Rng(6));
  EXPECT_EQ(c.read(t(7)), c.read_exact(t(7)));
}

TEST(EpsSynchronizedClockTest, AlwaysWithinEpsilon) {
  EpsSynchronizedClock c(1_ms, Rng(7));
  for (int i = 0; i < 5000; ++i) {
    const Duration err = c.read(t(i)) - t(i);
    EXPECT_LE(err.abs(), 1_ms) << "reading strayed beyond eps";
  }
}

TEST(EpsSynchronizedClockTest, ZeroEpsilonIsPerfect) {
  EpsSynchronizedClock c(Duration::zero(), Rng(8));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(c.read(t(i)), t(i));
}

TEST(EpsSynchronizedClockTest, DistinctProcessesGetDistinctOffsets) {
  EpsSynchronizedClock a(1_ms, Rng(9));
  EpsSynchronizedClock b(1_ms, Rng(10));
  EXPECT_NE(a.offset(), b.offset());
}

TEST(ClockBundleTest, SnapshotReflectsAllClocks) {
  ClockBundleConfig cfg;
  cfg.sync_epsilon = 500_us;
  ClockBundle bundle(1, 3, cfg, Rng(11));
  bundle.on_sense_event();
  const ClockSnapshot s = bundle.snapshot(t(42));
  EXPECT_EQ(s.true_time, t(42));
  EXPECT_EQ(s.lamport.value, 1u);
  EXPECT_EQ(s.causal_vector, VectorStamp({0, 1, 0}));
  EXPECT_EQ(s.strobe_scalar.value, 1u);
  EXPECT_EQ(s.strobe_vector, VectorStamp({0, 1, 0}));
  EXPECT_LE((s.physical_synced - t(42)).abs(), 500_us);
}

TEST(ClockBundleTest, InternalEventTicksCausalOnly) {
  ClockBundleConfig cfg;
  ClockBundle bundle(0, 2, cfg, Rng(12));
  bundle.on_internal_event();
  EXPECT_EQ(bundle.lamport().current().value, 1u);
  EXPECT_EQ(bundle.causal_vector().current(), VectorStamp({1, 0}));
  EXPECT_EQ(bundle.strobe_scalar().current().value, 0u);
  EXPECT_EQ(bundle.strobe_vector().current(), VectorStamp({0, 0}));
}

TEST(ClockBundleTest, StrobesDoNotPolluteCausalClocks) {
  // The paper's §4.2 warning, enforced by construction: receiving strobes
  // must leave the Lamport/Mattern clocks untouched, else strobe traffic
  // manufactures false causality.
  ClockBundleConfig cfg;
  ClockBundle bundle(0, 2, cfg, Rng(13));
  bundle.on_internal_event();
  const auto lamport_before = bundle.lamport().current();
  const auto vector_before = bundle.causal_vector().current();
  bundle.on_strobe({50, 1}, VectorStamp({0, 50}));
  EXPECT_EQ(bundle.lamport().current(), lamport_before);
  EXPECT_EQ(bundle.causal_vector().current(), vector_before);
  // ...while the strobe clocks did merge.
  EXPECT_EQ(bundle.strobe_scalar().current().value, 50u);
  EXPECT_EQ(bundle.strobe_vector().current(), VectorStamp({0, 50}));
}

TEST(ClockBundleTest, ComputationMessagesDoNotTouchStrobeClocks) {
  // Dual of the above: semantic message receipt drives SC3/VC3 only.
  ClockBundleConfig cfg;
  ClockBundle bundle(0, 2, cfg, Rng(14));
  PiggybackStamps stamps;
  stamps.lamport = {9, 1};
  stamps.causal_vector = VectorStamp({0, 9});
  bundle.on_receive(stamps);
  EXPECT_EQ(bundle.lamport().current().value, 10u);
  EXPECT_EQ(bundle.causal_vector().current(), VectorStamp({1, 9}));
  EXPECT_EQ(bundle.strobe_scalar().current().value, 0u);
  EXPECT_EQ(bundle.strobe_vector().current(), VectorStamp({0, 0}));
}

TEST(ClockBundleTest, SenseTicksEverything) {
  ClockBundleConfig cfg;
  ClockBundle bundle(1, 2, cfg, Rng(15));
  const StrobeOut out = bundle.on_sense_event();
  EXPECT_EQ(out.scalar.value, 1u);
  EXPECT_EQ(out.vector, VectorStamp({0, 1}));
  EXPECT_EQ(bundle.lamport().current().value, 1u);
  EXPECT_EQ(bundle.causal_vector().current(), VectorStamp({0, 1}));
}

}  // namespace
}  // namespace psn::clocks
