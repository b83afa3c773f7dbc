#include "sim/simulation.hpp"

#include <gtest/gtest.h>

namespace psn::sim {
namespace {

using namespace psn::time_literals;

TEST(SimulationTest, StopsAtHorizon) {
  SimConfig cfg;
  cfg.horizon = SimTime::zero() + 10_ms;
  Simulation sim(cfg);
  int fired = 0;
  // A self-perpetuating 1 ms heartbeat.
  std::function<void()> beat = [&] {
    fired++;
    sim.scheduler().schedule_after(1_ms, beat);
  };
  sim.scheduler().schedule_after(1_ms, beat);
  sim.run();
  EXPECT_EQ(fired, 10);
  EXPECT_LE(sim.now(), cfg.horizon);
}

TEST(SimulationTest, MaxEventsSafetyValve) {
  SimConfig cfg;
  cfg.horizon = SimTime::zero() + 1_s;
  cfg.max_events = 25;
  Simulation sim(cfg);
  int fired = 0;
  std::function<void()> loop = [&] {
    fired++;
    sim.scheduler().schedule_after(Duration::nanos(1), loop);
  };
  sim.scheduler().schedule_after(Duration::nanos(1), loop);
  testing::internal::CaptureStderr();
  const std::size_t executed = sim.run();
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[psn WARN ] simulation hit max_events=25 before horizon; results "
            "are truncated\n");
  EXPECT_EQ(executed, 25u);
  EXPECT_EQ(fired, 25);
}

TEST(SimulationTest, RunawaySameInstantRescheduleStopsAtCapAndReports) {
  // Regression: an event that reschedules itself *at the current instant*
  // never advances time, so only the max_events cap can stop it. The run
  // must stop exactly at the cap and report truncation — not spin on toward
  // SIZE_MAX.
  SimConfig cfg;
  cfg.horizon = SimTime::zero() + 1_s;
  cfg.max_events = 1000;
  Simulation sim(cfg);
  std::size_t fired = 0;
  std::function<void()> runaway = [&] {
    fired++;
    sim.scheduler().schedule_after(Duration::zero(), runaway);
  };
  sim.scheduler().schedule_after(1_ms, runaway);
  EXPECT_EQ(sim.run(), 1000u);
  EXPECT_EQ(fired, 1000u);
  EXPECT_TRUE(sim.truncated());
  EXPECT_EQ(sim.scheduler().pending(), 1u);  // the cut-off reschedule
}

TEST(SimulationTest, CleanRunToHorizonIsNotTruncated) {
  SimConfig cfg;
  cfg.horizon = SimTime::zero() + 10_ms;
  Simulation sim(cfg);
  sim.scheduler().schedule_after(1_ms, [] {});
  sim.run();
  EXPECT_FALSE(sim.truncated());
}

TEST(SimulationTest, ExactlyCapEventsWithNoPendingWorkIsNotTruncated) {
  // Cap/overflow interplay: finishing with total == max_events is only a
  // truncation if work remained; a calendar that drained exactly at the cap
  // is a complete run.
  SimConfig cfg;
  cfg.horizon = SimTime::zero() + 1_s;
  cfg.max_events = 3;
  Simulation sim(cfg);
  for (int i = 1; i <= 3; ++i) {
    sim.scheduler().schedule_after(Duration::millis(i), [] {});
  }
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_FALSE(sim.truncated());
}

TEST(SimulationTest, RngForIsDeterministicPerComponent) {
  SimConfig cfg;
  cfg.seed = 99;
  Simulation a(cfg), b(cfg);
  EXPECT_DOUBLE_EQ(a.rng_for("gen", 1).uniform01(),
                   b.rng_for("gen", 1).uniform01());
  EXPECT_NE(a.rng_for("gen", 1).uniform01(), a.rng_for("gen", 2).uniform01());
  EXPECT_NE(a.rng_for("gen").uniform01(), a.rng_for("net").uniform01());
}

TEST(SimulationTest, DifferentSeedsDifferentDraws) {
  SimConfig a_cfg, b_cfg;
  a_cfg.seed = 1;
  b_cfg.seed = 2;
  Simulation a(a_cfg), b(b_cfg);
  EXPECT_NE(a.rng_for("x").uniform01(), b.rng_for("x").uniform01());
}

TEST(SimulationTest, EventsBeyondHorizonDoNotRun) {
  SimConfig cfg;
  cfg.horizon = SimTime::zero() + 5_ms;
  Simulation sim(cfg);
  bool late = false;
  sim.scheduler().schedule_at(SimTime::zero() + 6_ms, [&] { late = true; });
  sim.run();
  EXPECT_FALSE(late);
}

}  // namespace
}  // namespace psn::sim
