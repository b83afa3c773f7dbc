// Window-barrier stress (`ctest -L par`; CI repeats the label under
// -DPSN_SANITIZE=thread). Three layers:
//
//   1. The ShardedSimulation driver alone, every shard ticking each
//      millisecond across an 8-member crew, with cross-shard ring traffic
//      through the outbox exchange every window. TSan's targets: the
//      generation/countdown window barrier, the one-member-per-shard
//      scheduler confinement, and the driver-thread-only exchange.
//
//   2. The full sharded occupancy system at 8 shards × 8 pool threads
//      under unaligned duty cycling plus burst loss — run twice, artifacts
//      must match byte for byte (a data race that perturbs event order
//      shows up here as nondeterminism even when TSan is off).
//
//   3. The crew's edges: a shard failure on a helper thread, more threads
//      than shards, and a shard count the crew does not divide.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/export.hpp"
#include "common/error.hpp"
#include "common/sim_time.hpp"
#include "sim/scheduler.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"

namespace psn::analysis {
namespace {

// --- 1. driver-level ring storm --------------------------------------------

struct StormShard {
  sim::Simulation* sim = nullptr;
  /// Outbox to the next shard (ring traffic): (arrival instant, payload).
  std::vector<std::pair<SimTime, std::uint64_t>>* outbox = nullptr;
  std::size_t remaining = 0;
  std::uint64_t fired = 0;
  std::uint64_t received = 0;

  void arm() {
    if (remaining == 0) return;
    --remaining;
    sim->scheduler().schedule_after(
        Duration::millis(1), sim::Scheduler::Callback([this] {
          ++fired;
          // Cross-shard send: arrives >= one window (5 ms) ahead, so the
          // conservative-lookahead contract holds.
          outbox->push_back({sim->scheduler().now() + Duration::millis(5),
                             fired});
          arm();
        }));
  }
};

struct StormTotals {
  std::uint64_t fired = 0;
  std::uint64_t received = 0;
  std::size_t events = 0;
  std::size_t windows = 0;

  bool operator==(const StormTotals& o) const {
    return fired == o.fired && received == o.received && events == o.events &&
           windows == o.windows;
  }
};

StormTotals run_ring_storm(std::size_t shards, std::size_t pool_threads,
                             std::size_t ticks_per_shard) {
  std::vector<std::unique_ptr<sim::Simulation>> sims;
  std::vector<sim::Simulation*> raw;
  std::vector<std::vector<std::pair<SimTime, std::uint64_t>>> outboxes(shards);
  std::vector<StormShard> chains(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    sim::SimConfig cfg;
    sims.push_back(std::make_unique<sim::Simulation>(cfg));
    raw.push_back(sims.back().get());
    chains[s].sim = raw[s];
    chains[s].outbox = &outboxes[s];
    chains[s].remaining = ticks_per_shard;
    chains[s].arm();
  }

  sim::ShardedSimulation::Config cfg;
  cfg.window = Duration::millis(5);
  cfg.horizon = SimTime::zero() +
                Duration::millis(static_cast<std::int64_t>(ticks_per_shard) + 16);
  cfg.pool_threads = pool_threads;
  sim::ShardedSimulation driver(raw, cfg);

  const auto exchange = [&](SimTime) -> std::size_t {
    std::size_t moved = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      StormShard& dst = chains[(s + 1) % shards];  // ring traffic
      for (const auto& [at, payload] : outboxes[s]) {
        dst.sim->scheduler().schedule_at(
            at, payload, sim::Scheduler::Callback([&dst] { ++dst.received; }));
        ++moved;
      }
      outboxes[s].clear();
    }
    return moved;
  };

  StormTotals totals;
  totals.events = driver.run(exchange);
  totals.windows = driver.windows();
  for (const StormShard& c : chains) {
    totals.fired += c.fired;
    totals.received += c.received;
  }
  return totals;
}

TEST(ShardedStressTest, CancelStormAcrossWindowBarrierIsLosslessAndRepeatable) {
  const std::size_t kShards = 8;
  const std::size_t kTicks = 400;
  const StormTotals par = run_ring_storm(kShards, 8, kTicks);
  // Every tick fired, every cross-shard send arrived, nothing double-ran.
  EXPECT_EQ(par.fired, kShards * kTicks);
  EXPECT_EQ(par.received, kShards * kTicks);
  EXPECT_GT(par.windows, kTicks / 5);
  // The crew must not change anything the serial driver would have done —
  // including the executed-event count.
  const StormTotals serial = run_ring_storm(kShards, 1, kTicks);
  EXPECT_TRUE(par == serial) << "crew run diverged from inline run";
  // And a second crew run must reproduce the first exactly.
  EXPECT_TRUE(run_ring_storm(kShards, 8, kTicks) == par);
}

// --- 2. system-level duty churn at full fan-out -----------------------------

OccupancyConfig duty_churn_config(std::size_t shards, std::size_t threads) {
  OccupancyConfig cfg;
  cfg.doors = 16;
  cfg.horizon = Duration::seconds(8);
  cfg.trace_capacity = 1 << 18;
  cfg.loss_probability = 0.2;
  cfg.loss_windows.push_back({SimTime::zero() + Duration::seconds(2),
                              SimTime::zero() + Duration::seconds(3)});
  net::DutyCycle duty;
  duty.period = Duration::millis(20);
  duty.window = Duration::millis(10);
  cfg.duty_cycle = duty;
  cfg.duty_phases_aligned = false;
  cfg.shards = shards;
  cfg.shard_threads = threads;
  return cfg;
}

/// Trace JSONL, metrics CSV and every detector's detections must match.
void expect_same_artifacts(const OccupancyRunResult& first,
                           const OccupancyRunResult& second) {
  EXPECT_EQ(trace_jsonl(first.trace), trace_jsonl(second.trace));
  EXPECT_EQ(first.metrics.csv(), second.metrics.csv());
  ASSERT_EQ(first.outcomes.size(), second.outcomes.size());
  const auto same = [](const core::Detection& a, const core::Detection& b) {
    return a.detected_at == b.detected_at && a.to_true == b.to_true &&
           a.borderline == b.borderline &&
           a.cause_true_time == b.cause_true_time &&
           a.update_index == b.update_index;
  };
  for (std::size_t i = 0; i < first.outcomes.size(); ++i) {
    const auto& a = first.outcomes[i].detections;
    const auto& b = second.outcomes[i].detections;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end(), same))
        << first.outcomes[i].detector;
  }
}

TEST(ShardedStressTest, DutyChurnSystemRunIsByteIdenticalAcrossRepeats) {
  const OccupancyConfig cfg = duty_churn_config(8, 8);
  const OccupancyRunResult first = run_occupancy_experiment(cfg);
  EXPECT_GT(first.shard_windows, 0u);
  expect_same_artifacts(first, run_occupancy_experiment(cfg));
}

// --- 3. crew edges ----------------------------------------------------------

TEST(ShardedStressTest, HelperShardFailureLeavesRunAsTheSameException) {
  // Two shards, a crew of two, one event per shard at 1 ms. Each event
  // waits until the other has started, so the two run on different crew
  // members and one of them on a helper; the event on the helper fails a
  // PSN_CHECK.
  std::vector<std::unique_ptr<sim::Simulation>> sims;
  std::vector<sim::Simulation*> raw;
  std::atomic<int> started{0};
  const std::thread::id driver_thread = std::this_thread::get_id();
  for (std::size_t s = 0; s < 2; ++s) {
    sims.push_back(std::make_unique<sim::Simulation>(sim::SimConfig{}));
    raw.push_back(sims.back().get());
    raw.back()->scheduler().schedule_after(
        Duration::millis(1), sim::Scheduler::Callback([&] {
          started.fetch_add(1);
          while (started.load() < 2) std::this_thread::yield();
          PSN_CHECK(std::this_thread::get_id() == driver_thread,
                    "shard turn failed on a helper");
        }));
  }
  sim::ShardedSimulation::Config cfg;
  cfg.window = Duration::millis(5);
  cfg.horizon = SimTime::zero() + Duration::millis(20);
  cfg.pool_threads = 2;
  {
    sim::ShardedSimulation driver(raw, cfg);
    try {
      driver.run([](SimTime) { return std::size_t{0}; });
      ADD_FAILURE() << "run() returned despite a failed shard";
    } catch (const InvariantError& e) {
      EXPECT_NE(std::string(e.what()).find("shard turn failed on a helper"),
                std::string::npos)
          << e.what();
    }
  }  // the destructor joins the helper (an unjoined std::thread terminates)
  EXPECT_EQ(started.load(), 2);
}

TEST(ShardedStressTest, CrewLargerThanShardCountMatchesInline) {
  // pool_threads 8 over 2 shards: the crew is capped at the shard count.
  EXPECT_TRUE(run_ring_storm(2, 8, 400) == run_ring_storm(2, 1, 400));
  const OccupancyRunResult inline_run =
      run_occupancy_experiment(duty_churn_config(2, 1));
  expect_same_artifacts(inline_run,
                        run_occupancy_experiment(duty_churn_config(2, 8)));
}

TEST(ShardedStressTest, ShardCountNotDividedByCrewMatchesUnsharded) {
  // K = 3 over a crew of 2: one member runs two shards in some windows.
  EXPECT_TRUE(run_ring_storm(3, 2, 400) == run_ring_storm(3, 1, 400));
  const OccupancyRunResult unsharded =
      run_occupancy_experiment(duty_churn_config(1, 1));
  expect_same_artifacts(unsharded,
                        run_occupancy_experiment(duty_churn_config(3, 2)));
}

}  // namespace
}  // namespace psn::analysis
