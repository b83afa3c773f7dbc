#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/sim_time.hpp"
#include "sim/simulation.hpp"

namespace psn::sim {

/// Lockstep Δ-window driver over K per-shard Simulations (DESIGN.md §14).
///
/// The paper's Δ-bounded delay model is a conservative-lookahead guarantee:
/// with every one-hop delay >= L, a message sent inside the window
/// [f - W, f) (W <= L) cannot arrive anywhere before f — so each shard may
/// drain its own calendar up to the fence f with no knowledge of its peers,
/// and only the fences need synchronizing. The loop per window:
///
///   1. every shard runs `Scheduler::run_until_before(fence)` (cross-shard
///      sends land in outboxes, not calendars);
///   2. barrier; the caller-supplied exchange hook drains all outboxes into
///      the owner shards' calendars, serially and in a canonical order;
///   3. fence += W, until the horizon is passed and the system quiesces.
///
/// Step 1 runs on a crew of min(pool_threads, K) threads, started by the
/// constructor and joined by the destructor. The calling thread is crew
/// member 0; the others wait between windows. Per window the driver
/// publishes the fence and bumps a generation counter, every member claims
/// shards through one atomic index and writes each shard's event count into
/// that shard's slot, and the driver waits for a per-shard countdown, then
/// sums the slots in shard order. A helper that wakes after the shards are
/// all claimed has nothing to do, and nobody waits for it. Every wait is a
/// bounded spin, then `std::atomic::wait`. An exception from a shard is
/// held in its slot and rethrown from run() after the barrier (the lowest
/// failing shard's).
///
/// The driver is deliberately ignorant of the network layer: the exchange
/// hook (installed by the sharded system, which owns the transports and
/// outboxes) is the only channel between shards. With `pool_threads == 1`
/// shard turns run inline on the calling thread — same event order, no
/// crew at all.
class ShardedSimulation {
 public:
  /// Drains every cross-shard outbox into its owner's calendar; returns the
  /// number of deliveries moved. Runs on the driver thread, between windows,
  /// with every shard parked at the barrier.
  using ExchangeFn = std::function<std::size_t()>;

  struct Config {
    /// Window width W; must be positive and <= the minimum one-hop delay of
    /// the transports' delay model (the caller asserts that — the driver
    /// cannot see the network layer).
    Duration window;
    SimTime horizon;
    /// Threads that run shard turns, the calling thread included
    /// (capped at the shard count). 1 = inline.
    std::size_t pool_threads = 1;
  };

  /// `shards` are borrowed; they must outlive the driver. Each must be
  /// confined to this driver (inside a window each shard is advanced by
  /// exactly one crew member; between windows only the driver thread
  /// touches any of them).
  ShardedSimulation(std::vector<Simulation*> shards, Config config);
  ~ShardedSimulation();

  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  /// Runs the window loop until the horizon is passed, every outbox is
  /// empty, and no shard has pending work at or before the horizon.
  /// Returns total events executed across all shards.
  std::size_t run(const ExchangeFn& exchange);

  /// True iff run() stopped at the aggregate max_events safety valve (the
  /// smallest `SimConfig::max_events` among the shards) with work pending.
  bool truncated() const { return truncated_; }
  /// Windows executed by the last run() (fence advances, including the
  /// final quiescence checks).
  std::size_t windows() const { return windows_; }

 private:
  std::size_t drain_all(SimTime fence);
  /// One crew member's part of the current window: claims shards until none
  /// is left.
  void run_claimed_shards();
  void helper_loop();
  void stop_crew();
  bool quiescent(SimTime horizon) const;

  std::vector<Simulation*> shards_;
  Config config_;
  bool truncated_ = false;
  std::size_t windows_ = 0;

  // Window state. The driver writes fence_ before it opens a window
  // (resets next_shard_) and again only after pending_ reaches zero; a
  // member reads it only after claiming a shard of the open window.
  SimTime fence_;
  std::vector<std::size_t> executed_;          ///< per shard, this window
  std::vector<std::exception_ptr> errors_;     ///< per shard, this window
  std::atomic<std::uint32_t> generation_{0};   ///< bumped once per window
  std::atomic<std::uint32_t> next_shard_{0};   ///< next unclaimed shard
  std::atomic<std::uint32_t> pending_{0};      ///< shards not yet run
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> helpers_;  ///< crew members 1.., declared last
};

}  // namespace psn::sim
