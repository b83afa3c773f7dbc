#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/crew.hpp"
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
/// Step 1 is one Crew::for_each over the K shards on a crew of
/// min(pool_threads, K) members, started by the constructor and joined by
/// the destructor; the calling thread is member 0. Each shard's event count
/// lands in its own slot and the slots are summed in shard order, so which
/// member ran which shard never reaches a result. An exception from a shard
/// leaves run() after the barrier (the lowest failing shard's).
///
/// The driver is deliberately ignorant of the network layer: the exchange
/// hook (installed by the sharded system, which owns the transports and
/// outboxes) is the only channel between shards. With `pool_threads == 1`
/// shard turns run inline on the calling thread — same event order, no
/// helper thread.
class ShardedSimulation {
 public:
  /// Drains every cross-shard outbox into its owner's calendar; returns the
  /// number of deliveries moved. Runs on the driver thread, between windows,
  /// with every shard parked at the barrier; `fence` is the window's
  /// exclusive end, so every shard has executed all its events before it.
  using ExchangeFn = std::function<std::size_t(SimTime fence)>;

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
  bool quiescent(SimTime horizon) const;

  std::vector<Simulation*> shards_;
  Config config_;
  bool truncated_ = false;
  std::size_t windows_ = 0;

  std::vector<std::size_t> executed_;  ///< per shard, this window
  Crew crew_;
};

}  // namespace psn::sim
