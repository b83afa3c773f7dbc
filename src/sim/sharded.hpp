#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/sim_time.hpp"
#include "common/thread_pool.hpp"
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
///   1. every shard runs `Scheduler::run_until_before(fence)` (in parallel
///      on a ThreadPool; cross-shard sends land in outboxes, not calendars);
///   2. barrier; the caller-supplied exchange hook drains all outboxes into
///      the owner shards' calendars, serially and in a canonical order;
///   3. fence += W, until the horizon is passed and the system quiesces.
///
/// The driver is deliberately ignorant of the network layer: the exchange
/// hook (installed by the sharded system, which owns the transports and
/// outboxes) is the only channel between shards. With `pool_threads == 1`
/// shard turns run inline on the calling thread — same event order, zero
/// pool machinery — which is what the alloc-guard suite measures.
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
    /// Worker threads for the per-window shard fan-out. 1 = inline.
    std::size_t pool_threads = 1;
  };

  /// `shards` are borrowed; they must outlive the driver. Each must be
  /// confined to this driver (their schedulers are advanced from pool
  /// threads, one shard per task — never two tasks on one shard).
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
  std::unique_ptr<ThreadPool> pool_;  ///< null when pool_threads == 1
  bool truncated_ = false;
  std::size_t windows_ = 0;
};

}  // namespace psn::sim
