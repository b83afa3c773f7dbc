#include "sim/sharded.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace psn::sim {

namespace {

/// Crew members for the driver: the pool size, capped at the shard count.
std::size_t crew_size(const std::vector<Simulation*>& shards,
                      const ShardedSimulation::Config& config) {
  PSN_CHECK(!shards.empty(), "sharded driver needs at least one shard");
  PSN_CHECK(config.pool_threads >= 1, "need at least one pool thread");
  return std::min(config.pool_threads, shards.size());
}

}  // namespace

ShardedSimulation::ShardedSimulation(std::vector<Simulation*> shards,
                                     Config config)
    : shards_(std::move(shards)),
      config_(config),
      executed_(shards_.size(), 0),
      crew_(crew_size(shards_, config_)) {
  for (Simulation* s : shards_) PSN_CHECK(s != nullptr, "null shard");
  PSN_CHECK(config_.window > Duration::zero(),
            "window width must be positive (delay model must have nonzero "
            "minimum one-hop delay)");
}

std::size_t ShardedSimulation::drain_all(SimTime fence) {
  crew_.for_each(shards_.size(), [this, fence](std::size_t s) {
    executed_[s] = shards_[s]->scheduler().run_until_before(fence);
  });
  // Summed in shard order: the total is deterministic whatever member ran
  // which shard.
  std::size_t n = 0;
  for (const std::size_t e : executed_) n += e;
  return n;
}

bool ShardedSimulation::quiescent(SimTime horizon) const {
  for (const Simulation* s : shards_) {
    if (s->scheduler().next_time() <= horizon) return false;
  }
  return true;
}

std::size_t ShardedSimulation::run(const ExchangeFn& exchange) {
  PSN_CHECK(static_cast<bool>(exchange), "null exchange hook");
  truncated_ = false;
  windows_ = 0;
  // `stop` is one tick past the horizon so the final window's exclusive
  // fence still executes events *at* the horizon, as the serial
  // Simulation::run() does.
  const SimTime stop = config_.horizon + Duration::nanos(1);
  std::size_t max_events = SIZE_MAX;
  for (const Simulation* s : shards_) {
    max_events = std::min(max_events, s->config().max_events);
  }
  std::size_t total = 0;
  SimTime fence = std::min(stop, SimTime::zero() + config_.window);
  for (;;) {
    total += drain_all(fence);
    windows_++;
    const std::size_t injected = exchange(fence);
    if (total >= max_events) {
      // Safety valve, checked at window granularity (the serial driver
      // checks per event): results are truncated, never an endless spin.
      truncated_ = true;
      return total;
    }
    if (fence == stop && injected == 0 && quiescent(config_.horizon)) {
      return total;
    }
    if (fence < stop) fence = std::min(stop, fence + config_.window);
  }
}

}  // namespace psn::sim
