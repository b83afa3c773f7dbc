#include "sim/sharded.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace psn::sim {

ShardedSimulation::ShardedSimulation(std::vector<Simulation*> shards,
                                     Config config)
    : shards_(std::move(shards)), config_(config) {
  PSN_CHECK(!shards_.empty(), "sharded driver needs at least one shard");
  for (Simulation* s : shards_) PSN_CHECK(s != nullptr, "null shard");
  PSN_CHECK(config_.window > Duration::zero(),
            "window width must be positive (delay model must have nonzero "
            "minimum one-hop delay)");
  PSN_CHECK(config_.pool_threads >= 1, "need at least one pool thread");
  if (config_.pool_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<unsigned>(config_.pool_threads));
  }
}

std::size_t ShardedSimulation::drain_all(SimTime fence) {
  // Results are gathered per shard and summed in shard order: the total is
  // deterministic whatever the completion order of the pool tasks.
  if (pool_ == nullptr) {
    std::size_t n = 0;
    for (Simulation* s : shards_) n += s->scheduler().run_until_before(fence);
    return n;
  }
  std::vector<std::future<std::size_t>> turns;
  turns.reserve(shards_.size());
  for (Simulation* s : shards_) {
    turns.push_back(pool_->submit(
        [s, fence]() { return s->scheduler().run_until_before(fence); }));
  }
  std::size_t n = 0;
  for (auto& t : turns) n += t.get();  // the window barrier
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
    const std::size_t injected = exchange();
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
