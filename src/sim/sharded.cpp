#include "sim/sharded.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace psn::sim {

namespace {

// Spin iterations before a crew wait falls back to the futex. A window
// hand-off normally lands within a few microseconds; the bound keeps a
// member that waits out the serial exchange from burning a core that
// another member (or the exchange itself) needs when the crew is as large
// as the machine.
constexpr int kSpinLimit = 1024;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Returns once `a` no longer holds `old`: a bounded spin, then
/// std::atomic::wait (a futex wait for a 32-bit atomic in libstdc++).
void wait_while(const std::atomic<std::uint32_t>& a, std::uint32_t old) {
  for (int i = 0; i < kSpinLimit; ++i) {
    if (a.load(std::memory_order_acquire) != old) return;
    cpu_relax();
  }
  while (a.load(std::memory_order_acquire) == old) {
    a.wait(old, std::memory_order_acquire);
  }
}

}  // namespace

ShardedSimulation::ShardedSimulation(std::vector<Simulation*> shards,
                                     Config config)
    : shards_(std::move(shards)), config_(config) {
  PSN_CHECK(!shards_.empty(), "sharded driver needs at least one shard");
  for (Simulation* s : shards_) PSN_CHECK(s != nullptr, "null shard");
  PSN_CHECK(config_.window > Duration::zero(),
            "window width must be positive (delay model must have nonzero "
            "minimum one-hop delay)");
  PSN_CHECK(config_.pool_threads >= 1, "need at least one pool thread");
  const std::size_t crew = std::min(config_.pool_threads, shards_.size());
  if (crew == 1) return;
  executed_.assign(shards_.size(), 0);
  errors_.assign(shards_.size(), nullptr);
  helpers_.reserve(crew - 1);
  try {
    for (std::size_t m = 1; m < crew; ++m) {
      helpers_.emplace_back([this] { helper_loop(); });
    }
  } catch (...) {
    stop_crew();
    throw;
  }
}

ShardedSimulation::~ShardedSimulation() { stop_crew(); }

void ShardedSimulation::stop_crew() {
  if (helpers_.empty()) return;
  stopping_.store(true, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& t : helpers_) t.join();
  helpers_.clear();
}

void ShardedSimulation::helper_loop() {
  std::uint32_t seen = 0;
  for (;;) {
    wait_while(generation_, seen);
    // A helper that wakes late may find the window drained, or already
    // the next one open; claims are only ever made from the open window.
    seen = generation_.load(std::memory_order_acquire);
    if (stopping_.load(std::memory_order_acquire)) return;
    run_claimed_shards();
  }
}

void ShardedSimulation::run_claimed_shards() {
  for (;;) {
    // An index below K is a claim in the open window: the driver resets
    // the index only once every shard of the previous window is done, and
    // the window cannot close before this claim is counted down, so the
    // fence read after the claim is the claimed window's.
    const std::size_t s = next_shard_.fetch_add(1, std::memory_order_acquire);
    if (s >= shards_.size()) return;
    try {
      executed_[s] = shards_[s]->scheduler().run_until_before(fence_);
    } catch (...) {
      errors_[s] = std::current_exception();
    }
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_one();
    }
  }
}

std::size_t ShardedSimulation::drain_all(SimTime fence) {
  // Results are gathered per shard and summed in shard order: the total is
  // deterministic whatever member ran which shard.
  std::size_t n = 0;
  if (helpers_.empty()) {
    for (Simulation* s : shards_) n += s->scheduler().run_until_before(fence);
    return n;
  }
  fence_ = fence;
  pending_.store(static_cast<std::uint32_t>(shards_.size()),
                 std::memory_order_relaxed);
  next_shard_.store(0, std::memory_order_release);  // opens the window
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  run_claimed_shards();
  // The window barrier: every shard has been run and counted down.
  for (std::uint32_t left = pending_.load(std::memory_order_acquire);
       left != 0; left = pending_.load(std::memory_order_acquire)) {
    wait_while(pending_, left);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (errors_[s] != nullptr) {
      std::exception_ptr e = errors_[s];
      std::fill(errors_.begin(), errors_.end(), nullptr);
      std::rethrow_exception(e);
    }
    n += executed_[s];
  }
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
