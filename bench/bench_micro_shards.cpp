// Micro-benchmark of the Δ-windowed sharded runner (DESIGN.md §14): a
// shrunk city-scale scenario (star overlay, unicast-to-root reports, lean
// clocks, physical wire mode) executed end to end at 1/2/4/8 shards.
// Items/sec is *scheduler events per second* summed over every shard —
// the figure ISSUE 9 tracks against shard count.
//
// Two caveats the numbers must be read with:
//   - Speedup needs cores. shard_threads is pinned to
//     hardware_concurrency(); on a 1-CPU runner the 2/4/8-shard rows
//     measure the pure lockstep-window overhead (barriers + outbox
//     exchange) with zero parallel win, which is itself the regression
//     signal we want pinned.
//   - Results are byte-identical at every shard count (the golden suite
//     enforces it), so throughput is the only thing varying here.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>

#include "analysis/experiments.hpp"
#include "common/alloc_guard.hpp"
#include "core/sharded_system.hpp"

namespace {

using namespace psn;

analysis::OccupancyConfig city_config(std::size_t doors) {
  analysis::OccupancyConfig cfg;
  cfg.doors = doors;
  cfg.capacity = static_cast<int>(doors / 2);
  cfg.movement_rate = 2000.0;
  cfg.horizon = Duration::seconds(2);
  cfg.topology = core::TopologyKind::kStar;
  cfg.clock_mode = net::ClockMode::kPhysical;
  cfg.lean_clocks = true;
  cfg.unicast_reports = true;
  return cfg;
}

std::size_t pool_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// End-to-end sharded city run; arg 0 is the shard count. doors = 4096 is
/// the largest size that keeps the full 1/2/4/8 grid inside a micro-bench
/// budget; the CLI city preset (psn_cli run --scenario city) is the same
/// scenario at 10^5 doors.
void BM_CityShardedRun(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  analysis::OccupancyConfig cfg = city_config(4096);
  cfg.shards = shards;
  cfg.shard_threads = pool_threads();
  std::int64_t events = 0;
  std::size_t windows = 0;
  for (auto _ : state) {
    const analysis::OccupancyRunResult run =
        analysis::run_occupancy_experiment(cfg);
    const auto it = run.metrics.counters.find("sim.events_executed");
    events += it == run.metrics.counters.end()
                  ? 0
                  : static_cast<std::int64_t>(it->second);
    windows = run.shard_windows;
    benchmark::DoNotOptimize(run.oracle.transitions.size());
  }
  state.SetItemsProcessed(events);
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["pool_threads"] = static_cast<double>(cfg.shard_threads);
  state.counters["windows"] = static_cast<double>(windows);
}
BENCHMARK(BM_CityShardedRun)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// The window machinery in isolation: same scenario, same K = 4 partition,
/// pool pinned to 1 thread so the delta vs the K = 1 row is pure fence +
/// outbox-exchange cost with no parallelism credit. This is the row that
/// stays meaningful on a 1-CPU runner.
void BM_CityShardOverheadSerial(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  analysis::OccupancyConfig cfg = city_config(4096);
  cfg.shards = shards;
  cfg.shard_threads = 1;
  std::int64_t events = 0;
  for (auto _ : state) {
    const analysis::OccupancyRunResult run =
        analysis::run_occupancy_experiment(cfg);
    const auto it = run.metrics.counters.find("sim.events_executed");
    events += it == run.metrics.counters.end()
                  ? 0
                  : static_cast<std::int64_t>(it->second);
    benchmark::DoNotOptimize(run.oracle.transitions.size());
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_CityShardOverheadSerial)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Set-up alone: constructing the city preset's system (args: doors, K)
/// builds the topology, shard map and every shard's transport, root replica
/// and sensors, and runs nothing. Every piece is O(n), so ns/process stays
/// flat as doors grow; a quadratic build step shows as a row that grows
/// with doors. Teardown is not timed.
void BM_SystemBuild(benchmark::State& state) {
  const auto doors = static_cast<std::size_t>(state.range(0));
  core::ShardedSystemConfig cfg;
  cfg.base.num_sensors = doors;
  cfg.base.topology = core::TopologyKind::kStar;
  cfg.base.clock_mode = net::ClockMode::kPhysical;
  cfg.base.clock_config.track_vectors = false;
  cfg.shards = static_cast<std::size_t>(state.range(1));
  cfg.unicast_reports = true;
  std::uint64_t allocs = 0;
  std::chrono::nanoseconds elapsed{0};
  for (auto _ : state) {
    const std::uint64_t before = alloc_guard::thread_allocations();
    const auto start = std::chrono::steady_clock::now();
    auto system = std::make_unique<core::ShardedPervasiveSystem>(cfg);
    elapsed += std::chrono::steady_clock::now() - start;
    allocs += alloc_guard::thread_allocations() - before;
    benchmark::DoNotOptimize(system->num_processes());
    state.PauseTiming();
    system.reset();
    state.ResumeTiming();
  }
  const double built =
      static_cast<double>(doors + 1) * static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(built));
  state.counters["ns_per_process"] =
      static_cast<double>(elapsed.count()) / built;
  state.counters["allocs_per_process"] = static_cast<double>(allocs) / built;
}
BENCHMARK(BM_SystemBuild)
    ->ArgsProduct({{4096, 16384, 65536}, {1, 4}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
