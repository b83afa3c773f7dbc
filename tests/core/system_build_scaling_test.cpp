// Build-cost scaling guard: standing up a system must stay linear in its
// process count. Each piece of set-up (topology, shard map, fault-plan
// validation, per-shard transports and sensors) is O(n), so an 8x larger
// city costs about 8x as much to construct; a quadratic step reappearing
// anywhere (a per-edge scan of the hub's neighbour list, say) puts the
// ratio near 50x and fails here.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <memory>
#include <vector>

#include "core/sharded_system.hpp"

namespace psn::core {
namespace {

/// The city preset's system (psn_cli run --scenario city): a star of door
/// sensors reporting to the root by unicast, lean clocks, K = 4 shards.
ShardedSystemConfig city_system(std::size_t doors) {
  ShardedSystemConfig cfg;
  cfg.base.num_sensors = doors;
  cfg.base.topology = TopologyKind::kStar;
  cfg.base.clock_mode = net::ClockMode::kPhysical;
  cfg.base.clock_config.track_vectors = false;
  cfg.shards = 4;
  cfg.unicast_reports = true;
  return cfg;
}

/// Median wall time of five constructions, in seconds. Every system is
/// kept until all five are built, so each one touches fresh memory, as a
/// single run does. Freeing them in between would let the small builds
/// reuse warm heap pages while the large ones, whose freed pages the
/// allocator hands back to the kernel, fault theirs in again.
double median_build_s(std::size_t doors) {
  const ShardedSystemConfig cfg = city_system(doors);
  std::vector<double> samples;
  std::vector<std::unique_ptr<ShardedPervasiveSystem>> systems;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    systems.push_back(std::make_unique<ShardedPervasiveSystem>(cfg));
    samples.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
    EXPECT_EQ(systems.back()->num_processes(), doors + 1);
  }
  std::sort(samples.begin(), samples.end());
  return samples[2];
}

TEST(SystemBuildScalingTest, CityBuildGrowsLinearlyWithDoors) {
  const double small = median_build_s(4096);
  const double large = median_build_s(32768);
  EXPECT_LT(large, 20.0 * small)
      << "4096 doors: " << small << " s, 32768 doors: " << large << " s";
}

}  // namespace
}  // namespace psn::core
