// ShardMap (DESIGN.md §14): contiguous pid-range partition with greedy
// cut-minimizing boundary placement. The properties pinned here are the
// ones the sharded runner's correctness leans on: full coverage by
// contiguous ranges, dense O(1) lookup agreeing with the fence posts,
// determinism, bounded imbalance, and sane cut counts on the overlays
// whose cuts are analytically known.

#include <gtest/gtest.h>

#include <cstddef>

#include "net/overlay.hpp"
#include "net/shard_map.hpp"

namespace psn::net {
namespace {

/// Overlay edges whose endpoints landed in different shards.
std::size_t crossing_edges(const Overlay& overlay, const ShardMap& map) {
  std::size_t crossing = 0;
  for (ProcessId a = 0; a < overlay.size(); ++a) {
    for (const ProcessId b : overlay.neighbors(a)) {
      if (a < b && map.shard_of(a) != map.shard_of(b)) crossing++;
    }
  }
  return crossing;
}

std::size_t pids_in(const ShardMap& map, std::size_t shard) {
  return map.end(shard) - map.begin(shard);
}

void expect_covers_contiguously(const ShardMap& map, std::size_t n) {
  const std::size_t k = map.num_shards();
  ASSERT_GE(k, 1u);
  EXPECT_EQ(map.size(), n);
  EXPECT_EQ(map.begin(0), 0u);
  EXPECT_EQ(map.end(k - 1), n);
  std::size_t covered = 0;
  for (std::size_t s = 0; s < k; ++s) {
    ASSERT_LT(map.begin(s), map.end(s)) << "empty shard " << s;
    if (s + 1 < k) {
      EXPECT_EQ(map.end(s), map.begin(s + 1)) << "gap after shard " << s;
    }
    covered += pids_in(map, s);
    for (ProcessId p = map.begin(s); p < map.end(s); ++p) {
      EXPECT_EQ(map.shard_of(p), s) << "pid " << p;
    }
  }
  EXPECT_EQ(covered, n);
}

TEST(ShardMapTest, SingleShardOwnsEverythingAndCutsNothing) {
  const Overlay overlay = Overlay::complete(9);
  const ShardMap map = ShardMap::partition(overlay, 1);
  expect_covers_contiguously(map, 9);
  EXPECT_EQ(map.num_shards(), 1u);
  EXPECT_EQ(crossing_edges(overlay, map), 0u);
}

TEST(ShardMapTest, OneShardPerProcessCutsEveryEdge) {
  const std::size_t n = 5;
  const Overlay overlay = Overlay::line(n);
  const ShardMap map = ShardMap::partition(overlay, n);
  expect_covers_contiguously(map, n);
  EXPECT_EQ(map.num_shards(), n);
  for (ProcessId p = 0; p < n; ++p) EXPECT_EQ(map.shard_of(p), p);
  EXPECT_EQ(crossing_edges(overlay, map), n - 1);  // every line edge crosses a boundary
}

TEST(ShardMapTest, EveryTopologyIsCoveredContiguously) {
  const std::size_t n = 101;  // prime: every boundary lands off-center
  const Overlay overlays[] = {Overlay::complete(n), Overlay::star(n),
                              Overlay::ring(n), Overlay::line(n)};
  for (const Overlay& overlay : overlays) {
    for (const std::size_t k : {std::size_t{2}, std::size_t{3},
                                std::size_t{8}, std::size_t{16}}) {
      const ShardMap map = ShardMap::partition(overlay, k);
      expect_covers_contiguously(map, n);
      EXPECT_EQ(map.num_shards(), k);
    }
  }
}

TEST(ShardMapTest, LineCutIsExactlyOneEdgePerBoundary) {
  // On a line every adjacent pair is an edge, so wherever the greedy slide
  // settles, each of the K-1 boundaries cuts exactly one edge.
  const Overlay overlay = Overlay::line(64);
  const ShardMap map = ShardMap::partition(overlay, 4);
  EXPECT_EQ(crossing_edges(overlay, map), 3u);
}

TEST(ShardMapTest, StarCutCountsSpokesLeavingTheHubShard) {
  // All n-1 spokes touch hub 0 (shard 0); the uncut ones end inside shard 0.
  const std::size_t n = 12;
  const Overlay overlay = Overlay::star(n);
  const ShardMap map = ShardMap::partition(overlay, 3);
  expect_covers_contiguously(map, n);
  EXPECT_EQ(crossing_edges(overlay, map), n - pids_in(map, 0));
}

TEST(ShardMapTest, BalanceStaysWithinTheSlideSlack) {
  // Boundaries start at k·n/K and slide within ±n/(4K), so no shard can
  // deviate from n/K by more than 2·(n/(4K)) + 1.
  const std::size_t n = 1000;
  const std::size_t k = 8;
  const ShardMap map = ShardMap::partition(Overlay::ring(n), k);
  const std::size_t target = n / k;
  const std::size_t slack = 2 * (n / (4 * k)) + 1;
  for (std::size_t s = 0; s < k; ++s) {
    EXPECT_NEAR(static_cast<double>(pids_in(map, s)),
                static_cast<double>(target), static_cast<double>(slack))
        << "shard " << s;
  }
}

TEST(ShardMapTest, PartitionIsDeterministic) {
  const Overlay overlay = Overlay::star(257);
  const ShardMap a = ShardMap::partition(overlay, 7);
  const ShardMap b = ShardMap::partition(overlay, 7);
  ASSERT_EQ(a.num_shards(), b.num_shards());
  for (std::size_t s = 0; s < a.num_shards(); ++s) {
    EXPECT_EQ(a.begin(s), b.begin(s));
    EXPECT_EQ(a.end(s), b.end(s));
  }
  EXPECT_EQ(crossing_edges(overlay, a), crossing_edges(overlay, b));
}

}  // namespace
}  // namespace psn::net
