#include "net/overlay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace psn::net {
namespace {

using Edges = std::vector<Overlay::Edge>;
using Lists = std::vector<std::vector<ProcessId>>;

/// Neighbour lists as an add_edge loop over `edges` builds them: an edge
/// already present is skipped, otherwise each endpoint appends the other.
Lists add_edge_loop(std::size_t n, const Edges& edges) {
  Lists adj(n);
  for (const auto& [a, b] : edges) {
    if (std::find(adj[a].begin(), adj[a].end(), b) != adj[a].end()) continue;
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  return adj;
}

Lists lists_of(const Overlay& o) {
  Lists adj(o.size());
  for (ProcessId p = 0; p < o.size(); ++p) {
    adj[p].assign(o.neighbors(p).begin(), o.neighbors(p).end());
  }
  return adj;
}

/// Plain breadth-first hop counts from `from` over lists `adj`.
std::vector<std::size_t> bfs(const Lists& adj, ProcessId from) {
  std::vector<std::size_t> dist(adj.size(), SIZE_MAX);
  std::vector<ProcessId> queue{from};
  dist[from] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const ProcessId nb : adj[queue[head]]) {
      if (dist[nb] != SIZE_MAX) continue;
      dist[nb] = dist[queue[head]] + 1;
      queue.push_back(nb);
    }
  }
  return dist;
}

/// The edge lists the builders were defined by, one add_edge call per pair.
Edges builder_edges(TopologyKind kind, std::size_t n) {
  Edges edges;
  switch (kind) {
    case TopologyKind::kComplete:
      for (ProcessId a = 0; a < n; ++a) {
        for (ProcessId b = a + 1; b < n; ++b) edges.emplace_back(a, b);
      }
      break;
    case TopologyKind::kStar:
      for (ProcessId p = 1; p < n; ++p) edges.emplace_back(0, p);
      break;
    case TopologyKind::kRing:
      if (n == 1) break;
      for (ProcessId p = 0; p < n; ++p) {
        edges.emplace_back(p, static_cast<ProcessId>((p + 1) % n));
      }
      break;
    case TopologyKind::kLine:
      for (ProcessId p = 0; p + 1 < n; ++p) edges.emplace_back(p, p + 1);
      break;
  }
  return edges;
}

constexpr TopologyKind kKinds[] = {TopologyKind::kComplete, TopologyKind::kStar,
                                   TopologyKind::kRing, TopologyKind::kLine};

TEST(OverlayTest, CompleteGraph) {
  const Overlay o = Overlay::complete(4);
  EXPECT_EQ(o.size(), 4u);
  for (ProcessId a = 0; a < 4; ++a) {
    EXPECT_EQ(o.neighbors(a).size(), 3u);
    for (ProcessId b = 0; b < 4; ++b) {
      if (a != b) {
        EXPECT_TRUE(o.has_edge(a, b));
        EXPECT_EQ(o.hop_distance(a, b), 1u);
      }
    }
  }
}

TEST(OverlayTest, StarTopology) {
  const Overlay o = Overlay::star(5, /*hub=*/0);
  EXPECT_EQ(o.neighbors(0).size(), 4u);
  EXPECT_EQ(o.neighbors(3).size(), 1u);
  EXPECT_EQ(o.hop_distance(1, 2), 2u);  // via the hub
  EXPECT_EQ(o.hop_distance(0, 4), 1u);
  const Overlay off_center = Overlay::star(5, /*hub=*/3);
  EXPECT_EQ(off_center.hop_distance(3, 0), 1u);
  EXPECT_EQ(off_center.hop_distance(0, 4), 2u);
  EXPECT_TRUE(off_center.has_edge(4, 3));
  EXPECT_FALSE(off_center.has_edge(0, 4));
}

TEST(OverlayTest, RingTopology) {
  const Overlay o = Overlay::ring(6);
  EXPECT_EQ(o.hop_distance(0, 3), 3u);
  EXPECT_EQ(o.hop_distance(0, 5), 1u);
}

TEST(OverlayTest, LineTopology) {
  const Overlay o = Overlay::line(5);
  EXPECT_EQ(o.hop_distance(0, 4), 4u);
  EXPECT_EQ(o.neighbors(0).size(), 1u);
  EXPECT_EQ(o.neighbors(2).size(), 2u);
}

TEST(OverlayTest, SingleNodeGraphs) {
  EXPECT_EQ(Overlay::complete(1).hop_distance(0, 0), 0u);
  EXPECT_EQ(Overlay::ring(1).hop_distance(0, 0), 0u);
  EXPECT_EQ(Overlay::line(1).hop_distance(0, 0), 0u);
}

TEST(OverlayTest, BuildersKeepTheAddEdgeNeighbourOrder) {
  for (const TopologyKind kind : kKinds) {
    for (std::size_t n = 1; n <= 9; ++n) {
      const Overlay o = Overlay::build(kind, n);
      ASSERT_EQ(o.kind(), kind);
      EXPECT_EQ(lists_of(o), add_edge_loop(n, builder_edges(kind, n)))
          << "kind " << static_cast<int>(kind) << " n " << n;
    }
  }
  // The degenerate sizes, spelled out.
  EXPECT_EQ(lists_of(Overlay::ring(1)), Lists(1));
  EXPECT_EQ(lists_of(Overlay::ring(2)), (Lists{{1}, {0}}));  // one edge
  EXPECT_EQ(lists_of(Overlay::ring(3)), (Lists{{1, 2}, {0, 2}, {1, 0}}));
  EXPECT_EQ(lists_of(Overlay::star(1)), Lists(1));
  EXPECT_EQ(lists_of(Overlay::line(1)), Lists(1));
  EXPECT_EQ(lists_of(Overlay::star(4, 2)), (Lists{{2}, {2}, {0, 1, 3}, {2}}));
}

TEST(OverlayTest, CopiesShareOneAdjacency) {
  const Overlay o = Overlay::star(100);
  // NOLINTNEXTLINE(performance-unnecessary-copy-initialization)
  const Overlay copy = o;
  EXPECT_EQ(copy.neighbors(0).data(), o.neighbors(0).data());
  const CutMask mask(o);
  EXPECT_EQ(mask.overlay().neighbors(0).data(), o.neighbors(0).data());
}

TEST(OverlayTest, ClosedFormDistancesMatchBfs) {
  for (const TopologyKind kind : kKinds) {
    for (std::size_t n = 1; n <= 64; ++n) {
      const Overlay o = Overlay::build(kind, n);
      const Lists adj = lists_of(o);
      std::size_t diameter = 0;
      for (ProcessId a = 0; a < n; ++a) {
        const std::vector<std::size_t> dist = bfs(adj, a);
        for (ProcessId b = 0; b < n; ++b) {
          ASSERT_EQ(o.hop_distance(a, b), dist[b])
              << "kind " << static_cast<int>(kind) << " n " << n << " " << a
              << "->" << b;
          ASSERT_EQ(o.has_edge(a, b), dist[b] == 1);
          ASSERT_EQ(Overlay::has_edge(kind, n, a, b), dist[b] == 1);
          diameter = std::max(diameter, dist[b]);
        }
      }
      EXPECT_EQ(o.diameter(), diameter)
          << "kind " << static_cast<int>(kind) << " n " << n;
    }
  }
}

TEST(OverlayTest, CutMaskMatchesBfsWithoutTheCutEdges) {
  Rng rng(20260417);
  const Overlay graphs[] = {Overlay::complete(9), Overlay::star(17),
                            Overlay::ring(16), Overlay::line(15)};
  for (const Overlay& o : graphs) {
    Edges edges;
    for (ProcessId a = 0; a < o.size(); ++a) {
      for (const ProcessId b : o.neighbors(a)) {
        if (a < b) edges.emplace_back(a, b);
      }
    }
    CutMask mask(o);
    Edges cut;
    for (int step = 0; step < 60; ++step) {
      // Cut a random uncut edge or heal a random cut one.
      if (cut.empty() || (cut.size() < edges.size() && rng.bernoulli(0.6))) {
        const Overlay::Edge e = edges[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(edges.size()) - 1))];
        if (std::find(cut.begin(), cut.end(), e) != cut.end()) continue;
        cut.push_back(e);
        mask.cut(e.second, e.first);
      } else {
        const auto i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(cut.size()) - 1));
        mask.heal(cut[i].first, cut[i].second);
        cut.erase(cut.begin() + static_cast<std::ptrdiff_t>(i));
      }
      ASSERT_EQ(mask.active(), cut.size());
      Edges kept;
      for (const Overlay::Edge& e : edges) {
        if (std::find(cut.begin(), cut.end(), e) == cut.end()) {
          kept.push_back(e);
        }
      }
      const Lists reference = add_edge_loop(o.size(), kept);
      // Random pairs, so the cached row is hit from both ends and missed.
      for (int q = 0; q < 40; ++q) {
        const auto a = static_cast<ProcessId>(
            rng.uniform_int(0, static_cast<std::int64_t>(o.size()) - 1));
        const auto b = static_cast<ProcessId>(
            rng.uniform_int(0, static_cast<std::int64_t>(o.size()) - 1));
        ASSERT_EQ(mask.hop_distance(a, b), bfs(reference, a)[b])
            << "step " << step << " " << a << "->" << b;
      }
    }
  }
}

TEST(OverlayTest, DynamicEdgeChanges) {
  CutMask mask(Overlay::line(3));
  EXPECT_EQ(mask.hop_distance(0, 2), 2u);
  mask.cut(1, 2);
  EXPECT_EQ(mask.hop_distance(0, 2), SIZE_MAX);
  EXPECT_EQ(mask.hop_distance(0, 1), 1u);
  mask.cut(0, 1);
  EXPECT_EQ(mask.hop_distance(0, 1), SIZE_MAX);
  mask.heal(1, 0);
  mask.heal(2, 1);
  EXPECT_EQ(mask.hop_distance(0, 2), 2u);
  EXPECT_EQ(mask.active(), 0u);
}

TEST(OverlayTest, DuplicateEdgeIgnored) {
  // ring(2)'s closing edge 1-0 repeats 0-1: the ring has one edge.
  const Overlay o = Overlay::ring(2);
  EXPECT_EQ(o.neighbors(0).size(), 1u);
  EXPECT_EQ(o.neighbors(1).size(), 1u);
  EXPECT_EQ(o.hop_distance(0, 1), 1u);
  EXPECT_EQ(o.diameter(), 1u);
}

TEST(OverlayTest, Validation) {
  EXPECT_THROW(Overlay::complete(0), InvariantError);
  EXPECT_THROW(Overlay::star(3, 7), InvariantError);
}

}  // namespace
}  // namespace psn::net
