#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace psn::net {

/// The overlay shapes a system config names. Each has closed-form hop
/// distances and diameter, so routing on them needs no graph search.
enum class TopologyKind { kComplete, kStar, kRing, kLine };

/// The logical network overlay L over which processes in P communicate
/// (paper §2.1). Undirected; multi-hop delivery accumulates one delay sample
/// per hop along the shortest path.
///
/// Immutable: a builder fills the adjacency (flat CSR) once in O(n + m), and
/// every copy of an Overlay shares it, so all shards of a system read one
/// topology. The paper's L "is a dynamically changing graph"; its changes
/// here are partition cuts, which a CutMask lays over the shared topology
/// without editing it.
class Overlay {
 public:
  using Edge = std::pair<ProcessId, ProcessId>;

  static Overlay complete(std::size_t n);
  /// Star centered on `hub` (the common root-P0 configuration).
  static Overlay star(std::size_t n, ProcessId hub = 0);
  static Overlay ring(std::size_t n);
  /// Path 0-1-2-…-(n-1); the worst diameter, for stress tests.
  static Overlay line(std::size_t n);
  /// The `kind` topology over n processes (a star is centered on P_0).
  static Overlay build(TopologyKind kind, std::size_t n);

  std::size_t size() const { return n_; }
  TopologyKind kind() const { return kind_; }
  /// Closed form too: an edge joins two processes at hop distance 1.
  bool has_edge(ProcessId a, ProcessId b) const;
  /// build(kind, n).has_edge(a, b), answered without building the overlay.
  static bool has_edge(TopologyKind kind, std::size_t n, ProcessId a,
                       ProcessId b);
  std::span<const ProcessId> neighbors(ProcessId p) const;

  /// Hop count of the shortest path, in O(1) closed form.
  std::size_t hop_distance(ProcessId from, ProcessId to) const;
  /// The longest shortest path, in closed form.
  std::size_t diameter() const;

 private:
  struct Adjacency {
    std::vector<std::size_t> offsets;  ///< n + 1 fence posts into targets
    std::vector<ProcessId> targets;
  };

  /// `edges` lists each edge once.
  Overlay(std::size_t n, TopologyKind kind, ProcessId hub,
          const std::vector<Edge>& edges);
  /// The closed-form hop count of the `kind` topology over n processes.
  static std::size_t hops(TopologyKind kind, std::size_t n, ProcessId hub,
                          ProcessId from, ProcessId to);

  std::size_t n_;
  TopologyKind kind_;
  ProcessId hub_ = 0;  ///< the star's center
  std::shared_ptr<const Adjacency> adj_;
};

/// Hop distances over a shared Overlay minus a set of cut edges: the
/// partition cuts a Transport has replayed from its fault schedule
/// (DESIGN.md §15). With no cut, the closed form answers directly.
/// Otherwise a breadth-first search over the overlay minus the cuts fills
/// one cached row, kept until the next cut or heal. On a miss the row is
/// computed from the higher-degree endpoint (ties: `from`), so leaf→hub
/// traffic is served from the hub's row and a broadcast from its source's.
/// Scratch is sized at construction: O(n) memory, and no allocation once
/// the cut list has reached its peak size.
class CutMask {
 public:
  explicit CutMask(Overlay overlay);

  const Overlay& overlay() const { return overlay_; }
  /// Masks edge {a, b}; cutting a cut edge is a no-op.
  void cut(ProcessId a, ProcessId b);
  /// Unmasks edge {a, b}; healing an uncut edge is a no-op.
  void heal(ProcessId a, ProcessId b);
  /// Number of edges currently cut.
  std::size_t active() const { return cuts_.size(); }
  /// Pre-sizes the cut list for `cuts` simultaneous cuts.
  void reserve(std::size_t cuts) { cuts_.reserve(cuts); }

  /// Hop count of the shortest path avoiding every cut edge, or SIZE_MAX.
  std::size_t hop_distance(ProcessId from, ProcessId to);

 private:
  bool is_cut(ProcessId a, ProcessId b) const;
  void fill_row(ProcessId source);

  Overlay overlay_;
  std::vector<Overlay::Edge> cuts_;  ///< normalized to (min, max)
  std::vector<std::size_t> row_;     ///< hop counts from row_source_
  std::vector<ProcessId> queue_;     ///< search frontier, read by cursor
  ProcessId row_source_ = kNoProcess;  ///< kNoProcess: no valid row
};

}  // namespace psn::net
