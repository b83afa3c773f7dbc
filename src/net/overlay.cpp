#include "net/overlay.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace psn::net {

Overlay::Overlay(std::size_t n)
    : n_(n), adj_(n), dist_rows_(n), row_valid_(n, 0) {
  PSN_CHECK(n > 0, "overlay needs at least one process");
}

Overlay Overlay::complete(std::size_t n) {
  Overlay o(n);
  for (ProcessId a = 0; a < n; ++a) {
    for (ProcessId b = a + 1; b < n; ++b) o.add_edge(a, b);
  }
  return o;
}

Overlay Overlay::star(std::size_t n, ProcessId hub) {
  Overlay o(n);
  PSN_CHECK(hub < n, "hub out of range");
  for (ProcessId p = 0; p < n; ++p) {
    if (p != hub) o.add_edge(hub, p);
  }
  return o;
}

Overlay Overlay::ring(std::size_t n) {
  Overlay o(n);
  if (n == 1) return o;
  for (ProcessId p = 0; p < n; ++p) {
    o.add_edge(p, static_cast<ProcessId>((p + 1) % n));
  }
  return o;
}

Overlay Overlay::line(std::size_t n) {
  Overlay o(n);
  for (ProcessId p = 0; p + 1 < n; ++p) {
    o.add_edge(p, static_cast<ProcessId>(p + 1));
  }
  return o;
}

void Overlay::add_edge(ProcessId a, ProcessId b) {
  PSN_CHECK(a < n_ && b < n_, "edge endpoint out of range");
  PSN_CHECK(a != b, "self-loops not allowed");
  if (has_edge(a, b)) return;
  adj_[a].push_back(b);
  adj_[b].push_back(a);
  std::fill(row_valid_.begin(), row_valid_.end(), 0);
}

void Overlay::remove_edge(ProcessId a, ProcessId b) {
  PSN_CHECK(a < n_ && b < n_, "edge endpoint out of range");
  std::erase(adj_[a], b);
  std::erase(adj_[b], a);
  std::fill(row_valid_.begin(), row_valid_.end(), 0);
}

bool Overlay::has_edge(ProcessId a, ProcessId b) const {
  PSN_CHECK(a < n_ && b < n_, "edge endpoint out of range");
  return std::find(adj_[a].begin(), adj_[a].end(), b) != adj_[a].end();
}

const std::vector<ProcessId>& Overlay::neighbors(ProcessId p) const {
  PSN_CHECK(p < n_, "process out of range");
  return adj_[p];
}

const std::vector<std::size_t>& Overlay::distance_row(ProcessId from) const {
  std::vector<std::size_t>& dist = dist_rows_[from];
  if (row_valid_[from]) return dist;
  dist.assign(n_, SIZE_MAX);
  bfs_queue_.clear();
  dist[from] = 0;
  bfs_queue_.push_back(from);
  // Plain vector + read cursor as the BFS queue: push_back never outruns n_,
  // so after the first row both buffers sit at full capacity and a
  // recomputation allocates nothing.
  for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
    const ProcessId cur = bfs_queue_[head];
    for (const ProcessId nb : adj_[cur]) {
      if (dist[nb] != SIZE_MAX) continue;
      dist[nb] = dist[cur] + 1;
      bfs_queue_.push_back(nb);
    }
  }
  row_valid_[from] = 1;
  return dist;
}

std::size_t Overlay::hop_distance(ProcessId from, ProcessId to) const {
  PSN_CHECK(from < n_ && to < n_, "process out of range");
  if (from == to) return 0;
  // Small-degree fast path: a leaf that only ever talks to a direct
  // neighbor (a city-scale sensor unicasting to the star hub) answers from
  // its adjacency list and never materializes an O(n) BFS row — at 10^5
  // processes the rows alone would be tens of GB.
  if (!row_valid_[from] && adj_[from].size() <= kDirectScanDegree) {
    const auto& nb = adj_[from];
    if (std::find(nb.begin(), nb.end(), to) != nb.end()) return 1;
  }
  return distance_row(from)[to];
}

}  // namespace psn::net
