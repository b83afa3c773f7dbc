#include "net/overlay.hpp"

#include <algorithm>
#include <cstdint>

#include "common/error.hpp"
#include "common/hot.hpp"

namespace psn::net {

Overlay::Overlay(std::size_t n, TopologyKind kind, ProcessId hub,
                 const std::vector<Edge>& edges)
    : n_(n), kind_(kind), hub_(hub) {
  PSN_CHECK(n > 0, "overlay needs at least one process");
  auto adj = std::make_shared<Adjacency>();
  // Counting sort into CSR: each list receives its edges in listing order.
  adj->offsets.assign(n + 1, 0);
  for (const auto& [a, b] : edges) {
    adj->offsets[a + 1]++;
    adj->offsets[b + 1]++;
  }
  for (std::size_t p = 0; p < n; ++p) adj->offsets[p + 1] += adj->offsets[p];
  adj->targets.resize(adj->offsets[n]);
  std::vector<std::size_t> fill(adj->offsets.begin(), adj->offsets.end() - 1);
  for (const auto& [a, b] : edges) {
    adj->targets[fill[a]++] = b;
    adj->targets[fill[b]++] = a;
  }
  adj_ = std::move(adj);
}

Overlay Overlay::complete(std::size_t n) {
  std::vector<Edge> edges;
  edges.reserve(n * (n - 1) / 2);
  for (ProcessId a = 0; a < n; ++a) {
    for (ProcessId b = a + 1; b < n; ++b) edges.emplace_back(a, b);
  }
  return Overlay(n, TopologyKind::kComplete, 0, edges);
}

Overlay Overlay::star(std::size_t n, ProcessId hub) {
  PSN_CHECK(hub < n, "hub out of range");
  std::vector<Edge> edges;
  edges.reserve(n - 1);
  for (ProcessId p = 0; p < n; ++p) {
    if (p != hub) edges.emplace_back(hub, p);
  }
  return Overlay(n, TopologyKind::kStar, hub, edges);
}

Overlay Overlay::ring(std::size_t n) {
  // ring(2)'s closing edge 1-0 would repeat 0-1, so it has one edge.
  std::vector<Edge> edges;
  if (n == 2) edges.emplace_back(0, 1);
  if (n > 2) {
    edges.reserve(n);
    for (ProcessId p = 0; p < n; ++p) {
      edges.emplace_back(p, static_cast<ProcessId>((p + 1) % n));
    }
  }
  return Overlay(n, TopologyKind::kRing, 0, edges);
}

Overlay Overlay::line(std::size_t n) {
  std::vector<Edge> edges;
  for (ProcessId p = 0; p + 1 < n; ++p) edges.emplace_back(p, p + 1);
  return Overlay(n, TopologyKind::kLine, 0, edges);
}

Overlay Overlay::build(TopologyKind kind, std::size_t n) {
  switch (kind) {
    case TopologyKind::kComplete: return complete(n);
    case TopologyKind::kStar: return star(n);
    case TopologyKind::kRing: return ring(n);
    case TopologyKind::kLine: return line(n);
  }
  PSN_CHECK(false, "unknown topology kind");
  return line(n);
}

bool Overlay::has_edge(ProcessId a, ProcessId b) const {
  PSN_CHECK(a < n_ && b < n_, "edge endpoint out of range");
  return a != b && hops(kind_, n_, hub_, a, b) == 1;
}

bool Overlay::has_edge(TopologyKind kind, std::size_t n, ProcessId a,
                       ProcessId b) {
  PSN_CHECK(a < n && b < n, "edge endpoint out of range");
  return a != b && hops(kind, n, /*hub=*/0, a, b) == 1;
}

std::span<const ProcessId> Overlay::neighbors(ProcessId p) const {
  PSN_CHECK(p < n_, "process out of range");
  const std::size_t begin = adj_->offsets[p];
  return {adj_->targets.data() + begin, adj_->offsets[p + 1] - begin};
}

std::size_t Overlay::hop_distance(ProcessId from, ProcessId to) const {
  PSN_CHECK(from < n_ && to < n_, "process out of range");
  return hops(kind_, n_, hub_, from, to);
}

std::size_t Overlay::hops(TopologyKind kind, std::size_t n, ProcessId hub,
                          ProcessId from, ProcessId to) {
  if (from == to) return 0;
  const std::size_t d = from < to ? to - from : from - to;
  switch (kind) {
    case TopologyKind::kComplete: return 1;
    case TopologyKind::kStar: return from == hub || to == hub ? 1 : 2;
    case TopologyKind::kRing: return std::min(d, n - d);
    case TopologyKind::kLine: return d;
  }
  PSN_CHECK(false, "unknown topology kind");
  return SIZE_MAX;
}

std::size_t Overlay::diameter() const {
  if (n_ == 1) return 0;
  switch (kind_) {
    case TopologyKind::kComplete: return 1;
    case TopologyKind::kStar: return n_ == 2 ? 1 : 2;
    case TopologyKind::kRing: return n_ / 2;
    case TopologyKind::kLine: return n_ - 1;
  }
  PSN_CHECK(false, "unknown topology kind");
  return SIZE_MAX;
}

CutMask::CutMask(Overlay overlay) : overlay_(std::move(overlay)) {
  row_.reserve(overlay_.size());
  queue_.reserve(overlay_.size());
}

void CutMask::cut(ProcessId a, ProcessId b) {
  if (is_cut(a, b)) return;
  cuts_.emplace_back(std::minmax(a, b));
  row_source_ = kNoProcess;
}

void CutMask::heal(ProcessId a, ProcessId b) {
  const auto it = std::find(cuts_.begin(), cuts_.end(),
                            Overlay::Edge(std::minmax(a, b)));
  if (it == cuts_.end()) return;
  cuts_.erase(it);
  row_source_ = kNoProcess;
}

bool CutMask::is_cut(ProcessId a, ProcessId b) const {
  return std::find(cuts_.begin(), cuts_.end(),
                   Overlay::Edge(std::minmax(a, b))) != cuts_.end();
}

PSN_HOT std::size_t CutMask::hop_distance(ProcessId from, ProcessId to) {
  if (cuts_.empty()) return overlay_.hop_distance(from, to);
  PSN_CHECK(from < overlay_.size() && to < overlay_.size(),
            "process out of range");
  if (row_source_ != from && row_source_ != to) {
    fill_row(overlay_.neighbors(to).size() > overlay_.neighbors(from).size()
                 ? to
                 : from);
  }
  return row_[row_source_ == from ? to : from];
}

PSN_HOT void CutMask::fill_row(ProcessId source) {
  // Both buffers were reserved to n at construction and never outgrow it,
  // so a recomputation allocates nothing.
  row_.assign(overlay_.size(), SIZE_MAX);
  queue_.clear();
  row_[source] = 0;
  queue_.push_back(source);
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const ProcessId cur = queue_[head];
    for (const ProcessId nb : overlay_.neighbors(cur)) {
      if (row_[nb] != SIZE_MAX || is_cut(cur, nb)) continue;
      row_[nb] = row_[cur] + 1;
      queue_.push_back(nb);
    }
  }
  row_source_ = source;
}

}  // namespace psn::net
