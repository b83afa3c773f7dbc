#include "core/lattice.hpp"

#include <cstring>
#include <deque>
#include <unordered_set>

#include "common/error.hpp"

namespace psn::core::lattice {

namespace {

struct CutHash {
  std::size_t operator()(const std::vector<std::size_t>& cut) const {
    std::size_t h = 0xcbf29ce484222325ULL;
    for (const std::size_t v : cut) {
      h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

using CutSet = std::unordered_set<std::vector<std::size_t>, CutHash>;

/// Generic BFS over the consistent-cut lattice from the empty cut. Calls
/// `visit(cut)` for every consistent cut reached; if `expand(cut)` returns
/// false the cut's successors are not explored (used by definitely() to stop
/// at φ-true cuts). Returns false if the cap was hit.
template <typename Visit, typename Expand>
bool walk(const ExecutionView& view, std::uint64_t cap, Visit&& visit,
          Expand&& expand) {
  const std::size_t n = view.num_processes();
  std::vector<std::size_t> bottom(n, 0);
  CutSet seen;
  std::deque<std::vector<std::size_t>> frontier;
  seen.insert(bottom);
  visit(bottom);
  if (expand(bottom)) frontier.push_back(bottom);

  while (!frontier.empty()) {
    const std::vector<std::size_t> cut = std::move(frontier.front());
    frontier.pop_front();
    for (std::size_t i = 0; i < n; ++i) {
      if (cut[i] >= view.events(i).size()) continue;
      std::vector<std::size_t> next = cut;
      next[i]++;
      if (seen.contains(next)) continue;
      if (!view.consistent(next)) continue;
      if (seen.size() >= cap) return false;
      seen.insert(next);
      visit(next);
      if (expand(next)) frontier.push_back(std::move(next));
    }
  }
  return true;
}

}  // namespace

LatticeStats count_consistent_cuts(const ExecutionView& view,
                                   std::uint64_t cap) {
  LatticeStats stats;
  stats.total_events = view.total_events();
  const bool complete =
      walk(view, cap, [&](const auto&) { stats.consistent_cuts++; },
           [](const auto&) { return true; });
  stats.truncated = !complete;
  stats.linear = complete && stats.consistent_cuts == stats.total_events + 1;
  return stats;
}

double unconstrained_cuts(const ExecutionView& view) {
  double prod = 1.0;
  for (std::size_t i = 0; i < view.num_processes(); ++i) {
    prod *= static_cast<double>(view.events(i).size() + 1);
  }
  return prod;
}

std::optional<std::vector<std::size_t>> possibly_witness(
    const ExecutionView& view, const Predicate& predicate, std::uint64_t cap) {
  std::optional<std::vector<std::size_t>> witness;
  GlobalState state(predicate);
  walk(
      view, cap,
      [&](const std::vector<std::size_t>& cut) {
        if (witness) return;
        view.state_at(cut, state);
        if (predicate.holds(state)) witness = cut;
      },
      [&](const auto&) { return !witness.has_value(); });
  return witness;
}

bool possibly(const ExecutionView& view, const Predicate& predicate,
              std::uint64_t cap) {
  return possibly_witness(view, predicate, cap).has_value();
}

bool definitely(const ExecutionView& view, const Predicate& predicate,
                std::uint64_t cap) {
  // Definitely(φ) fails iff ⊤ is reachable from ⊥ through ¬φ cuts only
  // (⊥ and ⊤ included). φ-true cuts are not expanded — every observation
  // passing through them already satisfies φ.
  const std::vector<std::size_t> top = view.final_cut();
  bool top_reached_via_false = false;
  GlobalState state(predicate);
  const auto holds_at = [&](const std::vector<std::size_t>& cut) {
    view.state_at(cut, state);
    return predicate.holds(state);
  };
  walk(
      view, cap,
      [&](const std::vector<std::size_t>& cut) {
        if (cut == top && !holds_at(cut)) top_reached_via_false = true;
      },
      [&](const std::vector<std::size_t>& cut) { return !holds_at(cut); });
  return !top_reached_via_false;
}

}  // namespace psn::core::lattice
