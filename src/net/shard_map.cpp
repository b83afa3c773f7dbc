#include "net/shard_map.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace psn::net {

ShardMap ShardMap::partition(const Overlay& overlay, std::size_t shards) {
  const std::size_t n = overlay.size();
  PSN_CHECK(shards >= 1, "need at least one shard");
  PSN_CHECK(shards <= n, "more shards than processes");

  // cut(c) = number of overlay edges (a, b), a < b, crossing the candidate
  // boundary c (i.e. a < c <= b), accumulated as a difference array: each
  // edge contributes +1 to every boundary in (a, b].
  std::vector<std::int64_t> diff(n + 1, 0);
  for (ProcessId a = 0; a < n; ++a) {
    for (const ProcessId b : overlay.neighbors(a)) {
      if (a < b) {
        diff[a + 1]++;
        diff[static_cast<std::size_t>(b) + 1]--;
      }
    }
  }
  std::vector<std::int64_t> cut(n + 1, 0);
  for (std::size_t c = 1; c <= n; ++c) cut[c] = cut[c - 1] + diff[c];

  ShardMap m;
  m.starts_.assign(shards + 1, 0);
  m.starts_[shards] = static_cast<ProcessId>(n);
  const std::size_t slack = std::max<std::size_t>(1, n / (4 * shards));
  for (std::size_t k = 1; k < shards; ++k) {
    const std::size_t ideal = k * n / shards;
    // The window is clipped so every shard (this one and all still to be
    // fenced off) keeps at least one pid.
    std::size_t lo = std::max<std::size_t>(m.starts_[k - 1] + 1,
                                           ideal > slack ? ideal - slack : 1);
    std::size_t hi = std::min(ideal + slack, n - (shards - k));
    if (hi < lo) {
      lo = hi = std::max<std::size_t>(m.starts_[k - 1] + 1,
                                      std::min(ideal, n - (shards - k)));
    }
    std::size_t best = lo;
    for (std::size_t c = lo + 1; c <= hi; ++c) {
      if (cut[c] < cut[best]) best = c;
    }
    m.starts_[k] = static_cast<ProcessId>(best);
  }

  m.shard_of_.resize(n);
  for (std::size_t k = 0; k < shards; ++k) {
    for (ProcessId p = m.starts_[k]; p < m.starts_[k + 1]; ++p) {
      m.shard_of_[p] = static_cast<std::uint32_t>(k);
    }
  }
  return m;
}

}  // namespace psn::net
