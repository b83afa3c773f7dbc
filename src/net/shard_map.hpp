#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/sim_time.hpp"
#include "common/types.hpp"
#include "net/message.hpp"
#include "net/overlay.hpp"

namespace psn::net {

/// A delivery whose arrival instant and canonical tie were already computed
/// by the *sender's* shard, parked in an outbox until the window barrier
/// hands it to the shard that owns `msg.dst` (DESIGN.md §14). The owner
/// schedules it verbatim via Transport::inject_delivery — no re-draws, so
/// the delivery is bit-identical to the one the serial run would have made.
struct PendingDelivery {
  SimTime at;
  std::uint64_t tie;
  Message msg;
  std::size_t bytes;
};

/// Contiguous partition of the process space [0, n) into K shards.
///
/// Shards are contiguous pid ranges — the world builders assign pids in
/// spatial order (door k owns pid k+1), so contiguity is spatial locality —
/// and each of the K-1 boundaries is placed greedily: it starts at the
/// balanced position k·n/K and slides within a ±n/(4K) slack window to the
/// candidate crossed by the fewest overlay edges (first minimum wins, so the
/// result is deterministic). Balance is preserved to within the slack;
/// lookup is a dense O(1) table.
class ShardMap {
 public:
  /// Partitions `overlay`'s pid space into `shards` contiguous ranges
  /// (1 <= shards <= overlay.size()).
  static ShardMap partition(const Overlay& overlay, std::size_t shards);

  std::size_t num_shards() const { return starts_.size() - 1; }
  /// Total processes partitioned (the overlay size).
  std::size_t size() const { return shard_of_.size(); }
  std::size_t shard_of(ProcessId pid) const { return shard_of_[pid]; }
  /// Shard k owns pids [begin(k), end(k)).
  ProcessId begin(std::size_t shard) const { return starts_[shard]; }
  ProcessId end(std::size_t shard) const { return starts_[shard + 1]; }

 private:
  ShardMap() = default;

  std::vector<ProcessId> starts_;  ///< K+1 fence posts; [0]=0, [K]=n
  std::vector<std::uint32_t> shard_of_;  ///< dense pid -> shard table
};

}  // namespace psn::net
