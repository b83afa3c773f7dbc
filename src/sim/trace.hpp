#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "common/name.hpp"
#include "common/sim_time.hpp"
#include "common/types.hpp"

namespace psn::sim {

/// Observable moments in a run's life that the trace records. The network
/// records come from the transport, kSense/kReceive from the process event
/// rules, kDetect from the detectors' transition streams.
enum class TraceKind : std::uint8_t {
  kSense,        ///< n event: a sensor observed a world change
  kSend,         ///< a message left its source (radio keyed up)
  kReceive,      ///< r event: a computation message was processed
  kDeliver,      ///< the transport handed a message to its destination
  kDrop,         ///< the loss model ate a transmission
  kUnreachable,  ///< no overlay path to the destination; never transmitted
  kDetect,       ///< a detector reported a predicate transition
  kCrash,        ///< fault plan: the process went down (sim/fault)
  kRestart,      ///< fault plan: the process came back up
  kPartition,    ///< fault plan: overlay edge pid–peer was cut
  kHeal,         ///< fault plan: overlay edge pid–peer was restored
};

const char* to_string(TraceKind k);

/// One trace record. `message_kind` is the numeric net::MessageKind for
/// message records and -1 otherwise (the sim layer cannot name net types —
/// exporters translate). `bytes` is the on-the-wire size charged by the
/// transport's active clock mode, so summing kSend bytes per message kind
/// reproduces MessageStats exactly. The record is a 40-byte trivially
/// copyable value: an exported trace keeps every record of the run, and
/// moving, sorting and freeing them is then plain memory traffic.
struct TraceRecord {
  SimTime at;
  TraceKind kind = TraceKind::kSense;
  ProcessId pid = kNoProcess;   ///< acting process
  ProcessId peer = kNoProcess;  ///< other endpoint, if any
  int message_kind = -1;
  std::uint32_t bytes = 0;
  /// Attribute on kSense, "<detector>:true|false" on kDetect, the cause on
  /// a kDrop/kUnreachable lost to a fault.
  Name note;
  /// net::Message::seq of the message involved (0 = none). Send/deliver/drop
  /// records of one message share it; kSense carries the seq of the strobe
  /// broadcast the sense triggered, kReceive the seq of the computation
  /// message processed. psn::check keys its happens-before edges on it.
  std::uint64_t seq = 0;
};
static_assert(std::is_trivially_copyable_v<TraceRecord>);
static_assert(sizeof(TraceRecord) == 40);

/// Sorts `records` into the canonical co-instant order shared by every
/// shard layout (DESIGN.md §14). Records are keyed by
/// (at, seq, group, peer, pid, kind) where the group ranks a message's
/// lifecycle within one instant: send/drop/unreachable, then the sense that
/// produced the message, then delivery, then receive processing. Each
/// message's lifecycle order (send before deliver before receive; sense
/// between the fan-out and its deliveries) is preserved, so a canonical
/// trace replays cleanly through psn::check. Both the serial (1-shard) path
/// and the K-shard merge apply this sort, which is what makes the emitted
/// JSONL byte-identical across layouts. kDetect records sort last at their
/// instant; callers that append them after a post-run detector pass need
/// not re-sort.
///
/// The result is exactly the permutation std::stable_sort on the key gives,
/// for any input. The work is linear on what the recorders produce: every
/// ring is nondecreasing in `at` (each record is stamped with its shard's
/// current time), so the sort finds the maximal nondecreasing runs, merges
/// them pairwise with a stable merge on `at` alone, and then sorts only the
/// equal-`at` buckets that are not already in key order. Input with no run
/// structure still sorts in O(n log n).
///
/// The key leads with `at`, so sorting the records of [t0, t1) and those of
/// [t1, t2) separately and concatenating the two gives what one sort of
/// the union gives: that is what lets a run stream its trace window by
/// window (core::ShardedPervasiveSystem::stream_trace).
void canonical_trace_order(std::vector<TraceRecord>& records);

/// Bounded ring buffer of TraceRecords: when full, the oldest record is
/// evicted, so memory is capped no matter how long the run is. `evicted()`
/// says whether the retained window is complete — any analysis that needs
/// totals (e.g. reconciling byte counts against MessageStats) must check it.
///
/// A recorder given a drain hook (drain_when_full) is a streaming buffer
/// instead: when full it calls the hook, which moves the final records out
/// with drain_before(), and it never evicts.
class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity);

  /// Inline, so a caller builds the record in the ring slot itself: passed
  /// through the stack, its field-wise stores would be read back by wider
  /// loads, which defeats store-to-load forwarding.
  void record(const TraceRecord& r) {
    if (ring_.size() < capacity_) {
      ring_.push_back(r);
    } else {
      on_full(r);
    }
  }
  /// Pre-sizes the ring for `records` records (capped at the capacity), so
  /// a run whose volume is known up front never grows it by doubling.
  void reserve(std::size_t records);

  /// Records currently retained (≤ capacity).
  std::size_t size() const { return ring_.size(); }
  /// Records the ring overwrote. Unchanged by take().
  std::size_t evicted() const { return evicted_; }

  /// Moves the retained records out, oldest first, without copying one: a
  /// wrapped ring is rotated in place first. The ring is left empty (same
  /// capacity), while evicted() keeps describing the run.
  std::vector<TraceRecord> take();

  /// Makes a full recorder call `drain` instead of evicting its oldest
  /// record. `drain` should move records out with drain_before(); when it
  /// leaves the buffer over half full (one instant holds that many
  /// records), the capacity doubles, so such an instant costs amortized
  /// O(1) per record rather than one drain per record.
  void drain_when_full(std::function<void()> drain);

  /// Appends the records stamped before `cut` to `out`, in record order,
  /// and removes them; later records stay. The records must be
  /// nondecreasing in `at` (each is stamped with its simulation's current
  /// time) and none may have been evicted.
  void drain_before(SimTime cut, std::vector<TraceRecord>& out);

 private:
  void on_full(const TraceRecord& r);

  std::size_t capacity_;
  std::vector<TraceRecord> ring_;
  std::size_t head_ = 0;  ///< next slot to overwrite once the ring is full
  std::size_t evicted_ = 0;
  std::function<void()> drain_;  ///< set: stream instead of evicting
};

}  // namespace psn::sim
