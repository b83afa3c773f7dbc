#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "check/check.hpp"
#include "clocks/timestamp.hpp"
#include "common/pool_alloc.hpp"
#include "common/sim_time.hpp"
#include "common/types.hpp"
#include "core/event.hpp"
#include "sim/trace.hpp"

/// psn::check::StreamChecker — the incremental form of the causality &
/// clock-contract checker (DESIGN.md §12).
///
/// The batch `check_run` demands a complete, finished RunInputs; the paper's
/// execution model is online. StreamChecker is the same oracle turned into a
/// feed state machine: trace records go in one at a time (in trace order),
/// violations come out as they are witnessed, and the retained state is a
/// per-process frontier plus a window of not-yet-matched send entries —
/// matched entries are evicted immediately, expired ones when the configured
/// retention window passes them. Memory is therefore bounded by the traffic
/// in flight, not by the length of the stream, and the trace ring's
/// evicted-window refusal disappears: feed records as they happen and no
/// ring is needed at all.
///
/// `check_run` is now a thin loop over this class, so batch and streaming
/// verdicts are identical by construction (and pinned by test).
namespace psn::check {

struct StreamCheckerConfig {
  /// Process count including the root P_0. 0 is allowed in trace-only mode
  /// and disables pid-range checking (useful when a server joins a stream
  /// whose topology it does not know).
  std::size_t num_processes = 0;
  Duration sync_epsilon = Duration::zero();
  clocks::DriftingClockConfig drifting;  ///< for the drift envelope
  CheckOptions options;

  /// Claimed per-process local executions (indexed by pid; the root's entry
  /// empty), consumed in lockstep with the trace — the full clock-contract
  /// replay of DESIGN.md §10. May be nullptr: *trace-only mode*, where only
  /// the contracts derivable from the wire records run (send/receive and
  /// sense/deliver matching, validity horizons). The pointee must outlive
  /// the checker.
  const std::vector<std::vector<core::ProcessEvent>>* executions = nullptr;

  /// Unmatched send entries older than this (against the fed record clock)
  /// are evicted — the Δ-window of the paper's bounded-delay model: a
  /// message older than the end-to-end Δ bound can never be delivered, so a
  /// retention of Δ plus slack loses nothing on a conforming stream.
  /// Duration::max() retains entries until matched, which is the exact batch
  /// semantics `check_run` relies on for byte-identical reports.
  Duration send_retention = Duration::max();
};

class StreamChecker {
 public:
  explicit StreamChecker(const StreamCheckerConfig& config);

  /// Consumes one trace record (records must arrive in trace order). Returns
  /// the first violation this record witnessed, if any; every violation is
  /// also accumulated into the final report regardless of the return value.
  std::optional<CheckViolation> feed(const sim::TraceRecord& record);

  /// Drains trailing execution events past the last trace record, runs the
  /// pairwise strobe-soundness scan, and assembles the report. The checker
  /// is spent afterwards.
  CheckReport finish();

  std::size_t records_fed() const { return records_fed_; }
  /// Send/sense entries currently retained awaiting a match — the streaming
  /// working set. Bounded by traffic in flight when send_retention is
  /// finite; the 10^6-record soak test pins this.
  std::size_t pending_sends() const {
    return comp_sent_.size() + strobe_sent_.size();
  }
  /// Violations recorded so far across all contracts (witness caps do not
  /// stop the count).
  std::size_t violations_so_far() const;
  /// kStaleObservation count so far (the validity-horizon contract).
  std::size_t stale_observations() const {
    return validity_.violations_total;
  }

 private:
  /// Oracle stamps of a computation message at its send event, plus the
  /// claimed Lamport value the receiver must exceed.
  struct SentComputation {
    clocks::VectorStamp oracle_vc;
    std::uint64_t claimed_lamport = 0;
    SimTime sent_at;
  };

  /// Oracle strobe stamps broadcast by a sense event (SSC1/SVC1 output).
  struct SentStrobe {
    std::uint64_t scalar = 0;
    clocks::VectorStamp vector;
    SimTime sensed_at;
  };

  /// Claimed strobe vector of one sense event, for the pairwise scan.
  struct SenseSample {
    SimTime at;
    ProcessId pid = kNoProcess;
    std::size_t local_index = 0;
    clocks::VectorStamp strobe;
  };

  /// Per-process oracle state maintained by the replay — the frontier.
  struct OracleState {
    clocks::VectorStamp causal_vc;    ///< ground-truth vector timestamp
    std::uint64_t lamport_floor = 0;  ///< claimed Lamport of the prior event
    std::uint64_t strobe_scalar = 0;  ///< SSC replay value
    clocks::VectorStamp strobe_vc;    ///< SVC replay vector
    std::size_t cursor = 0;           ///< next unconsumed execution event
  };

  bool bound() const { return executions_ != nullptr; }
  void add(ContractResult& c, CheckViolation v);
  void on_fault_record(const sim::TraceRecord& r);
  void check_down_activity(const sim::TraceRecord& r);
  void consume_target(ProcessId p, core::EventType type, std::uint64_t seq,
                      const sim::TraceRecord& r);
  void consume_one(ProcessId p, bool synced_with_trace);
  void on_strobe_delivery(const sim::TraceRecord& r);
  void check_lamport_program_order(ProcessId p, const core::ProcessEvent& e);
  void check_physical(ProcessId p, const core::ProcessEvent& e);
  void check_validity(const sim::TraceRecord& r, SimTime sensed_at);
  void evict_expired(SimTime now);
  void scan_soundness();

  StreamCheckerConfig cfg_;
  const std::vector<std::vector<core::ProcessEvent>>* executions_ = nullptr;
  std::vector<OracleState> states_;
  /// Eviction queue entry: (entry time, seq, is_strobe) in feed order.
  /// Entries whose seq was already matched away are skipped lazily.
  struct PendingEntry {
    SimTime at;
    std::uint64_t seq = 0;
    bool strobe = false;
  };
  /// Recycling arena backing the streaming working set below. Declared
  /// before the containers (members destroy in reverse order, and the
  /// containers hand their nodes back to the arena as they die). With it,
  /// steady-state feed in trace-only mode performs zero global allocations
  /// per record once the in-flight window has peaked — pinned by the
  /// alloc-guard suite (`ctest -L lint`).
  PoolArena arena_;
  template <typename V>
  using SeqMap =
      std::unordered_map<std::uint64_t, V, std::hash<std::uint64_t>,
                         std::equal_to<std::uint64_t>,
                         PoolAllocator<std::pair<const std::uint64_t, V>>>;
  SeqMap<SentComputation> comp_sent_;
  SeqMap<SentStrobe> strobe_sent_;
  std::deque<PendingEntry, PoolAllocator<PendingEntry>> pending_order_;
  std::vector<SenseSample> senses_;
  ContractResult hb_, lamport_, vector_, strobe_scalar_, strobe_vector_,
      soundness_, epsilon_, drift_, validity_, fault_;
  /// Crash/partition replay driven by the stream's fault records: which
  /// processes are currently down and which overlay edges are cut. The
  /// fault-model contract only joins the report once a fault record has
  /// been seen, so fault-free reports keep their pinned shape.
  bool saw_fault_records_ = false;
  std::vector<unsigned char> down_;
  std::vector<std::pair<ProcessId, ProcessId>> cut_edges_;
  std::size_t records_fed_ = 0;
  /// First violation witnessed by the in-flight feed() call, for its return.
  std::optional<CheckViolation> feed_violation_;
  bool in_feed_ = false;
};

}  // namespace psn::check
