#pragma once

#include <cstdint>
#include <memory_resource>
#include <optional>
#include <unordered_map>
#include <vector>

#include "check/check.hpp"
#include "clocks/timestamp.hpp"
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
/// There is one happens-before replay. The trace records drive every edge
/// — sense/send entries keyed by seq, receive and deliver matching, drop
/// release, the retention window, validity horizons and the fault replay —
/// whether or not claimed executions are bound. Bound executions only add
/// the clock-claim contracts on top: each record steps its process's
/// execution to the event it names and fills the oracle stamps into the
/// entry the record made.
///
/// `check_run` is a thin loop over this class, so batch and streaming
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

  /// Claimed per-process local executions, read where they live (indexed
  /// by pid; nullptr = no events, as for the root), consumed in lockstep
  /// with the trace. They add the clock-claim contracts of DESIGN.md §10
  /// (lamport, vector, strobe, soundness, epsilon, drift) to the replay the
  /// trace drives on its own. Empty — *trace-only mode*, the wire's:
  /// hb-graph, validity-horizon and fault-model then run exactly as they
  /// do when bound. The pointees must outlive the checker. They may grow
  /// while it runs, as a live run's do: a record is fed only once its
  /// process's events up to the record's instant are in place.
  BoundExecutions executions;

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

  /// Send/sense entries currently retained awaiting a match — the streaming
  /// working set. Bounded by traffic in flight when send_retention is
  /// finite; the 10^6-record soak test pins this.
  std::size_t pending_sends() const {
    return comp_sent_.size() + strobe_sent_.size();
  }
  /// kStaleObservation count so far (the validity-horizon contract).
  std::size_t stale_observations() const {
    return validity_.violations_total;
  }

 private:
  /// The entry a send or sense record makes under its seq. Bound mode
  /// fills the stamps from the claimed execution: for a computation message
  /// the claimed Lamport value the receiver must exceed and the sender's
  /// oracle vector; for a strobe broadcast the SSC1/SVC1 replay stamps.
  /// Trace-only entries leave them empty.
  struct Sent {
    std::uint64_t scalar = 0;
    clocks::VectorStamp vector;
    SimTime at;  ///< the record's time
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

  bool bound() const { return !cfg_.executions.empty(); }
  /// Process p's claimed execution (empty if none was bound for it).
  const std::vector<core::ProcessEvent>& events(ProcessId p) const;
  void add(ContractResult& c, CheckViolation v);
  bool admit(const sim::TraceRecord& r);
  Sent& remember(const sim::TraceRecord& r, bool strobe);
  void on_fault_record(const sim::TraceRecord& r);
  void check_down_activity(const sim::TraceRecord& r);
  void advance(const sim::TraceRecord& r, core::EventType type, Sent* entry);
  void catch_up(ProcessId p, std::size_t end);
  void consume_one(ProcessId p, Sent* entry, bool synced_with_trace);
  void check_lamport_program_order(ProcessId p, const core::ProcessEvent& e);
  void check_physical(ProcessId p, const core::ProcessEvent& e);
  void check_validity(const sim::TraceRecord& r, SimTime sensed_at);
  void evict_expired(SimTime now);
  void scan_soundness();

  StreamCheckerConfig cfg_;
  std::vector<OracleState> states_;
  /// Eviction queue entry: (entry time, seq, is_strobe) in feed order.
  /// Entries whose seq was already matched away are skipped lazily.
  struct PendingEntry {
    SimTime at;
    std::uint64_t seq = 0;
    bool strobe = false;
  };
  /// FIFO of PendingEntry on one ring that doubles when full, so it
  /// allocates only when the number of queued entries reaches a new high.
  /// A deque would also take a new block whenever the same number of
  /// entries straddles one more block boundary than before.
  class PendingQueue {
   public:
    bool empty() const { return size_ == 0; }
    const PendingEntry& front() const { return ring_[head_]; }
    void pop_front() {
      head_ = (head_ + 1) & (ring_.size() - 1);
      size_--;
    }
    void push_back(const PendingEntry& e) {
      if (size_ == ring_.size()) grow();
      ring_[(head_ + size_) & (ring_.size() - 1)] = e;
      size_++;
    }

   private:
    void grow();
    std::vector<PendingEntry> ring_;  ///< size 0 or a power of two
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };
  /// Pool backing the send maps below. Declared before them (members
  /// destroy in reverse order, and the maps hand their nodes back to the
  /// pool as they die). With it and the ring above, steady-state feed in
  /// trace-only mode performs zero global allocations per record once the
  /// in-flight window has peaked — pinned by the alloc-guard suite
  /// (`ctest -L lint`).
  std::pmr::unsynchronized_pool_resource pool_;
  using SeqMap = std::pmr::unordered_map<std::uint64_t, Sent>;
  SeqMap comp_sent_;
  SeqMap strobe_sent_;
  PendingQueue pending_order_;
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
  /// First violation witnessed by the in-flight feed() call, for its return.
  std::optional<CheckViolation> feed_violation_;
  bool in_feed_ = false;
};

}  // namespace psn::check
