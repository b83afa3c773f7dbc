#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.hpp"
#include "common/types.hpp"
#include "sim/trace.hpp"

namespace psn::sim {

/// A process crash/restart interval: `pid` is down over [begin, end) — it
/// stops sensing, sends nothing, and every delivery addressed to it is
/// dropped. On restart (at `end`) the node resumes with whatever clock state
/// it had; the next strobe it receives re-syncs it, and its stale detector
/// entries age out via the validity horizon (DESIGN.md §15).
struct CrashWindow {
  ProcessId pid = kNoProcess;
  SimTime begin;
  SimTime end;
};

/// An overlay partition interval: the edge {a, b} is cut over [begin, end)
/// and healed at `end`. Every transition bumps the partition epoch, and each
/// transport replays transitions lazily into its cut mask, which routes
/// around the cut edges of the one shared, immutable overlay.
struct PartitionWindow {
  ProcessId a = kNoProcess;
  ProcessId b = kNoProcess;
  SimTime begin;
  SimTime end;
};

/// A clock-fault interval for physical mode: `pid`'s drifting clock gains an
/// extra `extra_drift_ppm` over [begin, end). The injected offset is a pure
/// function of (pid, t), so the checker compensates for declared faults
/// exactly instead of widening its drift envelope.
struct ClockFaultWindow {
  ProcessId pid = kNoProcess;
  SimTime begin;
  SimTime end;
  std::int64_t extra_drift_ppm = 0;
};

/// A config-derived fault plan: no RNG, no hidden state — the schedule is
/// the same pure data in every shard at every thread count, which is what
/// keeps faulty runs byte-identical across layouts.
struct FaultPlan {
  std::vector<CrashWindow> crashes;
  std::vector<PartitionWindow> partitions;
  std::vector<ClockFaultWindow> clock_faults;

  bool empty() const {
    return crashes.empty() && partitions.empty() && clock_faults.empty();
  }
};

/// Parses the CLI fault grammar: `;`-separated clauses, each one of
///   crash:<pid>@<begin_s>+<dur_s>
///   cut:<a>-<b>@<begin_s>+<dur_s>
///   drift:<pid>@<begin_s>+<dur_s>:<ppm>
/// Times are decimal seconds; ppm is a signed integer. Throws ConfigError
/// on malformed input. An empty spec yields an empty plan.
FaultPlan parse_fault_plan(const std::string& spec);

/// One edge cut or heal on the partition timeline, in time order.
struct PartitionTransition {
  SimTime at;
  ProcessId a = kNoProcess;
  ProcessId b = kNoProcess;
  bool cut = false;  ///< true = cut the edge, false = heal it
};

/// A validated, query-optimized compilation of a FaultPlan. All queries are
/// pure functions of (id, time), allocation-free, and shared by every shard:
/// fault decisions made at send time depend only on the schedule and the
/// message, never on shard layout.
class FaultSchedule {
 public:
  /// Validates and compiles. Rejects: crash of process 0 (the root/back-end
  /// is mains-powered by convention), empty or inverted windows,
  /// overlapping crash windows on one pid, overlapping cut windows on one
  /// edge, self-loop cuts, and zero drift clauses.
  explicit FaultSchedule(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  /// True iff `pid` is inside one of its crash windows at `t`.
  bool down(ProcessId pid, SimTime t) const;

  /// The deterministic extra clock offset `pid` has accumulated by `t` from
  /// its clock-fault windows: sum over windows of ppm * 1e-6 * overlap.
  Duration drift_offset(ProcessId pid, SimTime t) const;

  /// Edge cut/heal events sorted by (at, a, b, cut); `partition_epoch(t)` is
  /// the number of transitions with at <= t. A transport replays
  /// transitions[applied..epoch) into its cut mask before routing, so routes
  /// change exactly at window boundaries.
  const std::vector<PartitionTransition>& partition_transitions() const {
    return transitions_;
  }
  std::size_t partition_epoch(SimTime t) const;

  /// Appends one trace record per fault transition at `from <= at <
  /// until`: kCrash/kRestart for crash windows (pid = the node),
  /// kPartition/kHeal for cut windows (pid = a, peer = b). A run passes
  /// `until` at most one tick past its horizon, so restart/heal records
  /// past the horizon are omitted — the run ended with the fault still
  /// active. Records carry seq 0, so the canonical order places them ahead
  /// of every message record at their instant.
  void append_trace_records(std::vector<TraceRecord>& out, SimTime from,
                            SimTime until) const;

 private:
  FaultPlan plan_;
  /// plan_.crashes sorted by (pid, begin) for binary search in down().
  std::vector<CrashWindow> crashes_by_pid_;
  std::vector<PartitionTransition> transitions_;
};

}  // namespace psn::sim
