#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "clocks/physical.hpp"
#include "common/sim_time.hpp"
#include "common/types.hpp"
#include "core/event.hpp"
#include "core/observation.hpp"
#include "sim/fault.hpp"
#include "sim/trace.hpp"

namespace psn::core {
class ShardedPervasiveSystem;
}  // namespace psn::core

/// psn::check — the causality & clock-contract checker (DESIGN.md §10).
///
/// Reconstructs ground-truth happens-before from a run's event trace
/// (program order + send→receive edges, maintained as oracle vector
/// timestamps) and replays every clock in the bundle against its formal
/// contract:
///
///   lamport          e → f  ⇒  C(e) < C(f)            (Lamport clock condition)
///   vector           e → f  ⇔  V(e) < V(f)            (Mattern/Fidge VC1–VC3)
///   strobe-scalar    exact SSC1–SSC2 replay            (Kshemkalyani strobes)
///   strobe-vector    exact SVC1–SVC2 replay
///   strobe-soundness V(a) < V(b) ⇒ true(a) ≤ true(b)  (partial-order soundness)
///   physical-epsilon |synced(e) − true(e)| ≤ ε         (sync-service bound)
///   physical-drift   |local(e) − true(e)| within the analytic drift envelope
///
/// An optimization that silently breaks causality tracking turns every
/// affected run red instead of shipping green — the repo's correctness floor.
namespace psn::check {

enum class ViolationKind : std::uint8_t {
  kUnmatchedSend,     ///< traced send/sense with no matching execution event
  kUnmatchedReceive,  ///< receive with no matching send (dropped HB edge)
  kUnmatchedDeliver,  ///< strobe delivery whose originating sense is unknown
  kUntracedEvent,     ///< execution event the (complete) trace never saw
  kLamportOrder,      ///< C not strictly increasing along an HB edge
  kVectorMismatch,    ///< claimed causal vector ≠ oracle vector timestamp
  kStrobeScalarMismatch,  ///< claimed strobe scalar ≠ SSC replay
  kStrobeVectorMismatch,  ///< claimed strobe vector ≠ SVC replay
  kStrobeUnsoundOrder,    ///< strobe order contradicts true-time order
  kEpsilonBound,          ///< ε-synchronized reading out of bound
  kDriftBound,            ///< local clock outside its drift envelope
  kUnexplainedFalsePositive,  ///< detector FP no race/fault/horizon explains
  kUnexplainedFalseNegative,  ///< detector FN no race/fault/horizon explains
  kStaleObservation,  ///< observation delivered after its validity horizon
  kFaultPairing,      ///< malformed crash/restart or partition/heal pairing
  kActivityWhileDown,  ///< activity from (or delivery to) a crashed process
  kRaceScanTruncated,  ///< detector error past a race scan cut at kMaxRaces
};

const char* to_string(ViolationKind k);

/// One concrete contract violation, pinned to the event (pid, local_index)
/// and/or message (seq) that witnessed it.
struct CheckViolation {
  ViolationKind kind = ViolationKind::kUnmatchedSend;
  ProcessId pid = kNoProcess;
  std::size_t local_index = 0;  ///< offending event in pid's execution (0 = n/a)
  std::uint64_t seq = 0;        ///< message involved (0 = n/a)
  SimTime at;                   ///< true time of the witness
  std::string detail;           ///< human-readable expectation vs. actual
};

/// Outcome of one contract across the whole run. `violations` keeps the
/// first CheckOptions::max_recorded_violations witnesses; `violations_total`
/// keeps counting past the cap.
struct ContractResult {
  std::string contract;
  std::size_t events_checked = 0;
  std::size_t pairs_checked = 0;  ///< pairwise scans only
  std::size_t violations_total = 0;
  std::vector<CheckViolation> violations;
};

enum class Verdict : std::uint8_t {
  kClean,       ///< every contract checked, zero violations
  kViolations,  ///< at least one contract violated
};

const char* to_string(Verdict v);

struct CheckReport {
  Verdict verdict = Verdict::kClean;
  /// Always 0: a trace is never truncated. Inert, read by bench/suite,
  /// dropped by ROADMAP item 4.
  std::size_t trace_evicted = 0;
  std::vector<ContractResult> contracts;

  bool clean() const { return verdict == Verdict::kClean; }
  std::size_t total_violations() const;
  /// The named contract's result, or nullptr if it was not part of the run.
  const ContractResult* contract(std::string_view name) const;
  /// Appends another contract result (used by the race-audit layer) and
  /// downgrades the verdict if it carries violations.
  void add_contract(ContractResult result);
  /// Multi-line human-readable report (psn_cli --check prints this).
  std::string summary() const;
};

/// Strobe-soundness pairwise scan: if the run has more sense events than
/// this, a deterministic stride-sample of this size is scanned instead.
inline constexpr std::size_t kMaxPairwiseEvents = 1500;

struct CheckOptions {
  /// Violation witnesses kept per contract; counting continues past the cap.
  std::size_t max_recorded_violations = 16;
  /// Temporal-validity policy for observations: a strobe delivered more than
  /// this after its sense violates the Kopetz-Steiner validity interval
  /// (kStaleObservation under the "validity-horizon" contract). Unbounded by
  /// default, which keeps the report shape byte-identical to the original.
  core::ValidityHorizon validity_horizon;
  /// The run's declared fault schedule (DESIGN.md §15), if any. The
  /// physical-drift contract then subtracts the schedule's deterministic
  /// injected offset before testing the envelope — declared clock faults
  /// are compensated exactly, never excused by widening the bound. Must
  /// outlive the check. nullptr = no declared faults.
  const sim::FaultSchedule* faults = nullptr;
};

/// Per-process local executions a checker reads where they live, indexed
/// by pid; nullptr = a process with no recorded events (the root).
using BoundExecutions = std::vector<const std::vector<core::ProcessEvent>*>;

/// Binds `executions` (one entry per pid) without copying an event.
BoundExecutions bind_executions(
    const std::vector<std::vector<core::ProcessEvent>>& executions);
/// Binds a system's sensor executions where the sensors keep them, so a
/// checker can follow a run while it executes; the root's entry is nullptr.
BoundExecutions bind_executions(const core::ShardedPervasiveSystem& system);

/// Everything the checker needs from one finished run. Synthesize (and
/// corrupt) these directly in mutation tests; `inputs_from` extracts them
/// from a core::ShardedPervasiveSystem.
struct RunInputs {
  std::size_t num_processes = 0;  ///< including the root P_0
  Duration sync_epsilon = Duration::zero();
  clocks::DriftingClockConfig drifting;  ///< for the drift envelope
  /// Per-process local executions, indexed by pid (the root's is empty).
  std::vector<std::vector<core::ProcessEvent>> executions;
  std::vector<sim::TraceRecord> trace;
  /// Always 0 and never read: a trace is never truncated. Inert, read by
  /// bench/suite, dropped by ROADMAP item 4.
  std::size_t trace_evicted = 0;
};

/// Runs every contract check over one run. Throws ConfigError on
/// structurally unusable inputs (no processes or executions/pid mismatch).
CheckReport check_run(const RunInputs& inputs, const CheckOptions& options = {});

/// Extracts RunInputs from a finished run of a core::ShardedPervasiveSystem
/// at any shard count. Requires tracing to have been enabled
/// (SimConfig::trace_capacity > 0). `trace` is the system's trace_records():
/// the whole canonical trace, the fault plan's records included. It is
/// taken by rvalue so the trace moves in; a caller that still needs it
/// moves it back out of RunInputs::trace after check_run.
RunInputs inputs_from(const core::ShardedPervasiveSystem& system,
                      std::vector<sim::TraceRecord>&& trace);

}  // namespace psn::check
