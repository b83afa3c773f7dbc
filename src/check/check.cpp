#include "check/check.hpp"

#include <utility>

#include "check/stream_checker.hpp"
#include "common/error.hpp"
#include "core/sharded_system.hpp"

namespace psn::check {

const char* to_string(ViolationKind k) {
  switch (k) {
    case ViolationKind::kUnmatchedSend: return "unmatched-send";
    case ViolationKind::kUnmatchedReceive: return "unmatched-receive";
    case ViolationKind::kUnmatchedDeliver: return "unmatched-deliver";
    case ViolationKind::kUntracedEvent: return "untraced-event";
    case ViolationKind::kLamportOrder: return "lamport-order";
    case ViolationKind::kVectorMismatch: return "vector-mismatch";
    case ViolationKind::kStrobeScalarMismatch: return "strobe-scalar-mismatch";
    case ViolationKind::kStrobeVectorMismatch: return "strobe-vector-mismatch";
    case ViolationKind::kStrobeUnsoundOrder: return "strobe-unsound-order";
    case ViolationKind::kEpsilonBound: return "epsilon-bound";
    case ViolationKind::kDriftBound: return "drift-bound";
    case ViolationKind::kUnexplainedFalsePositive:
      return "unexplained-false-positive";
    case ViolationKind::kUnexplainedFalseNegative:
      return "unexplained-false-negative";
    case ViolationKind::kStaleObservation: return "stale-observation";
    case ViolationKind::kFaultPairing: return "fault-pairing";
    case ViolationKind::kActivityWhileDown: return "activity-while-down";
    case ViolationKind::kRaceScanTruncated: return "race-scan-truncated";
  }
  return "?";
}

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kClean: return "clean";
    case Verdict::kViolations: return "violations";
  }
  return "?";
}

std::size_t CheckReport::total_violations() const {
  std::size_t n = 0;
  for (const auto& c : contracts) n += c.violations_total;
  return n;
}

const ContractResult* CheckReport::contract(std::string_view name) const {
  for (const auto& c : contracts) {
    if (c.contract == name) return &c;
  }
  return nullptr;
}

void CheckReport::add_contract(ContractResult result) {
  if (result.violations_total > 0) verdict = Verdict::kViolations;
  contracts.push_back(std::move(result));
}

std::string CheckReport::summary() const {
  std::string out = "psn-check verdict: ";
  out += to_string(verdict);
  out += " (" + std::to_string(total_violations()) + " violation(s))\n";
  for (const auto& c : contracts) {
    out += "  " + c.contract + ": ";
    out += std::to_string(c.events_checked) + " event(s)";
    if (c.pairs_checked > 0) {
      out += ", " + std::to_string(c.pairs_checked) + " pair(s)";
    }
    out += ", " + std::to_string(c.violations_total) + " violation(s)\n";
    for (const auto& v : c.violations) {
      out += "    [";
      out += to_string(v.kind);
      out += "] ";
      // A witness of no process (the race audit's) has no event or seq
      // either; its detail names the detector.
      if (v.pid != kNoProcess) {
        out += "pid ";
        out += std::to_string(v.pid);
        out += " event ";
        out += std::to_string(v.local_index);
        out += " seq ";
        out += std::to_string(v.seq);
        out += ' ';
      }
      out += '@';
      out += std::to_string(v.at.to_seconds());
      out += "s: ";
      out += v.detail;
      out += '\n';
    }
  }
  return out;
}

// The batch checker is a thin loop over the incremental StreamChecker
// (stream_checker.cpp holds the actual oracle replay) with unbounded
// send_retention, so batch and streaming reports are byte-identical by
// construction — the equivalence test pins this.
CheckReport check_run(const RunInputs& inputs, const CheckOptions& options) {
  if (inputs.num_processes == 0) {
    throw ConfigError("psn::check: num_processes must be >= 1");
  }
  if (inputs.executions.size() != inputs.num_processes) {
    throw ConfigError(
        "psn::check: executions must have one entry per process (got " +
        std::to_string(inputs.executions.size()) + ", want " +
        std::to_string(inputs.num_processes) + ")");
  }
  if (inputs.trace_evicted > 0) {
    throw TraceWindowError(
        "psn::check: trace ring evicted " +
        std::to_string(inputs.trace_evicted) +
        " record(s); the happens-before oracle needs the complete window. "
        "Raise trace_capacity, or stream records through "
        "check::StreamChecker (psn_cli serve), which needs no ring.");
  }

  StreamCheckerConfig cfg;
  cfg.num_processes = inputs.num_processes;
  cfg.sync_epsilon = inputs.sync_epsilon;
  cfg.drifting = inputs.drifting;
  cfg.options = options;
  cfg.executions = bind_executions(inputs.executions);
  StreamChecker checker(cfg);
  for (const sim::TraceRecord& r : inputs.trace) checker.feed(r);
  return checker.finish();
}

BoundExecutions bind_executions(
    const std::vector<std::vector<core::ProcessEvent>>& executions) {
  BoundExecutions out;
  out.reserve(executions.size());
  for (const auto& e : executions) out.push_back(&e);
  return out;
}

BoundExecutions bind_executions(const core::ShardedPervasiveSystem& system) {
  BoundExecutions out{nullptr};  // the root P_0 records no events
  const auto sensors = system.sensor_executions();
  out.insert(out.end(), sensors.begin(), sensors.end());
  return out;
}

RunInputs inputs_from(const core::ShardedPervasiveSystem& system,
                      std::vector<sim::TraceRecord>&& trace) {
  const core::SystemConfig& cfg = system.config().base;
  if (cfg.sim.trace_capacity == 0) {
    throw ConfigError(
        "psn::check: tracing was off for this run; set "
        "SimConfig::trace_capacity > 0 and rerun");
  }
  RunInputs in;
  in.num_processes = system.num_processes();
  in.sync_epsilon = cfg.clock_config.sync_epsilon;
  in.drifting = cfg.clock_config.drifting;
  in.executions.resize(in.num_processes);  // the root's stays empty
  const auto executions = system.sensor_executions();
  for (ProcessId p = 1; p < in.num_processes; ++p) {
    in.executions[p] = *executions[p - 1];
  }
  in.trace = std::move(trace);
  in.trace_evicted = system.trace_evicted();
  return in;
}

}  // namespace psn::check
