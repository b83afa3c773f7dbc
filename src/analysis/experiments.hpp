#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/scoring.hpp"
#include "check/check.hpp"
#include "common/metrics.hpp"
#include "common/validated.hpp"
#include "core/system.hpp"
#include "net/transport.hpp"
#include "sim/fault.hpp"
#include "sim/trace.hpp"
#include "world/scenarios.hpp"

namespace psn::analysis {

/// The canonical experiment of the paper (§5 exhibition hall): d door
/// sensors, occupancy predicate Σ(entered_i − exited_i) > capacity, all four
/// online detectors scored against the oracle on the same run. Most benches
/// (E1, E2, E4, E6, E8, E9) are parameter sweeps over this.
struct OccupancyConfig {
  std::size_t doors = 2;
  int capacity = 200;
  /// Total people movements per second — the world-event rate λ the paper's
  /// viability condition compares against Δ.
  double movement_rate = 20.0;

  core::DelayKind delay_kind = core::DelayKind::kUniformBounded;
  Duration delta = Duration::millis(100);
  Duration sync_epsilon = Duration::micros(100);
  double loss_probability = 0.0;
  std::vector<net::ScheduledBurstLoss::Window> loss_windows;

  /// Optional Gilbert–Elliott burst-loss channel (stateful per transmission
  /// order; validate() rejects it with shards > 1 — use loss_windows for
  /// shard-stable bursts).
  std::optional<core::SystemConfig::GilbertElliottParams> gilbert_elliott;

  /// Deterministic fault plan (sim/fault, DESIGN.md §15): crash/restart
  /// windows, overlay partition windows, clock-fault drift spikes. The plan
  /// is validated against the topology when the system is built; every
  /// injected fault emits trace records, and with `check` on the audit
  /// attributes detector errors to the recorded faults.
  sim::FaultPlan faults;

  Duration horizon = Duration::seconds(60);
  std::uint64_t seed = 1;

  /// Optional receiver duty cycling for the door sensors (A3 ablation).
  std::optional<net::DutyCycle> duty_cycle;
  bool duty_phases_aligned = true;

  /// Clock mode charged on the wire (per-mode E7 byte accounting; see
  /// net::ClockMode). Detection always scores every model side by side.
  net::ClockMode clock_mode = net::ClockMode::kVectorStrobe;

  /// Kopetz-Steiner temporal validity horizon stamped on every observation
  /// (core::ValidityHorizon). Unbounded by default; when bounded, the
  /// incremental detector flags evaluations over expired state and the
  /// checker (config.check) runs the validity-horizon contract.
  core::ValidityHorizon validity_horizon;

  /// Event-trace ring capacity (records); 0 = tracing off. When on, the
  /// run's sense/send/receive/deliver/drop/detect records are returned in
  /// OccupancyRunResult::trace.
  std::size_t trace_capacity = 0;

  /// Runs the causality & clock-contract checker (check/check.hpp) over the
  /// finished run and, when the config admits it (lossless, Δ-bounded, no
  /// duty cycling), the Δ-race audit of every detector's errors. Tracing is
  /// required; if trace_capacity is 0 a default ring of 2^18 records is
  /// enabled. The report lands in OccupancyRunResult::check.
  bool check = false;

  /// Space partitions K for the sharded runner (DESIGN.md §14). Every run
  /// goes through core::ShardedPervasiveSystem; K = 1 is one shard with no
  /// window machinery (every delay kind works there). K > 1 needs a delay
  /// model with a positive minimum one-hop delay (kUniformBounded, kFixed)
  /// — validate() rejects the rest. Results are byte-identical at every K.
  std::size_t shards = 1;
  /// Worker threads for the per-window shard fan-out (1 = inline). Changes
  /// wall-clock time only, never results.
  std::size_t shard_threads = 1;
  /// Overlay topology. The city-scale scenario uses kStar (sensors report
  /// up to the mains-powered root).
  core::TopologyKind topology = core::TopologyKind::kComplete;
  /// Drops the O(n)-wide vector clocks (city scale: 10^5 processes make
  /// every snapshot O(n)). The strobe-vector detector is skipped — its
  /// stamps are inert — and combining with `check` is rejected (the checker
  /// replays vector stamps).
  bool lean_clocks = false;
  /// Sense reports go as one unicast to the root instead of the system-wide
  /// strobe broadcast (the city-scale star deployment; O(n) vs O(n^2)
  /// messages per world tick).
  bool unicast_reports = false;
  /// Per-channel FIFO (causal) delivery on the transport. Supported only
  /// unsharded; validate() rejects it with shards > 1.
  bool fifo_channels = false;

  /// Scoring tolerance; zero means "auto": 2Δ + 1 ms.
  Duration score_tolerance = Duration::zero();

  Duration effective_tolerance() const {
    if (score_tolerance > Duration::zero()) return score_tolerance;
    if (delta == Duration::max()) return Duration::seconds(2);
    return delta * 2 + Duration::millis(1);
  }
};

struct DetectorOutcome {
  std::string detector;
  std::vector<core::Detection> detections;
  DetectionScore score;
  /// Fraction of time the detector's belief matched ground truth
  /// (reaction-latency-charged).
  double belief_accuracy = 0.0;
};

struct OccupancyRunResult {
  core::OracleResult oracle;
  std::vector<DetectorOutcome> outcomes;
  net::MessageStats message_stats;
  std::size_t observed_updates = 0;
  std::size_t world_events = 0;
  Duration delta_bound;

  /// The run's metrics: the system's sim.*/net.* snapshot plus the
  /// harness's world.*, root.*, detector.* and check.* names (the sweep
  /// engine merges these per grid point, deterministically).
  MetricsSnapshot metrics;
  /// The run's event trace (empty unless config.trace_capacity > 0).
  std::vector<sim::TraceRecord> trace;
  /// Records the trace ring evicted; 0 means `trace` is complete.
  std::size_t trace_evicted = 0;

  /// Clock-contract + Δ-race-audit report (set iff config.check was on).
  std::optional<check::CheckReport> check;

  /// Δ-windows the sharded drive loop executed (0 when shards = 1).
  /// Diagnostics only — deliberately kept out of `metrics` so snapshots stay
  /// byte-identical across K.
  std::size_t shard_windows = 0;

  const DetectorOutcome& outcome(const std::string& detector) const;
};

/// Rejects nonsensical configs (zero doors, negative rates or capacity,
/// Δ ≤ 0 under the bounded-delay model, horizon ≤ 0, loss outside [0, 1],
/// degenerate duty cycles) with ConfigError. Found by ADL from
/// `Validated<OccupancyConfig>`, which is how experiment entry points check
/// configs exactly once at the boundary.
void validate(const OccupancyConfig& config);

/// Builds the hall system, runs it, runs every online detector over the
/// observation log, and scores each against the oracle.
OccupancyRunResult run_occupancy_experiment(
    const Validated<OccupancyConfig>& config);
/// Convenience overload: validates (throwing ConfigError) and runs.
OccupancyRunResult run_occupancy_experiment(const OccupancyConfig& config);

/// Aggregate of several seeds of the same configuration.
struct AggregatedOutcome {
  DetectionScore score;          ///< counts summed across replications
  RunningStats belief_accuracy;  ///< per-replication accuracy samples
};

}  // namespace psn::analysis
