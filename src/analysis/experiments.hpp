#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/scoring.hpp"
#include "check/check.hpp"
#include "common/metrics.hpp"
#include "core/sharded_system.hpp"
#include "net/transport.hpp"
#include "sim/fault.hpp"
#include "sim/trace.hpp"
#include "world/scenarios.hpp"
#include "world/timeline.hpp"

namespace psn::analysis {

/// The canonical experiment of the paper (§5 exhibition hall): d door
/// sensors, occupancy predicate Σ(entered_i − exited_i) > capacity, all four
/// online detectors scored against the oracle on the same run. Most benches
/// (E1, E2, E4, E6, E8, E9) are parameter sweeps over this.
struct OccupancyConfig : core::DeploymentConfig {
  std::size_t doors = 2;
  int capacity = 200;
  /// Total people movements per second — the world-event rate λ the paper's
  /// viability condition compares against Δ.
  double movement_rate = 20.0;

  Duration sync_epsilon = Duration::micros(100);
  Duration horizon = Duration::seconds(60);
  std::uint64_t seed = 1;

  /// Event-trace ring capacity (records); 0 = no trace exported. When on,
  /// the run's sense/send/receive/deliver/drop/detect records are returned
  /// in OccupancyRunResult::trace.
  std::size_t trace_capacity = 0;

  /// Runs the causality & clock-contract checker (check/stream_checker.hpp)
  /// over the run as it executes and, under uniform Δ-bounded delay, the
  /// Δ-race audit of every detector's errors. The trace streams into the
  /// checker, so checking keeps no ring: trace_capacity only decides what
  /// OccupancyRunResult::trace exports. The report lands in
  /// OccupancyRunResult::check.
  bool check = false;

  /// Space partitions K for the sharded runner (DESIGN.md §14). Every run
  /// goes through core::ShardedPervasiveSystem; K = 1 is one shard with no
  /// window machinery (every delay kind works there); core::validate states
  /// what K > 1 needs. Results are byte-identical at every K.
  std::size_t shards = 1;
  /// Threads that run shard turns, the caller included (1 = inline; capped
  /// at `shards`). Changes wall-clock time only, never results.
  std::size_t shard_threads = 1;
  /// Drops the O(n)-wide vector clocks (city scale: 10^5 processes make
  /// every snapshot O(n)). The strobe-vector detector is skipped — its
  /// stamps are inert — and combining with `check` is rejected (the checker
  /// replays vector stamps).
  bool lean_clocks = false;
  /// Sense reports go as one unicast to the root instead of the system-wide
  /// strobe broadcast (the city-scale star deployment; O(n) vs O(n^2)
  /// messages per world tick).
  bool unicast_reports = false;

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

/// The system a run of `config` builds.
core::ShardedSystemConfig make_system_config(const OccupancyConfig& config);

/// Rejects, with ConfigError, a hall the world model cannot run (more doors
/// than an int counts, a non-positive movement rate, negative capacity, or
/// `check` with `lean_clocks`), then admits make_system_config(config)
/// through core::validate, which holds every rule on the deployment.
void validate(const OccupancyConfig& config);

/// The hall a run of `config` replays, built but not run.
struct OccupancyHall {
  /// Door k is sensed by P_{k+1}; the world events are installed.
  std::unique_ptr<core::ShardedPervasiveSystem> system;
  /// The ground truth the system replays and the oracle scores against.
  world::WorldTimeline timeline;
};

/// Validates `config` (throwing ConfigError), pre-rolls the hall's world in
/// a throwaway simulation and builds the system that replays it. A caller
/// that needs the system itself (its trace, executions or log) starts here;
/// run_occupancy_experiment runs and scores what this builds.
OccupancyHall build_occupancy_hall(const OccupancyConfig& config);

/// Builds the hall system (build_occupancy_hall), runs it, runs every
/// online detector over the observation log, and scores each against the
/// oracle.
OccupancyRunResult run_occupancy_experiment(const OccupancyConfig& config);

/// Aggregate of several seeds of the same configuration.
struct AggregatedOutcome {
  DetectionScore score;          ///< counts summed across replications
  RunningStats belief_accuracy;  ///< per-replication accuracy samples
};

}  // namespace psn::analysis
