#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "common/table.hpp"

namespace psn::analysis {

/// One fully-resolved executable point of a sweep: a validated-ready config
/// (seed included) plus its coordinates in the grid. RunSpecs are what the
/// engine fans out across its crew; each is an independent simulation
/// (every `Simulation` derives all randomness from its own seed), so running
/// them concurrently cannot change any individual result.
struct RunSpec {
  OccupancyConfig config;
  std::size_t point = 0;        ///< grid-point index (row-major over axes)
  std::size_t replication = 0;  ///< replication index within the point
};

/// Merged outcome of one grid point: every detector's scores summed across
/// the point's replications, in seed order.
struct PointResult {
  /// The point's resolved parameters (seed = the first replication's seed).
  OccupancyConfig config;
  std::map<std::string, AggregatedOutcome> detectors;
  std::size_t world_events = 0;      ///< summed across replications
  std::size_t observed_updates = 0;  ///< summed across replications
  /// Per-run metric snapshots merged across the point's replications, in
  /// seed order — deterministic at any thread count, like the scores.
  MetricsSnapshot metrics;

  /// Folds one replication's run into the point. Every merged result — a
  /// sweep point, `psn_cli run`'s scorecard — is these folds in seed order.
  void add(const OccupancyRunResult& run);

  const AggregatedOutcome& at(const std::string& detector) const;
};

struct SweepResult {
  std::vector<PointResult> points;  ///< grid order, independent of completion
  std::size_t runs = 0;             ///< simulations executed (points × reps)
  unsigned threads_used = 1;
  double wall_seconds = 0.0;

  /// One row per (point, detector): the full confusion counts plus summary
  /// stats, deterministically ordered. Two sweeps of the same spec — at any
  /// thread count — must serialize identically; tests compare these bytes.
  Table summary_table() const;
  std::string csv() const { return summary_table().csv(); }

  /// One row per (point, metric), name-sorted within each point — the same
  /// byte-identical-at-any-thread-count guarantee as summary_table().
  Table metrics_table() const;
  std::string metrics_csv() const { return metrics_table().csv(); }
};

/// Builder for a config × seed grid, the single entry point for every
/// parameter-sweep experiment (the E1–E10/A1–A4 benches, tests):
///
///   const auto result = analysis::sweep(base)
///                           .vary_doors({2, 4, 8})
///                           .vary_rate({1.0, 5.0, 20.0})
///                           .replications(8)
///                           .threads(0)  // 0 = one per hardware thread
///                           .run();
///
/// Axes combine as a cross product in declaration order, first axis slowest
/// (row-major) — exactly the nesting order of the hand-rolled loops this
/// replaces. Each point runs `replications` seeds (base seed, +1, …); the
/// engine fans every run out across one Crew and merges results in grid
/// order, so the output is byte-identical at every thread count.
class SweepSpec {
 public:
  /// An axis value: an edit applied to the base config to reach the point.
  using Mutator = std::function<void(OccupancyConfig&)>;

  explicit SweepSpec(OccupancyConfig base) : base_(std::move(base)) {}

  SweepSpec& vary_doors(std::vector<std::size_t> doors);
  SweepSpec& vary_rate(std::vector<double> rates);
  SweepSpec& vary_delta(std::vector<Duration> deltas);
  /// Escape hatch for axes without a dedicated setter (delay kind, duty
  /// cycle, tolerance, …): each mutator is one value of the axis.
  SweepSpec& vary_custom(std::vector<Mutator> cases);

  /// Seeds per point: base.seed, base.seed + 1, … (default 1).
  SweepSpec& replications(std::size_t n);
  /// Threads that run the sweep, the calling thread included; 0 (default)
  /// = one per hardware thread.
  SweepSpec& threads(unsigned n);

  /// The grid's resolved configs in row-major order, each validated
  /// (throws ConfigError on a nonsensical point — before anything runs).
  std::vector<OccupancyConfig> point_configs() const;
  /// The full flat run list: every point × every replication.
  std::vector<RunSpec> expand() const;

  SweepResult run() const;

 private:
  OccupancyConfig base_;
  std::vector<std::vector<Mutator>> axes_;
  std::size_t replications_ = 1;
  unsigned threads_ = 0;
};

SweepSpec sweep(OccupancyConfig base);

/// Lower-level engine: runs every config on a Crew of min(`threads`,
/// configs) members (`threads` 0 = hardware; the calling thread is one of
/// them, so a single config runs inline) and returns the full per-run
/// results **in input order**. SweepSpec::run fans out through it; so do
/// callers that need raw runs rather than merged scores (E8's paired
/// clean/lossy comparison, `psn_cli run`'s trace of its first seed). All
/// configs are validated before any simulation starts.
std::vector<OccupancyRunResult> run_specs(
    const std::vector<OccupancyConfig>& configs, unsigned threads = 0);

}  // namespace psn::analysis
