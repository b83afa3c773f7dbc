#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/stats.hpp"
#include "common/table.hpp"

namespace psn {

/// Builds the canonical labeled metric name `<base>.<id>.<suffix>` — e.g.
/// `labeled_metric("serve.stream", 3, "records")` →
/// "serve.stream.3.records". Labels are plain name segments, so labeled
/// metrics sort textually inside snapshots and merged server-wide snapshots
/// stay deterministic without any extra machinery.
std::string labeled_metric(std::string_view base, std::uint64_t id,
                           std::string_view suffix);

/// The value of every metric at one instant, as plain data: the function
/// that owns a count writes it straight into a snapshot (DESIGN.md §9).
/// Snapshots can be copied out of a finished run, merged across
/// replications, and serialized — which is how the sweep engine reports
/// per-point metrics without keeping any simulation alive.
///
/// Merging is deterministic as long as the merge *order* is fixed (the sweep
/// engine merges in grid order): counters and histogram bins add, gauges
/// add, stats combine via RunningStats::merge. Two sweeps of the same spec
/// therefore serialize byte-identically at any thread count.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, RunningStats> stats;
  std::map<std::string, Histogram> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && stats.empty() &&
           histograms.empty();
  }

  /// Accumulates `other` into this snapshot. Shape mismatches on a shared
  /// histogram name (different range or bin count) throw InvariantError.
  void merge(const MetricsSnapshot& other);

  /// One row per metric, name-sorted within each kind: name, kind, value
  /// (stats and histograms render a compact summary string).
  Table table() const;
  std::string csv() const { return table().csv(); }
};

}  // namespace psn
