#include "analysis/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/crew.hpp"
#include "common/error.hpp"

namespace psn::analysis {

void PointResult::add(const OccupancyRunResult& run) {
  world_events += run.world_events;
  observed_updates += run.observed_updates;
  metrics.merge(run.metrics);
  for (const DetectorOutcome& out : run.outcomes) {
    AggregatedOutcome& agg = detectors[out.detector];
    agg.score += out.score;
    agg.belief_accuracy.add(out.belief_accuracy);
  }
}

const AggregatedOutcome& PointResult::at(const std::string& detector) const {
  const auto it = detectors.find(detector);
  PSN_CHECK(it != detectors.end(), "no outcome for detector: " + detector);
  return it->second;
}

Table SweepResult::summary_table() const {
  Table table({"point", "doors", "rate", "delta_ms", "loss", "detector",
               "occurrences", "TP", "FP", "FN", "borderline", "fn_covered",
               "recall", "recall_w_bin", "precision", "belief_mean",
               "belief_stddev", "latency_count", "latency_p50_ms"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointResult& p = points[i];
    for (const auto& [name, agg] : p.detectors) {  // std::map: sorted, stable
      const auto& s = agg.score;
      table.row()
          .cell(i)
          .cell(p.config.doors)
          .cell(p.config.movement_rate, 3)
          .cell(p.config.delta == Duration::max() ? -1.0
                                                  : p.config.delta.to_millis(),
                3)
          .cell(p.config.loss_probability, 3)
          .cell(name)
          .cell(s.oracle_occurrences)
          .cell(s.true_positives)
          .cell(s.false_positives)
          .cell(s.false_negatives)
          .cell(s.borderline_detections)
          .cell(s.fn_covered_by_borderline)
          .cell(s.recall(), 6)
          .cell(s.recall_with_borderline(), 6)
          .cell(s.precision(), 6)
          .cell(agg.belief_accuracy.mean(), 6)
          .cell(agg.belief_accuracy.stddev(), 6)
          .cell(s.latency_s.count())
          .cell(s.latency_s.empty() ? 0.0 : s.latency_s.median() * 1e3, 6);
    }
  }
  return table;
}

Table SweepResult::metrics_table() const {
  Table table({"point", "name", "kind", "value"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Table point_metrics = points[i].metrics.table();
    for (std::size_t r = 0; r < point_metrics.num_rows(); ++r) {
      table.row()
          .cell(i)
          .cell(point_metrics.at(r, 0))
          .cell(point_metrics.at(r, 1))
          .cell(point_metrics.at(r, 2));
    }
  }
  return table;
}

SweepSpec& SweepSpec::vary_doors(std::vector<std::size_t> doors) {
  std::vector<Mutator> axis;
  for (const std::size_t d : doors) {
    axis.push_back([d](OccupancyConfig& c) { c.doors = d; });
  }
  return vary_custom(std::move(axis));
}

SweepSpec& SweepSpec::vary_rate(std::vector<double> rates) {
  std::vector<Mutator> axis;
  for (const double r : rates) {
    axis.push_back([r](OccupancyConfig& c) { c.movement_rate = r; });
  }
  return vary_custom(std::move(axis));
}

SweepSpec& SweepSpec::vary_delta(std::vector<Duration> deltas) {
  std::vector<Mutator> axis;
  for (const Duration d : deltas) {
    axis.push_back([d](OccupancyConfig& c) { c.delta = d; });
  }
  return vary_custom(std::move(axis));
}

SweepSpec& SweepSpec::vary_custom(std::vector<Mutator> cases) {
  if (!cases.empty()) axes_.push_back(std::move(cases));
  return *this;
}

SweepSpec& SweepSpec::replications(std::size_t n) {
  if (n == 0) throw ConfigError("SweepSpec: need at least one replication");
  replications_ = n;
  return *this;
}

SweepSpec& SweepSpec::threads(unsigned n) {
  threads_ = n;
  return *this;
}

std::vector<OccupancyConfig> SweepSpec::point_configs() const {
  // Row-major cross product: the first-declared axis varies slowest, exactly
  // like the outermost loop of the hand-written sweeps this API replaces.
  std::vector<OccupancyConfig> configs{base_};
  for (const auto& axis : axes_) {
    std::vector<OccupancyConfig> next;
    next.reserve(configs.size() * axis.size());
    for (const OccupancyConfig& cfg : configs) {
      for (const Mutator& apply : axis) {
        OccupancyConfig c = cfg;
        apply(c);
        next.push_back(std::move(c));
      }
    }
    configs = std::move(next);
  }
  for (const OccupancyConfig& cfg : configs) {
    validate(cfg);  // throws ConfigError on nonsense
  }
  return configs;
}

std::vector<RunSpec> SweepSpec::expand() const {
  const std::vector<OccupancyConfig> configs = point_configs();
  std::vector<RunSpec> specs;
  specs.reserve(configs.size() * replications_);
  for (std::size_t p = 0; p < configs.size(); ++p) {
    for (std::size_t r = 0; r < replications_; ++r) {
      RunSpec spec;
      spec.config = configs[p];
      spec.config.seed = configs[p].seed + r;
      spec.point = p;
      spec.replication = r;
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

SweepResult SweepSpec::run() const {
  const std::vector<RunSpec> specs = expand();
  std::vector<OccupancyConfig> configs;
  configs.reserve(specs.size());
  for (const RunSpec& spec : specs) configs.push_back(spec.config);

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<OccupancyRunResult> runs = run_specs(configs, threads_);
  const auto t1 = std::chrono::steady_clock::now();

  SweepResult result;
  result.runs = specs.size();
  result.threads_used =
      threads_ == 0 ? static_cast<unsigned>(Crew::hardware_threads())
                    : threads_;
  result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  result.points.resize(specs.size() / replications_);
  // Deterministic merge: flat run order is (point-major, seed order), and a
  // point's first replication carries the point's own config.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    PointResult& point = result.points[specs[i].point];
    if (specs[i].replication == 0) point.config = specs[i].config;
    point.add(runs[i]);
  }
  return result;
}

SweepSpec sweep(OccupancyConfig base) { return SweepSpec(std::move(base)); }

std::vector<OccupancyRunResult> run_specs(
    const std::vector<OccupancyConfig>& configs, unsigned threads) {
  for (const OccupancyConfig& cfg : configs) validate(cfg);
  std::vector<OccupancyRunResult> results(configs.size());
  if (configs.empty()) return results;
  Crew crew(std::min<std::size_t>(
      threads == 0 ? Crew::hardware_threads() : threads, configs.size()));
  crew.for_each(configs.size(), [&](std::size_t i) {
    results[i] = run_occupancy_experiment(configs[i]);
  });
  return results;
}

}  // namespace psn::analysis
