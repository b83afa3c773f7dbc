#include "analysis/experiments.hpp"

#include <algorithm>
#include <climits>
#include <iterator>
#include <optional>
#include <span>
#include <utility>

#include "analysis/sweep.hpp"
#include "check/race_scan.hpp"
#include "check/stream_checker.hpp"
#include "common/error.hpp"
#include "core/detectors.hpp"
#include "core/oracle.hpp"
#include "core/predicate_parser.hpp"
#include "core/sharded_system.hpp"
#include "world/world_model.hpp"

namespace psn::analysis {

core::ShardedSystemConfig make_system_config(const OccupancyConfig& config) {
  core::ShardedSystemConfig scfg;
  core::SystemConfig& sys = scfg.base;
  static_cast<core::DeploymentConfig&>(sys) = config;
  sys.num_sensors = config.doors;
  sys.sim.seed = config.seed;
  sys.sim.horizon = SimTime::zero() + config.horizon;
  sys.sim.trace_capacity = config.trace_capacity;
  sys.clock_config.sync_epsilon = config.sync_epsilon;
  sys.clock_config.track_vectors = !config.lean_clocks;
  scfg.shards = config.shards;
  scfg.pool_threads = config.shard_threads;
  scfg.unicast_reports = config.unicast_reports;
  return scfg;
}

void validate(const OccupancyConfig& config) {
  if (config.doors > static_cast<std::size_t>(INT_MAX)) {
    throw ConfigError("OccupancyConfig: doors must be at most " +
                      std::to_string(INT_MAX) + ", got " +
                      std::to_string(config.doors));
  }
  if (config.movement_rate <= 0.0) {
    throw ConfigError("OccupancyConfig: movement_rate must be > 0, got " +
                      std::to_string(config.movement_rate));
  }
  if (config.capacity < 0) {
    throw ConfigError("OccupancyConfig: capacity must be >= 0, got " +
                      std::to_string(config.capacity));
  }
  if (config.check && config.lean_clocks) {
    throw ConfigError(
        "OccupancyConfig: the checker replays vector-clock stamps, which "
        "--lean-clocks disables; drop one of the two");
  }
  core::validate(make_system_config(config));
}

const DetectorOutcome& OccupancyRunResult::outcome(
    const std::string& detector) const {
  for (const auto& o : outcomes) {
    if (o.detector == detector) return o;
  }
  PSN_CHECK(false, "no outcome for detector: " + detector);
  return outcomes.front();
}

OccupancyHall build_occupancy_hall(const OccupancyConfig& config) {
  validate(config);
  const core::ShardedSystemConfig scfg = make_system_config(config);

  // Pre-roll the world plane. Scenarios are autonomous — the hall draws
  // only from its own "hall" substream — so the ground-truth timeline is
  // computed once in a throwaway simulation and *replayed* into the sharded
  // system, whose per-pid replay chains schedule the same timers at every
  // shard count (the live hall's global movement chain would not partition).
  sim::SimConfig pre_cfg;
  pre_cfg.seed = config.seed;
  pre_cfg.horizon = scfg.base.sim.horizon;
  sim::Simulation pre_sim(pre_cfg);
  world::WorldModel world(pre_sim);

  world::ExhibitionHallConfig hall_cfg;
  hall_cfg.doors = static_cast<int>(config.doors);
  hall_cfg.capacity = config.capacity;
  hall_cfg.movement_rate = config.movement_rate;
  hall_cfg.target_occupancy = static_cast<double>(config.capacity);
  hall_cfg.initial_occupancy = config.capacity > 10 ? config.capacity - 10 : 0;
  world::ExhibitionHall hall(world, hall_cfg, pre_sim.rng_for("hall"));
  hall.start();
  pre_sim.run();

  OccupancyHall out;
  out.system = std::make_unique<core::ShardedPervasiveSystem>(scfg);
  // Door k is sensed by process k+1 (P_0 is the root monitor).
  const Name entered("entered");
  const Name exited("exited");
  for (int k = 0; k < hall_cfg.doors; ++k) {
    const auto pid = static_cast<ProcessId>(k + 1);
    out.system->assign(hall.door_object(k), entered, pid);
    out.system->assign(hall.door_object(k), exited, pid);
  }
  out.timeline = world.take_timeline();
  out.system->set_world_events(out.timeline.events());
  return out;
}

OccupancyRunResult run_occupancy_experiment(const OccupancyConfig& config) {
  const OccupancyHall hall = build_occupancy_hall(config);
  core::ShardedPervasiveSystem& system = *hall.system;
  const core::SystemConfig& sys = system.config().base;

  core::Predicate predicate = core::parse_predicate(
      "overcrowded",
      "sum(entered) - sum(exited) > " + std::to_string(config.capacity));

  // The expected update volume is known before the run (movement_rate ×
  // horizon world events, one root delivery each when lossless): reserve the
  // logs once instead of paying their reallocation-copy cascade mid-run.
  const auto expected_updates = static_cast<std::size_t>(
      config.movement_rate * config.horizon.to_seconds()) + 1;
  system.reserve_root_logs(expected_updates);

  // The run streams its trace into one sink. A checked run feeds one
  // checker bound to the sensors' executions where they live, so no
  // execution is copied for it, and of the records keeps only what the race
  // audit's fault spans read; an exported run appends every record to its
  // result.
  OccupancyRunResult result;
  const bool exporting = sys.sim.trace_capacity > 0;
  if (exporting) result.trace.reserve(system.expected_trace_records());
  std::optional<check::StreamChecker> checker;
  std::vector<sim::TraceRecord> span_records;
  if (config.check) {
    check::StreamCheckerConfig check_cfg;
    check_cfg.num_processes = system.num_processes();
    check_cfg.sync_epsilon = sys.clock_config.sync_epsilon;
    check_cfg.drifting = sys.clock_config.drifting;
    check_cfg.options.validity_horizon = config.validity_horizon;
    // The drift contract subtracts declared clock faults exactly.
    check_cfg.options.faults = system.faults();
    check_cfg.executions = check::bind_executions(system);
    checker.emplace(check_cfg);
  }
  if (checker || exporting) {
    system.stream_trace([&](std::span<const sim::TraceRecord> batch) {
      if (checker) {
        for (const sim::TraceRecord& r : batch) {
          checker->feed(r);
          if (check::read_by_fault_spans(r)) span_records.push_back(r);
        }
      }
      if (exporting) {
        result.trace.insert(result.trace.end(), batch.begin(), batch.end());
      }
    });
  }

  system.run();

  core::GroundTruthOracle oracle(predicate, system.sensing());
  result.oracle = oracle.evaluate(hall.timeline, sys.sim.horizon);
  result.message_stats = system.message_stats();
  result.observed_updates = system.log().updates.size();
  result.world_events = hall.timeline.size();
  result.delta_bound = system.delta_bound();
  result.shard_windows = system.windows();

  ScoreConfig score_cfg;
  score_cfg.tolerance = config.effective_tolerance();

  // The system writes sim.* and net.* from its own tallies; the harness
  // adds the names it owns (world.*, root.*, detector.*, check.*) once,
  // after the run, so the snapshot is identical at every shard count.
  result.metrics = system.metrics_snapshot();
  auto& counters = result.metrics.counters;
  counters["world.events"] += result.world_events;
  counters["root.observed_updates"] += result.observed_updates;

  if (checker) {
    result.check = checker->finish();
    // Spent: free its retained entries before the detectors and the audit
    // allocate.
    checker.reset();
  }

  for (const auto& detector : core::all_online_detectors()) {
    // Lean clocks make vector stamps inert dummies; scoring the
    // strobe-vector detector against them would be noise, not signal.
    if (config.lean_clocks && detector->name() == "strobe-vector") continue;
    DetectorOutcome out;
    out.detector = detector->name();
    out.detections = detector->run(system.log(), predicate);
    out.score = score_detections(result.oracle, out.detections, score_cfg);
    out.belief_accuracy =
        belief_accuracy(result.oracle, out.detections, sys.sim.horizon);
    const std::string prefix = "detector." + out.detector;
    counters[prefix + ".detections"] += out.detections.size();
    counters[prefix + ".true_positives"] += out.score.true_positives;
    counters[prefix + ".false_positives"] += out.score.false_positives;
    counters[prefix + ".false_negatives"] += out.score.false_negatives;
    counters[prefix + ".borderline"] += out.score.borderline_detections;
    result.metrics.stats[prefix + ".belief_accuracy"].add(out.belief_accuracy);
    if (exporting) {
      // Detection records are appended after the canonically ordered
      // network records (the detectors replay the log offline); `at` is
      // still sim-time. The append order is the fixed detector-loop order,
      // so the trace stays byte-identical across shard counts.
      const Name became_true(out.detector + ":true");
      const Name became_false(out.detector + ":false");
      for (const core::Detection& d : out.detections) {
        result.trace.push_back({d.detected_at, sim::TraceKind::kDetect, 0,
                                kNoProcess, -1, 0,
                                d.to_true ? became_true : became_false});
      }
    }
    result.outcomes.push_back(std::move(out));
  }

  // Δ-race audit: under Δ-bounded delivery (the streamed trace is always
  // complete), every confident detector error must have an admissible
  // cause — a Δ/2ε race (paper §5), or a recorded fault: a dropped
  // root-bound report, a crash or partition window, a duty-cycle deferral
  // past Δ, an expired validity horizon (DESIGN.md §15), or, for
  // delivery-order, a same-sender reorder. An error none of those cover is
  // a checker violation. Lossy, faulty, and duty-cycled runs audit at full
  // strictness — their non-race causes are in the trace, not excuses.
  if (result.check) {
    if (config.delay_kind == core::DelayKind::kUniformBounded) {
      check::RaceScanConfig delta_scan;
      delta_scan.window = result.delta_bound;
      const std::vector<check::RaceEvent> delta_races =
          check::scan_races(system.log(), delta_scan);
      check::RaceScanConfig eps_scan;
      eps_scan.window = config.sync_epsilon * 2;
      const std::vector<check::RaceEvent> eps_races =
          check::scan_races(system.log(), eps_scan);
      check::FaultSpanConfig span_cfg;
      span_cfg.delta_bound = result.delta_bound;
      const std::vector<check::FaultSpan> fault_spans =
          check::collect_fault_spans(span_records, system.log(), span_cfg);
      // A same-sender reorder misleads only the detector that applies
      // reports in delivery order; the others order reports by their stamps.
      std::vector<check::FaultSpan> stamp_spans;
      std::copy_if(fault_spans.begin(), fault_spans.end(),
                   std::back_inserter(stamp_spans),
                   [](const check::FaultSpan& s) {
                     return s.cause != check::FaultSpan::Cause::kReorder;
                   });
      check::AuditConfig audit;
      audit.slack = score_cfg.tolerance;
      for (const DetectorOutcome& out : result.outcomes) {
        // The physical detector orders by ε-synchronized timestamps, so its
        // race window is 2ε; the delivery/strobe detectors resolve down to Δ.
        const bool physical = out.detector == "physical-eps";
        result.check->add_contract(check::audit_detector(
            out.detector, physical ? eps_races : delta_races,
            out.detector == "delivery-order" ? fault_spans : stamp_spans,
            out.score.fp_cause_times, out.score.fn_occurrence_times, audit));
      }
    }
    // Per-contract violation counters alongside the total, so a sweep's
    // metrics table localizes *which* contract a regression trips without
    // re-running anything (ROADMAP "per-contract violation metrics").
    for (const check::ContractResult& cr : result.check->contracts) {
      counters["check." + cr.contract + ".violations"] += cr.violations_total;
    }
    counters["check.violations"] += result.check->total_violations();
  }
  return result;
}

}  // namespace psn::analysis
