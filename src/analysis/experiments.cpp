#include "analysis/experiments.hpp"

#include <utility>

#include "analysis/sweep.hpp"
#include "check/race_scan.hpp"
#include "common/error.hpp"
#include "core/detectors.hpp"
#include "core/oracle.hpp"
#include "core/predicate_parser.hpp"
#include "core/sharded_system.hpp"
#include "world/world_model.hpp"

namespace psn::analysis {

void validate(const OccupancyConfig& config) {
  if (config.doors == 0) {
    throw ConfigError("OccupancyConfig: doors must be >= 1");
  }
  if (config.movement_rate < 0.0) {
    throw ConfigError("OccupancyConfig: movement_rate must be >= 0, got " +
                      std::to_string(config.movement_rate));
  }
  if (config.capacity < 0) {
    throw ConfigError("OccupancyConfig: capacity must be >= 0, got " +
                      std::to_string(config.capacity));
  }
  if (config.horizon <= Duration::zero()) {
    throw ConfigError("OccupancyConfig: horizon must be positive");
  }
  if (config.delta <= Duration::zero() &&
      config.delay_kind == core::DelayKind::kUniformBounded) {
    throw ConfigError(
        "OccupancyConfig: delta must be positive under kUniformBounded "
        "(use kSynchronous for the Delta = 0 model)");
  }
  if (config.loss_probability < 0.0 || config.loss_probability > 1.0) {
    throw ConfigError("OccupancyConfig: loss_probability must be in [0, 1]");
  }
  if (config.gilbert_elliott) {
    const auto& ge = *config.gilbert_elliott;
    for (const double p : {ge.p_good_to_bad, ge.p_bad_to_good, ge.loss_in_good,
                           ge.loss_in_bad}) {
      if (p < 0.0 || p > 1.0) {
        throw ConfigError(
            "OccupancyConfig: Gilbert-Elliott parameters must be in [0, 1]");
      }
    }
    if (config.shards > 1) {
      throw ConfigError(
          "OccupancyConfig: Gilbert-Elliott loss advances per transmission "
          "and is not shard-stable; use loss_windows or run with --shards 1");
    }
  }
  if (config.duty_cycle) {
    if (config.duty_cycle->period <= Duration::zero() ||
        config.duty_cycle->window <= Duration::zero() ||
        config.duty_cycle->window > config.duty_cycle->period) {
      throw ConfigError(
          "OccupancyConfig: duty cycle needs 0 < window <= period");
    }
  }
  if (config.shards == 0) {
    throw ConfigError("OccupancyConfig: shards must be >= 1");
  }
  if (config.shards > config.doors + 1) {
    throw ConfigError(
        "OccupancyConfig: shards must be <= doors + 1 (got " +
        std::to_string(config.shards) + " shards for " +
        std::to_string(config.doors) + " doors); lower --shards");
  }
  if (config.shard_threads == 0) {
    throw ConfigError("OccupancyConfig: shard_threads must be >= 1");
  }
  if (config.shards > 1 &&
      (config.delay_kind == core::DelayKind::kSynchronous ||
       config.delay_kind == core::DelayKind::kExponential)) {
    throw ConfigError(
        "OccupancyConfig: sharded execution needs a positive minimum "
        "one-hop delay and this delay model's is zero; use --delay uniform "
        "or fixed, or run with --shards 1");
  }
  if (config.shards > 1 && config.fifo_channels) {
    throw ConfigError(
        "OccupancyConfig: FIFO/causal delivery is unsupported with shards; "
        "drop --fifo or run with --shards 1");
  }
  if (config.check && config.lean_clocks) {
    throw ConfigError(
        "OccupancyConfig: the checker replays vector-clock stamps, which "
        "--lean-clocks disables; drop one of the two");
  }
}

const DetectorOutcome& OccupancyRunResult::outcome(
    const std::string& detector) const {
  for (const auto& o : outcomes) {
    if (o.detector == detector) return o;
  }
  PSN_CHECK(false, "no outcome for detector: " + detector);
  return outcomes.front();
}

OccupancyRunResult run_occupancy_experiment(const OccupancyConfig& config) {
  return run_occupancy_experiment(Validated<OccupancyConfig>(config));
}

OccupancyRunResult run_occupancy_experiment(
    const Validated<OccupancyConfig>& validated) {
  const OccupancyConfig& config = validated.get();
  core::ShardedSystemConfig scfg;
  core::SystemConfig& sys = scfg.base;
  sys.num_sensors = config.doors;
  sys.sim.seed = config.seed;
  sys.sim.horizon = SimTime::zero() + config.horizon;
  sys.sim.trace_capacity = config.trace_capacity;
  if (config.check && sys.sim.trace_capacity == 0) {
    // The checker's happens-before oracle needs the complete trace window.
    sys.sim.trace_capacity = std::size_t{1} << 18;
  }
  sys.delay_kind = config.delay_kind;
  sys.delta = config.delta;
  sys.clock_mode = config.clock_mode;
  sys.clock_config.sync_epsilon = config.sync_epsilon;
  sys.clock_config.track_vectors = !config.lean_clocks;
  sys.topology = config.topology;
  sys.loss_probability = config.loss_probability;
  sys.loss_windows = config.loss_windows;
  sys.gilbert_elliott = config.gilbert_elliott;
  sys.faults = config.faults;
  sys.duty_cycle = config.duty_cycle;
  sys.duty_phases_aligned = config.duty_phases_aligned;
  sys.fifo_channels = config.fifo_channels;
  sys.validity_horizon = config.validity_horizon;
  scfg.shards = config.shards;
  scfg.pool_threads = config.shard_threads;
  scfg.unicast_reports = config.unicast_reports;

  // Pre-roll the world plane. Scenarios are autonomous — the hall draws
  // only from its own "hall" substream — so the ground-truth timeline is
  // computed once in a throwaway simulation and *replayed* into the sharded
  // system, whose per-pid replay chains schedule the same timers at every
  // shard count (the live hall's global movement chain would not partition).
  sim::SimConfig pre_cfg;
  pre_cfg.seed = config.seed;
  pre_cfg.horizon = sys.sim.horizon;
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

  core::ShardedPervasiveSystem system(scfg);

  // Door k is sensed by process k+1 (P_0 is the root monitor).
  for (int k = 0; k < hall_cfg.doors; ++k) {
    const auto pid = static_cast<ProcessId>(k + 1);
    system.assign(hall.door_object(k), "entered", pid);
    system.assign(hall.door_object(k), "exited", pid);
  }
  system.set_world_events(world.timeline().events());

  core::Predicate predicate = core::parse_predicate(
      "overcrowded",
      "sum(entered) - sum(exited) > " + std::to_string(config.capacity));

  // The expected update volume is known before the run (movement_rate ×
  // horizon world events, one root delivery each when lossless): reserve the
  // logs once instead of paying their reallocation-copy cascade mid-run.
  const auto expected_updates = static_cast<std::size_t>(
      config.movement_rate * config.horizon.to_seconds()) + 1;
  system.reserve_root_logs(expected_updates);

  system.run();

  OccupancyRunResult result;
  core::GroundTruthOracle oracle(predicate, system.sensing());
  result.oracle = oracle.evaluate(world.timeline(), sys.sim.horizon);
  result.message_stats = system.message_stats();
  result.observed_updates = system.log().updates.size();
  result.world_events = world.timeline().size();
  result.delta_bound = system.delta_bound();
  result.shard_windows = system.windows();

  const bool tracing = sys.sim.trace_capacity > 0;
  if (tracing) {
    result.trace = system.trace_records();
    result.trace_evicted = system.trace_evicted();
  }

  ScoreConfig score_cfg;
  score_cfg.tolerance = config.effective_tolerance();

  // The system writes sim.* and net.* from its own tallies; the harness
  // adds the names it owns (world.*, root.*, detector.*, check.*) once,
  // after the run, so the snapshot is identical at every shard count.
  result.metrics = system.metrics_snapshot();
  auto& counters = result.metrics.counters;
  counters["world.events"] += result.world_events;
  counters["root.observed_updates"] += result.observed_updates;

  // Clock-contract replay runs over the network-plane trace before the
  // offline detectors append their kDetect records (which it would ignore
  // anyway, but checking the smaller window is cheaper).
  if (config.check) {
    check::CheckOptions check_options;
    check_options.validity_horizon = config.validity_horizon;
    // trace_records() already merged the schedule's fault records into the
    // canonical order; the options pointer lets the drift contract subtract
    // declared clock faults exactly.
    check_options.faults = system.faults();
    // The trace moves into the checker's inputs and back: no record copied.
    check::RunInputs inputs =
        check::inputs_from(system, std::move(result.trace));
    result.check = check::check_run(inputs, check_options);
    result.trace = std::move(inputs.trace);
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
    if (tracing) {
      // Detection records are appended after the canonically ordered
      // network records (the detectors replay the log offline); `at` is
      // still sim-time. The append order is the fixed detector-loop order,
      // so the trace stays byte-identical across shard counts.
      for (const core::Detection& d : out.detections) {
        result.trace.push_back({d.detected_at, sim::TraceKind::kDetect, 0,
                                kNoProcess, -1, 0,
                                out.detector + (d.to_true ? ":true" : ":false")});
      }
    }
    result.outcomes.push_back(std::move(out));
  }

  // Δ-race audit: under Δ-bounded delivery with a complete trace window,
  // every confident detector error must have an admissible cause — a Δ/2ε
  // race (paper §5), or a recorded fault: a dropped root-bound report, a
  // crash or partition window, a duty-cycle deferral past Δ, an expired
  // validity horizon (DESIGN.md §15). An error none of those cover is a
  // checker violation. Lossy, faulty, and duty-cycled runs audit at full
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
          check::collect_fault_spans(result.trace, system.log(), span_cfg);
      check::AuditConfig audit;
      audit.slack = score_cfg.tolerance;
      for (const DetectorOutcome& out : result.outcomes) {
        // The physical detector orders by ε-synchronized timestamps, so its
        // race window is 2ε; the delivery/strobe detectors resolve down to Δ.
        const bool physical = out.detector == "physical-eps";
        result.check->add_contract(check::audit_detector(
            out.detector, physical ? eps_races : delta_races, fault_spans,
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
