#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"

namespace psn::sim {

/// Configuration shared by every simulation run.
struct SimConfig {
  std::uint64_t seed = 1;
  /// Hard end of simulated time; events beyond it are not executed.
  SimTime horizon = SimTime::from_seconds(60.0);
  /// Safety valve against runaway event loops.
  std::size_t max_events = 50'000'000;
  /// Ring-buffer capacity of the optional per-run event trace (sim/trace);
  /// 0 (default) disables tracing entirely — no record is ever built.
  std::size_t trace_capacity = 0;
};

/// Owns the scheduler and the master RNG for one run.
///
/// Components derive their own RNG substreams via `rng_for(name, index)`, so
/// the draw sequence of one component is independent of the others (see Rng).
///
/// Observability: the scheduler and the components keep their own tallies,
/// which become metrics only in
/// core::ShardedPervasiveSystem::metrics_snapshot. When
/// `SimConfig::trace_capacity > 0` the run owns a TraceRecorder that
/// components append sense/send/receive/deliver/drop/detect records to; it
/// is confined to the thread running the simulation.
class Simulation {
 public:
  explicit Simulation(SimConfig config);

  Scheduler& scheduler() { return scheduler_; }
  const Scheduler& scheduler() const { return scheduler_; }
  SimTime now() const { return scheduler_.now(); }
  const SimConfig& config() const { return config_; }

  /// The per-run event trace, or nullptr when tracing is off
  /// (`SimConfig::trace_capacity` = 0). Hot paths guard on the pointer, so
  /// a disabled trace costs one branch.
  TraceRecorder* trace() { return trace_.get(); }
  const TraceRecorder* trace() const { return trace_.get(); }
  /// Installs `recorder` as the run's trace (nullptr turns tracing off) and
  /// hands back the one it replaces. Call before run().
  std::unique_ptr<TraceRecorder> replace_trace(
      std::unique_ptr<TraceRecorder> recorder) {
    trace_.swap(recorder);
    return recorder;
  }

  /// Independent RNG stream for a named component.
  Rng rng_for(const std::string& name, std::uint64_t index = 0) const;

  /// Runs to the configured horizon; returns events executed. If the
  /// `max_events` safety valve fired first, the run stops cleanly and
  /// truncated() reports it — a runaway self-rescheduling event can never
  /// spin the loop toward SIZE_MAX.
  std::size_t run();

  /// True iff the last run() hit `max_events` with work still pending
  /// before the horizon (i.e. results are truncated).
  bool truncated() const { return truncated_; }

 private:
  SimConfig config_;
  Rng master_;
  Scheduler scheduler_;
  std::unique_ptr<TraceRecorder> trace_;
  bool truncated_ = false;
};

}  // namespace psn::sim
