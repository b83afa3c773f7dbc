#pragma once

#include <vector>

#include "clocks/timestamp.hpp"
#include "common/sim_time.hpp"
#include "common/types.hpp"
#include "core/sharded_system.hpp"
#include "core/variables.hpp"

namespace psn::core {

/// A recorded distributed execution in the form the lattice algorithms
/// consume: per process, the ordered list of its clock-ticking events with
/// their vector stamps. Which vector is used decides what the lattice means:
///   - strobe stamps → the strobe-induced sublattice of world observations
///     (paper §4.2.4, the slim-lattice postulate), over sense events only;
///   - causal Mattern/Fidge stamps, built through the constructor → the
///     classic lattice of consistent global states of the network-plane
///     program (paper §4.1), over every event that ticks the causal clock.
class ExecutionView {
 public:
  struct Event {
    clocks::VectorStamp stamp;  ///< post-event stamp
    VarRef var;                 ///< the variable set; empty name = none
    double value = 0.0;
    SimTime when;
  };

  ExecutionView(std::vector<ProcessId> pids,
                std::vector<std::vector<Event>> events);

  /// Sense events of all sensors, stamped with the *strobe* vector clock.
  static ExecutionView from_strobe_stamps(
      const ShardedPervasiveSystem& system);

  std::size_t num_processes() const { return events_.size(); }
  ProcessId pid(std::size_t p) const { return pids_[p]; }
  const std::vector<Event>& events(std::size_t p) const { return events_[p]; }
  std::size_t total_events() const;

  /// A cut assigns to each process the count of its included events. The cut
  /// is consistent iff no included event's stamp records knowledge of an
  /// excluded event.
  bool consistent(const std::vector<std::size_t>& cut) const;

  /// The assembled global variable state at a cut: the latest value each
  /// process's included events gave to each of its variables.
  GlobalState state_at(const std::vector<std::size_t>& cut) const;

  /// The final (all-events) cut.
  std::vector<std::size_t> final_cut() const;

 private:
  std::vector<ProcessId> pids_;
  std::vector<std::vector<Event>> events_;
};

}  // namespace psn::core
