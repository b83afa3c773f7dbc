#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "clocks/clock_bundle.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/event.hpp"
#include "core/observation.hpp"
#include "net/transport.hpp"
#include "world/world_model.hpp"

namespace psn::core {

/// Maps world-plane variables to the sensor processes that track them:
/// (object, attribute) → VarRef{sensor pid, attribute name}. The oracle uses
/// it to translate world events into predicate variables; sensors use it to
/// know what to observe.
class SensingMap {
 public:
  void assign(world::ObjectId object, const std::string& attribute,
              ProcessId sensor);
  /// Sensor responsible for (object, attribute), or kNoProcess.
  ProcessId sensor_of(world::ObjectId object,
                      const std::string& attribute) const;
  VarRef var_of(world::ObjectId object, const std::string& attribute) const;
  bool is_assigned(world::ObjectId object, const std::string& attribute) const;

 private:
  std::map<std::pair<world::ObjectId, std::string>, ProcessId> map_;
};

/// A sensor/actuator process p ∈ P. Implements the paper's event rules:
/// on sensing a relevant world change it records an n event, fires SSC1/SVC1
/// (strobe broadcast carrying the sensed update and all timestamps), and on
/// receiving messages applies SSC2/SVC2 (strobes) or SC3/VC3 (computation).
class SensorNode {
 public:
  SensorNode(ProcessId pid, std::size_t n, sim::Simulation& sim,
             net::Transport& transport, clocks::ClockBundleConfig clock_config,
             Rng rng);

  ProcessId id() const { return pid_; }
  clocks::ClockBundle& clocks() { return bundle_; }
  const std::vector<ProcessEvent>& events() const { return events_; }

  /// Called by the system when a world event this sensor is assigned to
  /// occurs in range. Records the n event and broadcasts the strobe report.
  void sense(const world::WorldEvent& ev);

  /// Sends an application (semantic) message — an s event with SC2/VC2
  /// piggybacking. Used by examples and by causality tests.
  void send_computation(ProcessId dst, const std::string& tag);

  /// Records an internal compute event (c) — ticks causal clocks only.
  void compute();

  /// Records an actuate event (a) targeting a world object.
  void actuate(world::WorldModel& world, world::ObjectId object,
               const std::string& attribute, world::AttributeValue value);

  /// Binds the world plane so incoming actuation commands (kActuation
  /// messages) can be applied as a-events. Set by
  /// ShardedPervasiveSystem::world().
  void bind_world(world::WorldModel* world) { world_ = world; }

  /// Makes this sensor record every strobe it receives (and its own sense
  /// events) into a local ObservationLog, so it can act as an additional
  /// observer for consensus detection (core/consensus). Off by default —
  /// it costs memory per strobe.
  void enable_observation_log(std::size_t n, Duration delta_bound,
                              ValidityHorizon validity = {});
  bool observation_log_enabled() const { return observing_; }
  const ObservationLog& observation_log() const { return local_log_; }

  /// Installs the run's fault schedule (DESIGN.md §15): inside one of its
  /// crash windows this node senses nothing (no n event, no strobe, no seq
  /// consumed — a down radio), and its clock-fault windows add a
  /// deterministic drift offset to every physical-local reading it stamps.
  /// The schedule must outlive the node; nullptr (default) = fault-free.
  void set_fault_schedule(const sim::FaultSchedule* faults) {
    faults_ = faults;
  }

  /// Routes sense reports as a single unicast to `target` instead of the
  /// default system-wide strobe broadcast. The city-scale deployment uses
  /// this: 10^5 sensors strobe-broadcasting would be O(n^2) messages per
  /// world tick. kNoProcess restores broadcasting.
  void set_report_target(ProcessId target) { report_target_ = target; }

  /// Transport delivery callback.
  void on_message(const net::Message& msg);

 private:
  void record_event(EventType type,
                    std::optional<VarRef> var = std::nullopt,
                    double value = 0.0,
                    world::WorldEventIndex world_event = world::kNoWorldEvent,
                    std::uint64_t message_seq = 0);

  ProcessId pid_;
  sim::Simulation& sim_;
  net::Transport& transport_;
  clocks::ClockBundle bundle_;
  std::vector<ProcessEvent> events_;
  world::WorldModel* world_ = nullptr;
  const sim::FaultSchedule* faults_ = nullptr;
  bool observing_ = false;
  ProcessId report_target_ = kNoProcess;  ///< kNoProcess = strobe broadcast
  ObservationLog local_log_;
};

/// The distinguished root/back-end process P_0 (paper §2.1). It does not
/// sense; it collects strobe reports into the ObservationLog that detectors
/// consume, and keeps its own strobe clocks merged (SSC2/SVC2) like any
/// other process.
class RootMonitor {
 public:
  RootMonitor(ProcessId pid, std::size_t n, sim::Simulation& sim,
              clocks::ClockBundleConfig clock_config, Rng rng);

  ProcessId id() const { return pid_; }
  clocks::ClockBundle& clocks() { return bundle_; }
  ObservationLog& log() { return log_; }
  const ObservationLog& log() const { return log_; }

  /// Online hook: called for every sense report as it is appended to the
  /// log, while the simulation is running. Used by core::OnlineMonitor to
  /// detect and actuate in-loop.
  using UpdateObserver = std::function<void(const ReceivedUpdate&, std::size_t)>;
  void add_observer(UpdateObserver observer) {
    observers_.push_back(std::move(observer));
  }

  void on_message(const net::Message& msg);

 private:
  ProcessId pid_;
  sim::Simulation& sim_;
  clocks::ClockBundle bundle_;
  ObservationLog log_;
  std::vector<UpdateObserver> observers_;
};

}  // namespace psn::core
