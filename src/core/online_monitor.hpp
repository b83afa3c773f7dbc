#pragma once

#include <string>
#include <vector>

#include "core/detectors.hpp"
#include "core/sharded_system.hpp"

namespace psn::core {

/// What the root does when the predicate fires — the actuate half of the
/// paper's sense-and-respond loop (§2.2). The command is *sent* as a
/// kActuation message to the target sensor/actuator node, which applies it
/// to the world object after the message delay: causality flows
///   world event → sense (n) → strobe (s/r) → detect → actuate-send (s)
///   → actuate (a) → world event.
struct ActuationRule {
  /// Fire on φ becoming true (rising edge) or false (falling edge).
  bool on_rising_edge = true;
  /// The paper's err-on-the-safe-side policy: also fire on borderline
  /// transitions (§5).
  bool fire_on_borderline = true;

  ProcessId actuator = kNoProcess;  ///< node that performs the a-event
  world::ObjectId object = world::kNoObject;
  std::string attribute;
  world::AttributeValue value;
  std::string command;  ///< label for reporting
};

/// In-simulation global-predicate monitor at the root P_0: feeds every
/// incoming sense report to an incremental strobe-vector detector and sends
/// actuation commands per the rules, while the simulation runs. This is the
/// online counterpart of the offline Detector interface; it closes the
/// control loop, so actuation effects become world events that are sensed
/// again.
///
/// Construct after the system and before run(); keep alive for the whole
/// run. Needs a live single-shard system (it sends through transport()).
class OnlineMonitor {
 public:
  OnlineMonitor(ShardedPervasiveSystem& system, Predicate predicate,
                std::vector<ActuationRule> rules = {});

  /// Transitions detected so far (complete after system.run()).
  const std::vector<Detection>& detections() const { return detections_; }

  struct ActuationRecord {
    std::size_t rule_index = 0;
    SimTime issued_at;        ///< when the root sent the command
    SimTime cause_true_time;  ///< sense that triggered the detection
    bool borderline = false;
  };
  const std::vector<ActuationRecord>& actuations() const {
    return actuations_;
  }

  /// End-to-end actuation latencies (triggering world event → a-event
  /// applied), available after the run by matching the actuator's recorded
  /// a-events against issued commands.
  std::vector<Duration> actuation_latencies() const;

  /// Evaluations the detector made on expired state (kStaleObservation);
  /// stays 0 under the default unbounded validity policy.
  std::size_t stale_observations() const {
    return detector_.stale_observations();
  }

 private:
  void on_update(const ReceivedUpdate& update, std::size_t index);

  ShardedPervasiveSystem& system_;
  IncrementalStrobeVectorDetector detector_;
  std::vector<ActuationRule> rules_;
  std::vector<Detection> detections_;
  std::vector<ActuationRecord> actuations_;
};

}  // namespace psn::core
