#include "core/consensus.hpp"

#include <map>

#include "common/error.hpp"

namespace psn::core {

void enable_all_observers(ShardedPervasiveSystem& system) {
  for (ProcessId pid = 1; pid < system.num_processes(); ++pid) {
    system.sensor(pid).enable_observation_log(system.num_processes(),
                                              system.delta_bound());
  }
}

std::vector<const ObservationLog*> ConsensusStrobeDetector::observer_logs(
    const ShardedPervasiveSystem& system) {
  std::vector<const ObservationLog*> logs;
  logs.push_back(&system.log());  // the root is always observer 0
  for (ProcessId pid = 1; pid < system.num_processes(); ++pid) {
    const SensorNode& node = system.sensor(pid);
    if (node.observation_log_enabled()) {
      logs.push_back(&node.observation_log());
    }
  }
  return logs;
}

std::vector<Detection> ConsensusStrobeDetector::run(
    const std::vector<const ObservationLog*>& logs,
    const Predicate& predicate) const {
  PSN_CHECK(logs.size() >= 2,
            "consensus needs the root plus at least one sensor observer");

  const Detector single(DetectorKind::kStrobeVector);
  // Observer 0 (the root) provides the spine of reported transitions.
  std::vector<Detection> spine = single.run(*logs[0], predicate);

  // For each other observer: which world event triggered which transition
  // direction, as that observer saw it.
  std::vector<std::map<world::WorldEventIndex, bool>> votes;
  for (std::size_t o = 1; o < logs.size(); ++o) {
    std::map<world::WorldEventIndex, bool> seen;
    for (const auto& d : single.run(*logs[o], predicate)) {
      const auto trigger = logs[o]->updates[d.update_index].report.world_event;
      seen[trigger] = d.to_true;
    }
    votes.push_back(std::move(seen));
  }

  // A spine transition is confident iff EVERY observer reported the same
  // direction for the same triggering world event; any disagreement (or a
  // missing report) is direct evidence that delivery orders diverged — a
  // race — so the transition goes to the borderline bin.
  for (auto& d : spine) {
    const auto trigger = logs[0]->updates[d.update_index].report.world_event;
    bool unanimous = true;
    for (const auto& seen : votes) {
      const auto it = seen.find(trigger);
      if (it == seen.end() || it->second != d.to_true) {
        unanimous = false;
        break;
      }
    }
    d.borderline = !unanimous;
  }
  return spine;
}

}  // namespace psn::core
