#include "core/online_monitor.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace psn::core {

OnlineMonitor::OnlineMonitor(ShardedPervasiveSystem& system,
                             Predicate predicate,
                             std::vector<ActuationRule> rules)
    : system_(system),
      detector_(DetectorKind::kStrobeVector, std::move(predicate)),
      rules_(std::move(rules)) {
  for (const auto& rule : rules_) {
    PSN_CHECK(rule.actuator >= 1 && rule.actuator < system_.num_processes(),
              "actuation rule needs a sensor/actuator process");
  }
  system_.root().add_observer(
      [this](const ReceivedUpdate& update, std::size_t index) {
        on_update(update, index);
      });
}

void OnlineMonitor::on_update(const ReceivedUpdate& update,
                              std::size_t index) {
  const auto detection = detector_.feed(update, index);
  if (!detection) return;
  detections_.push_back(*detection);

  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const ActuationRule& rule = rules_[r];
    if (rule.on_rising_edge != detection->to_true) continue;
    if (detection->borderline && !rule.fire_on_borderline) continue;

    net::Message msg;
    msg.src = system_.root().id();
    msg.dst = rule.actuator;
    msg.kind = net::MessageKind::kActuation;
    net::ActuationPayload payload;
    payload.command = rule.command;
    payload.issued_at = system_.sim().now();
    payload.object = rule.object;
    payload.attribute = rule.attribute;
    payload.value = rule.value;
    msg.payload = std::move(payload);
    system_.transport().unicast(std::move(msg));

    ActuationRecord record;
    record.rule_index = r;
    record.issued_at = system_.sim().now();
    record.cause_true_time = detection->cause_true_time;
    record.borderline = detection->borderline;
    actuations_.push_back(record);
  }
}

std::vector<Duration> OnlineMonitor::actuation_latencies() const {
  // Match issued commands (in order) against the actuator's recorded
  // a-events (in order). Each command produces exactly one a-event at its
  // target, so a per-actuator two-pointer pairing is exact.
  std::vector<Duration> out;
  // sensor_executions() builds a fresh n-entry vector; index 0 is P_1.
  const auto executions = system_.sensor_executions();
  for (ProcessId pid = 1; pid < system_.num_processes(); ++pid) {
    std::vector<SimTime> applied;
    for (const auto& e : *executions[pid - 1]) {
      if (e.type == EventType::kActuate) {
        applied.push_back(e.clocks.true_time);
      }
    }
    std::size_t next = 0;
    for (const auto& a : actuations_) {
      if (rules_[a.rule_index].actuator != pid) continue;
      if (next >= applied.size()) break;  // command still in flight at horizon
      out.push_back(applied[next] - a.cause_true_time);
      next++;
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace psn::core
