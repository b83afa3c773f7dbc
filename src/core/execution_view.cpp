#include "core/execution_view.hpp"

#include <utility>

#include "common/error.hpp"
#include "core/event.hpp"

namespace psn::core {

ExecutionView::ExecutionView(std::vector<ProcessId> pids,
                             std::vector<std::vector<Event>> events)
    : pids_(std::move(pids)), events_(std::move(events)) {
  PSN_CHECK(pids_.size() == events_.size(),
            "one pid per process history required");
}

ExecutionView ExecutionView::from_strobe_stamps(
    const ShardedPervasiveSystem& system) {
  std::vector<ProcessId> pids;
  std::vector<std::vector<Event>> histories;
  for (const auto* events : system.sensor_executions()) {
    std::vector<Event> hist;
    ProcessId pid = kNoProcess;
    for (const auto& pe : *events) {
      if (pe.type != EventType::kSense) continue;  // strobes tick on sense only
      pid = pe.pid;
      hist.push_back({pe.clocks.strobe_vector, VarRef{pe.pid, pe.attribute},
                      pe.value, pe.clocks.true_time});
    }
    if (pid == kNoProcess && !events->empty()) pid = events->front().pid;
    pids.push_back(pid);
    histories.push_back(std::move(hist));
  }
  return ExecutionView(std::move(pids), std::move(histories));
}

std::size_t ExecutionView::total_events() const {
  std::size_t n = 0;
  for (const auto& h : events_) n += h.size();
  return n;
}

bool ExecutionView::consistent(const std::vector<std::size_t>& cut) const {
  PSN_CHECK(cut.size() == events_.size(), "cut dimension mismatch");
  for (std::size_t i = 0; i < cut.size(); ++i) {
    PSN_CHECK(cut[i] <= events_[i].size(), "cut beyond history");
    if (cut[i] == 0) continue;
    const clocks::VectorStamp& stamp = events_[i][cut[i] - 1].stamp;
    for (std::size_t j = 0; j < cut.size(); ++j) {
      if (j == i) continue;
      // stamp[pid_j] counts how many of process j's ticks the event knows.
      if (stamp[pids_[j]] > cut[j]) return false;
    }
  }
  return true;
}

void ExecutionView::state_at(const std::vector<std::size_t>& cut,
                             GlobalState& state) const {
  PSN_CHECK(cut.size() == events_.size(), "cut dimension mismatch");
  state.clear();
  for (std::size_t i = 0; i < cut.size(); ++i) {
    for (std::size_t k = 0; k < cut[i]; ++k) {
      const Event& e = events_[i][k];
      if (const auto column = state.column(e.var.name)) {
        state.set(*column, e.var.pid, e.value);
      }
    }
  }
}

std::vector<std::size_t> ExecutionView::final_cut() const {
  std::vector<std::size_t> cut(events_.size());
  for (std::size_t i = 0; i < events_.size(); ++i) cut[i] = events_[i].size();
  return cut;
}

}  // namespace psn::core
