#include "sim/simulation.hpp"

#include <string>

#include "common/error.hpp"
#include "common/log.hpp"

namespace psn::sim {

Simulation::Simulation(SimConfig config)
    : config_(config), master_(config.seed) {
  PSN_CHECK(config_.horizon > SimTime::zero(), "horizon must be positive");
  if (config_.trace_capacity > 0) {
    trace_ = std::make_unique<TraceRecorder>(config_.trace_capacity);
  }
}

Rng Simulation::rng_for(const std::string& name, std::uint64_t index) const {
  return master_.substream(name, index);
}

std::size_t Simulation::run() {
  truncated_ = false;
  std::size_t total = 0;
  while (scheduler_.next_time() <= config_.horizon) {
    if (total >= config_.max_events) {
      // The cap fired with events still pending inside the horizon: a
      // runaway (e.g. self-rescheduling) event loop. Stop and report
      // truncation rather than executing toward SIZE_MAX.
      truncated_ = true;
      break;
    }
    scheduler_.step();
    total++;
  }
  if (truncated_) {
    log_warning("simulation hit max_events=" +
                std::to_string(config_.max_events) +
                " before horizon; results are truncated");
  }
  return total;
}

}  // namespace psn::sim
