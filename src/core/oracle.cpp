#include "core/oracle.hpp"

#include <utility>

#include "common/error.hpp"

namespace psn::core {

GroundTruthOracle::GroundTruthOracle(Predicate predicate,
                                     const SensingMap& sensing)
    : predicate_(std::move(predicate)), sensing_(sensing) {}

OracleResult GroundTruthOracle::evaluate(const world::WorldTimeline& timeline,
                                         SimTime horizon) const {
  OracleResult result;
  GlobalState state;

  bool holding = predicate_.holds(state);
  SimTime hold_begin = SimTime::zero();
  if (holding) {
    result.transitions.push_back({SimTime::zero(), true, world::kNoWorldEvent});
  }

  Duration total_true = Duration::zero();
  for (const auto& ev : timeline.events()) {
    if (ev.when > horizon) break;
    const ProcessId pid = sensing_.sensor_of(ev.object, ev.attribute);
    if (pid == kNoProcess) continue;
    state.set(pid, ev.attribute, ev.value.numeric());

    const bool now_holds = predicate_.holds(state);
    if (now_holds == holding) continue;
    result.transitions.push_back({ev.when, now_holds, ev.index});
    if (now_holds) {
      hold_begin = ev.when;
    } else {
      result.occurrences.push_back({hold_begin, ev.when});
      total_true += ev.when - hold_begin;
    }
    holding = now_holds;
  }

  if (holding) {
    result.occurrences.push_back({hold_begin, horizon});
    total_true += horizon - hold_begin;
  }
  result.fraction_true =
      horizon > SimTime::zero()
          ? total_true.to_seconds() / (horizon - SimTime::zero()).to_seconds()
          : 0.0;
  return result;
}

}  // namespace psn::core
