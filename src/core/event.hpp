#pragma once

#include "clocks/clock_bundle.hpp"
#include "common/name.hpp"
#include "common/sim_time.hpp"
#include "common/types.hpp"
#include "world/event.hpp"

namespace psn::core {

/// The paper's execution model (§2.2): at each process, local execution is a
/// sequence of states and transitions caused by events of five types.
enum class EventType : std::uint8_t {
  kCompute,  ///< c — internal computation
  kSense,    ///< n — observation of a world-plane attribute change
  kActuate,  ///< a — output to a world-plane object
  kSend,     ///< s — send of a computation message to another process in P
  kReceive,  ///< r — receive of a computation message
};

const char* to_string(EventType t);

/// One recorded event of a process's local execution. Carries the full clock
/// bundle snapshot taken *after* the event's clock rules fired, so any
/// detector/analysis can reconstruct its view under any time model.
struct ProcessEvent {
  ProcessId pid = kNoProcess;
  EventType type = EventType::kCompute;
  /// 1-based index of this event within its process's local sequence.
  std::size_t local_index = 0;
  clocks::ClockSnapshot clocks;

  /// For sense events: the attribute sensed and its new value (the variable
  /// is VarRef{pid, attribute}); empty for every other event type.
  Name attribute;
  double value = 0.0;
  /// For sense events: which world event was observed.
  world::WorldEventIndex world_event = world::kNoWorldEvent;
  /// Transport sequence id tying this event to the network plane (0 = none):
  /// the strobe broadcast triggered by an n event, the computation message of
  /// an s or r event. psn::check matches s/r pairs on it.
  std::uint64_t message_seq = 0;
};

}  // namespace psn::core
