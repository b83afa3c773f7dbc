#pragma once

#include <vector>

#include "world/event.hpp"

namespace psn::world {

/// Append-only ground-truth record of every world event in true-time order.
///
/// The oracle (core/oracle) replays this to compute exactly when a global
/// predicate held, independent of any clock or message delay; detector output
/// is scored against that.
class WorldTimeline {
 public:
  /// Appends an event; `when` must be non-decreasing. Returns its index.
  WorldEventIndex append(WorldEvent ev);

  const std::vector<WorldEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  const WorldEvent& at(WorldEventIndex i) const;

 private:
  std::vector<WorldEvent> events_;
};

}  // namespace psn::world
