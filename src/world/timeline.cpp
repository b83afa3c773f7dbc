#include "world/timeline.hpp"

#include <utility>

#include "common/error.hpp"

namespace psn::world {

WorldEventIndex WorldTimeline::append(WorldEvent ev) {
  PSN_CHECK(events_.empty() || ev.when >= events_.back().when,
            "timeline events must be appended in time order");
  const WorldEventIndex idx = events_.size();
  ev.index = idx;
  events_.push_back(std::move(ev));
  return idx;
}

const WorldEvent& WorldTimeline::at(WorldEventIndex i) const {
  PSN_CHECK(i < events_.size(), "world event index out of range");
  return events_[i];
}

}  // namespace psn::world
