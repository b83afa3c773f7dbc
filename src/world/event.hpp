#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "common/sim_time.hpp"
#include "world/attribute.hpp"
#include "world/object.hpp"

namespace psn::world {

/// Index of a WorldEvent within its timeline.
using WorldEventIndex = std::size_t;
inline constexpr WorldEventIndex kNoWorldEvent =
    std::numeric_limits<std::size_t>::max();

/// A significant change of one attribute of one object, at one instant of
/// true physical time. This is the ground truth the network plane tries to
/// observe; it never carries a clock value of its own (objects are clockless).
struct WorldEvent {
  SimTime when;
  ObjectId object = kNoObject;
  std::string attribute;
  AttributeValue value;
  Point2D location;

  /// Sequence number assigned by the timeline on insertion.
  WorldEventIndex index = kNoWorldEvent;
};

}  // namespace psn::world
