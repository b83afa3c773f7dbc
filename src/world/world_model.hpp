#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulation.hpp"
#include "world/event.hpp"
#include "world/object.hpp"
#include "world/timeline.hpp"

namespace psn::world {

/// The world plane: the objects O of the paper's ⟨O, C⟩, attached to a
/// simulation. The covert channels C (paper §2.1) are not simulated, because
/// no experiment needs them. Attribute changes are *emitted* into the model;
/// the model updates the object, appends ground truth to the timeline, and
/// notifies sinks (the sensing layer subscribes here).
class WorldModel {
 public:
  explicit WorldModel(sim::Simulation& sim) : sim_(sim) {}

  ObjectId create_object(const std::string& name, Point2D location = {});
  WorldObject& object(ObjectId id);
  const WorldObject& object(ObjectId id) const;
  std::size_t num_objects() const { return objects_.size(); }

  /// Observer of emitted world events. Sinks see events in emission order at
  /// the instant they happen (they model physical co-location of a sensor
  /// with the object, not network transmission).
  using Sink = std::function<void(const WorldEvent&)>;
  void add_sink(Sink sink) { sinks_.push_back(std::move(sink)); }

  /// Records a change of `attribute` of `object` to `value`, now.
  WorldEventIndex emit(ObjectId object, const std::string& attribute,
                       AttributeValue value);

  /// Observer of object movement. Mobility models (world/mobility) call
  /// move(); proximity sensing (core/proximity) subscribes here. Movement is
  /// continuous physical state, not an attribute change, so it does not
  /// enter the event timeline by itself.
  using MoveSink = std::function<void(ObjectId, const Point2D&)>;
  void add_move_sink(MoveSink sink) { move_sinks_.push_back(std::move(sink)); }

  /// Relocates an object and notifies move sinks.
  void move(ObjectId object, const Point2D& to);

  const WorldTimeline& timeline() const { return timeline_; }
  sim::Simulation& simulation() { return sim_; }

 private:
  sim::Simulation& sim_;
  std::vector<WorldObject> objects_;
  std::vector<Sink> sinks_;
  std::vector<MoveSink> move_sinks_;
  WorldTimeline timeline_;
};

}  // namespace psn::world
