#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
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

  ObjectId create_object(const std::string& name);
  WorldObject& object(ObjectId id);
  const WorldObject& object(ObjectId id) const;

  /// Observer of emitted world events. Sinks see events in emission order at
  /// the instant they happen (they model physical co-location of a sensor
  /// with the object, not network transmission).
  using Sink = std::function<void(const WorldEvent&)>;
  void add_sink(Sink sink) { sinks_.push_back(std::move(sink)); }

  /// Records a change of `attribute` of `object` to `value`, now.
  WorldEventIndex emit(ObjectId object, Name attribute, AttributeValue value);

  const WorldTimeline& timeline() const { return timeline_; }
  /// Moves the timeline out (the model's is left empty), for a caller that
  /// keeps the ground truth past the model's simulation.
  WorldTimeline take_timeline() { return std::move(timeline_); }
  sim::Simulation& simulation() { return sim_; }

 private:
  sim::Simulation& sim_;
  std::vector<WorldObject> objects_;
  std::vector<Sink> sinks_;
  WorldTimeline timeline_;
};

}  // namespace psn::world
