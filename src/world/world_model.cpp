#include "world/world_model.hpp"

#include <utility>

#include "common/error.hpp"

namespace psn::world {

ObjectId WorldModel::create_object(const std::string& name) {
  const auto id = static_cast<ObjectId>(objects_.size());
  objects_.emplace_back(id, name);
  return id;
}

WorldObject& WorldModel::object(ObjectId id) {
  PSN_CHECK(id < objects_.size(), "unknown world object id");
  return objects_[id];
}

const WorldObject& WorldModel::object(ObjectId id) const {
  PSN_CHECK(id < objects_.size(), "unknown world object id");
  return objects_[id];
}

WorldEventIndex WorldModel::emit(ObjectId object_id,
                                 const std::string& attribute,
                                 AttributeValue value) {
  WorldObject& obj = object(object_id);
  obj.set_attribute(attribute, value);

  WorldEvent ev;
  ev.when = sim_.now();
  ev.object = object_id;
  ev.attribute = attribute;
  ev.value = std::move(value);
  const WorldEventIndex idx = timeline_.append(std::move(ev));

  // Sinks observe the recorded (indexed) event.
  const WorldEvent& recorded = timeline_.at(idx);
  for (const auto& sink : sinks_) sink(recorded);
  return idx;
}

}  // namespace psn::world
