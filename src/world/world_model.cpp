#include "world/world_model.hpp"

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

WorldEventIndex WorldModel::emit(ObjectId object_id, Name attribute,
                                 AttributeValue value) {
  WorldObject& obj = object(object_id);
  obj.set_attribute(attribute, value);

  const WorldEventIndex idx =
      timeline_.append({sim_.now(), object_id, attribute, value});

  // Sinks observe the recorded (indexed) event.
  const WorldEvent& recorded = timeline_.at(idx);
  for (const auto& sink : sinks_) sink(recorded);
  return idx;
}

}  // namespace psn::world
