#include "world/object.hpp"

#include "common/error.hpp"

namespace psn::world {

const AttributeValue* WorldObject::find(Name attr) const {
  for (const auto& [name, value] : attrs_) {
    if (name == attr) return &value;
  }
  return nullptr;
}

const AttributeValue& WorldObject::attribute(Name attr) const {
  const AttributeValue* value = find(attr);
  PSN_CHECK(value != nullptr, "object '" + name_ + "' has no attribute '" +
                                  std::string(attr.str()) + "'");
  return *value;
}

void WorldObject::set_attribute(Name attr, AttributeValue value) {
  for (auto& [name, current] : attrs_) {
    if (name == attr) {
      current = value;
      return;
    }
  }
  attrs_.emplace_back(attr, value);
}

}  // namespace psn::world
