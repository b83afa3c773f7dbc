#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "world/attribute.hpp"

namespace psn::world {

using ObjectId = std::uint32_t;
inline constexpr ObjectId kNoObject = UINT32_MAX;

/// A passive external-world object (paper §2.1: o ∈ O). It has attributes
/// that can be sensed/actuated by processes in P, but no clock of its own and
/// no network presence.
class WorldObject {
 public:
  WorldObject(ObjectId id, std::string name)
      : id_(id), name_(std::move(name)) {}

  ObjectId id() const { return id_; }
  const std::string& name() const { return name_; }

  bool has_attribute(const std::string& attr) const {
    return attrs_.contains(attr);
  }
  const AttributeValue& attribute(const std::string& attr) const;
  void set_attribute(const std::string& attr, AttributeValue value) {
    attrs_[attr] = value;
  }
  const std::map<std::string, AttributeValue>& attributes() const {
    return attrs_;
  }

 private:
  ObjectId id_;
  std::string name_;
  std::map<std::string, AttributeValue> attrs_;
};

}  // namespace psn::world
