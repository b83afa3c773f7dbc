#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/name.hpp"
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

  /// The attribute's value, or nullptr if it was never set.
  const AttributeValue* find(Name attr) const;
  const AttributeValue& attribute(Name attr) const;
  void set_attribute(Name attr, AttributeValue value);

 private:
  ObjectId id_;
  std::string name_;
  std::vector<std::pair<Name, AttributeValue>> attrs_;  ///< a handful
};

}  // namespace psn::world
