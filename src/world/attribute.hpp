#pragma once

#include <cstdint>
#include <variant>

#include "common/error.hpp"

namespace psn::world {

/// Value of one attribute of a world object. Objects in the world plane are
/// passive: they have no clocks; their attributes just change over (true)
/// physical time, and sensors observe those changes.
class AttributeValue {
 public:
  AttributeValue() : v_(std::int64_t{0}) {}
  AttributeValue(std::int64_t v) : v_(v) {}          // NOLINT implicit by design
  AttributeValue(int v) : v_(std::int64_t{v}) {}     // NOLINT
  AttributeValue(double v) : v_(v) {}                // NOLINT
  AttributeValue(bool v) : v_(v) {}                  // NOLINT

  bool is_int() const { return std::holds_alternative<std::int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }

  std::int64_t as_int() const {
    PSN_CHECK(is_int(), "attribute is not an integer");
    return std::get<std::int64_t>(v_);
  }
  double as_double() const {
    PSN_CHECK(is_double(), "attribute is not a double");
    return std::get<double>(v_);
  }
  bool as_bool() const {
    PSN_CHECK(is_bool(), "attribute is not a bool");
    return std::get<bool>(v_);
  }

  /// Numeric view used by predicate evaluation: ints and doubles pass
  /// through; bools map to 0/1.
  double numeric() const {
    if (is_int()) return static_cast<double>(std::get<std::int64_t>(v_));
    if (is_double()) return std::get<double>(v_);
    return std::get<bool>(v_) ? 1.0 : 0.0;
  }

  bool operator==(const AttributeValue& o) const { return v_ == o.v_; }

 private:
  std::variant<std::int64_t, double, bool> v_;
};

}  // namespace psn::world
