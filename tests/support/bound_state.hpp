#pragma once

#include <initializer_list>
#include <string_view>
#include <utility>

#include "core/predicate_parser.hpp"

namespace psn::test_support {

using Entries = std::initializer_list<std::pair<core::VarRef, double>>;

/// A state bound to `predicate` holding `entries`. An entry whose name the
/// predicate does not read is dropped, as the detectors' update path drops
/// it.
inline core::GlobalState bound_state(const core::Predicate& predicate,
                                     Entries entries = {}) {
  core::GlobalState state(predicate);
  for (const auto& [ref, value] : entries) {
    if (const auto column = state.column(ref.name)) {
      state.set(*column, ref.pid, value);
    }
  }
  return state;
}

/// The value of the predicate `text` on a bound state holding `entries`.
inline double eval(std::string_view text, Entries entries = {}) {
  const core::Predicate predicate = core::parse_predicate("p", text);
  return predicate.evaluate(bound_state(predicate, entries));
}

inline bool holds(std::string_view text, Entries entries = {}) {
  return eval(text, entries) != 0.0;
}

}  // namespace psn::test_support
