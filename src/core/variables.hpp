#pragma once

#include <cmath>
#include <compare>
#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace psn::core {

/// A sensed variable: an object attribute as tracked by one sensor/actuator
/// process (paper §2.2: "each sensor/actuator process p_i has local variables
/// to track object attributes"). The paper's subscript convention —
/// "the subscript on a variable denotes the location where the variable is
/// sensed" — is exactly this pair.
struct VarRef {
  ProcessId pid = kNoProcess;
  std::string name;

  auto operator<=>(const VarRef&) const = default;
  std::string to_string() const {
    return name + "[" + std::to_string(pid) + "]";
  }
};

/// A (possibly partial) assembled global state: numeric values of sensed
/// variables across the system, as known to an observer at some point. Both
/// the ground-truth oracle and every detector evaluate predicates against
/// one of these.
///
/// Incremental aggregates (DESIGN.md §11): set() keeps a per-name record of
/// count and exact running sum, so sum(x) and count(x) evaluate in O(1)
/// instead of walking every variable once per delivered update.
class GlobalState {
 public:
  void set(const VarRef& var, double value) {
    const auto [it, inserted] = values_.try_emplace(var, value);
    auto totals = totals_.find(var.name);
    if (totals == totals_.end()) {
      totals = totals_.emplace(var.name, NameTotals{}).first;
    }
    if (inserted) {
      totals->second.count++;
    } else {
      totals->second.leave(it->second);
      it->second = value;
    }
    totals->second.enter(value);
  }
  std::optional<double> get(const VarRef& var) const {
    const auto it = values_.find(var);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  bool has(const VarRef& var) const { return values_.contains(var); }

  /// All variables with the given name, across processes — the domain of the
  /// paper's system-wide relational predicates such as Σ(x_i − y_i).
  std::vector<VarRef> vars_named(const std::string& name) const;

  /// Allocation-free visitation of every (var, value) whose name matches, in
  /// pid order — the fold min/max (and a sum the running total cannot
  /// reproduce exactly) evaluate through.
  template <typename Fn>
  void for_each_named(const std::string& name, Fn&& fn) const {
    for (const auto& [ref, value] : values_) {
      if (ref.name == name) fn(ref, value);
    }
  }
  /// Number of variables with this name: one lookup among the distinct
  /// names (a handful), never a walk of the variables.
  std::size_t count_named(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0 : it->second.count;
  }
  /// True iff at least one variable with this name has been reported.
  bool has_named(const std::string& name) const {
    return count_named(name) > 0;
  }
  /// The sum of every variable with this name, when the running total is
  /// bit-identical to a fold over them in pid order; nullopt otherwise.
  /// Every present value is exact (an integer of magnitude at most 2^32)
  /// and there are at most 2^20 of them, so every partial sum of any fold
  /// is an integer below 2^52 and no addition rounds. Variables are never
  /// removed, so once the count passes 2^20 the total is never read again.
  std::optional<double> exact_sum_named(const std::string& name) const {
    const auto it = totals_.find(name);
    if (it == totals_.end()) return 0.0;
    const NameTotals& t = it->second;
    if (t.inexact != 0 || t.count > kMaxExactCount) return std::nullopt;
    return t.exact_sum;
  }

  std::size_t size() const { return values_.size(); }
  const std::map<VarRef, double>& values() const { return values_; }

 private:
  static constexpr std::size_t kMaxExactCount = std::size_t{1} << 20;

  /// Per-name record. exact_sum covers only the exact values, so an inexact
  /// value (non-integral, huge, NaN, ±inf) leaves no rounding residue or NaN
  /// behind once it is overwritten.
  struct NameTotals {
    std::size_t count = 0;
    std::size_t inexact = 0;
    double exact_sum = 0.0;

    static bool is_exact(double v) {
      // NaN and ±inf fail the magnitude test.
      return std::fabs(v) <= 0x1p32 && std::trunc(v) == v;
    }
    void enter(double v) {
      if (is_exact(v)) {
        exact_sum += v;
      } else {
        inexact++;
      }
    }
    void leave(double v) {
      if (is_exact(v)) {
        exact_sum -= v;
      } else {
        inexact--;
      }
    }
  };

  std::map<VarRef, double> values_;
  std::map<std::string, NameTotals> totals_;
};

}  // namespace psn::core
