#pragma once

#include <cmath>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/name.hpp"
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
/// one of these, and it is the only index of sensed variables: a variable
/// is (column, pid), where the column is its attribute name's small id.
///
/// Variable store (DESIGN.md §11): each column holds its values and present
/// flags in vectors indexed by pid, so a column is walked in pid order, plus
/// a running count and exact sum, so sum(x) and count(x) evaluate in O(1)
/// instead of walking every variable once per delivered update.
class GlobalState {
 public:
  using ColumnId = std::uint32_t;

  /// The column of attribute `name`, added on first sight. A scenario senses
  /// a handful of attributes, so a scan of the columns' handles finds it.
  ColumnId column(Name name) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (columns_[c].name == name) return static_cast<ColumnId>(c);
    }
    columns_.emplace_back().name = name;
    return static_cast<ColumnId>(columns_.size() - 1);
  }

  void set(ColumnId column, ProcessId pid, double value) {
    PSN_CHECK(pid != kNoProcess, "a sensed variable needs a process");
    Column& c = columns_[column];
    if (pid >= c.values.size()) {
      c.values.resize(std::size_t{pid} + 1);
      c.present.resize(std::size_t{pid} + 1);
    }
    if (c.present[pid] != 0) {
      c.totals.leave(c.values[pid]);
    } else {
      c.present[pid] = 1;
      c.totals.count++;
    }
    c.values[pid] = value;
    c.totals.enter(value);
  }
  void set(ProcessId pid, Name name, double value) {
    set(column(name), pid, value);
  }
  void set(const VarRef& var, double value) {  // interns a new column only
    const Column* c = find(var.name);
    set(c != nullptr ? static_cast<ColumnId>(c - columns_.data())
                     : column(Name(var.name)),
        var.pid, value);
  }

  std::optional<double> get(const VarRef& var) const {
    const Column* c = find(var.name);
    if (c == nullptr || var.pid >= c->values.size() ||
        c->present[var.pid] == 0) {
      return std::nullopt;
    }
    return c->values[var.pid];
  }

  /// Allocation-free visitation of every (pid, value) of this name, in pid
  /// order — the fold min/max (and a sum the running total cannot
  /// reproduce exactly) evaluate through.
  template <typename Fn>
  void for_each_named(std::string_view name, Fn&& fn) const {
    const Column* c = find(name);
    if (c == nullptr) return;
    for (std::size_t pid = 0; pid < c->values.size(); ++pid) {
      if (c->present[pid] != 0) fn(static_cast<ProcessId>(pid), c->values[pid]);
    }
  }
  /// Number of variables with this name.
  std::size_t count_named(std::string_view name) const {
    const Column* c = find(name);
    return c == nullptr ? 0 : c->totals.count;
  }
  /// The sum of every variable with this name, when the running total is
  /// bit-identical to a fold over them in pid order; nullopt otherwise.
  /// Every present value is exact (an integer of magnitude at most 2^32)
  /// and there are at most 2^20 of them, so every partial sum of any fold
  /// is an integer below 2^52 and no addition rounds. Variables are never
  /// removed, so once the count passes 2^20 the total is never read again.
  std::optional<double> exact_sum_named(std::string_view name) const {
    const Column* c = find(name);
    if (c == nullptr) return 0.0;
    const NameTotals& t = c->totals;
    if (t.inexact != 0 || t.count > kMaxExactCount) return std::nullopt;
    return t.exact_sum;
  }

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

  /// Every variable of one attribute name, indexed by pid.
  struct Column {
    Name name;
    std::vector<double> values;
    std::vector<char> present;
    NameTotals totals;
  };

  const Column* find(std::string_view name) const {
    for (const Column& c : columns_) {
      if (c.name.str() == name) return &c;
    }
    return nullptr;
  }

  std::vector<Column> columns_;
};

}  // namespace psn::core
