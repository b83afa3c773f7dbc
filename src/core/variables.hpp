#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/name.hpp"
#include "common/types.hpp"

namespace psn::core {

/// A sensed variable: an object attribute as tracked by one sensor/actuator
/// process (paper §2.2: "each sensor/actuator process p_i has local variables
/// to track object attributes"). The paper's subscript convention —
/// "the subscript on a variable denotes the location where the variable is
/// sensed" — is exactly this pair. Handles never order (DESIGN.md §11), so a
/// VarRef only compares equal.
struct VarRef {
  ProcessId pid = kNoProcess;
  Name name;

  friend bool operator==(const VarRef&, const VarRef&) = default;
  std::string to_string() const {
    std::string out(name.str());
    out += '[';
    out += std::to_string(pid);
    out += ']';
    return out;
  }
};

class Predicate;

/// A (possibly partial) assembled global state: numeric values of sensed
/// variables across the system, as known to an observer at some point. Both
/// the ground-truth oracle and every detector evaluate a predicate against
/// one of these, bound to that predicate: a variable is (column, pid), and
/// column i holds φ's i-th name (Predicate::names()).
///
/// Variable store (DESIGN.md §11): each column holds its values and present
/// flags in vectors indexed by pid, so a column is walked in pid order, plus
/// a running count and exact sum, so sum(x) and count(x) evaluate in O(1)
/// instead of walking every variable once per delivered update.
class GlobalState {
 public:
  using ColumnId = std::uint32_t;

  /// Interns φ's names, once: column i is slot i of predicate.names().
  explicit GlobalState(const Predicate& predicate);

  /// The column of attribute `name`; nullopt when φ does not read it. φ
  /// reads a handful of names, so a scan of the columns' handles finds it.
  std::optional<ColumnId> column(Name name) const {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (columns_[c].name == name) return static_cast<ColumnId>(c);
    }
    return std::nullopt;
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

  std::optional<double> get(ColumnId column, ProcessId pid) const {
    const Column& c = columns_[column];
    if (pid >= c.values.size() || c.present[pid] == 0) return std::nullopt;
    return c.values[pid];
  }

  /// Allocation-free visitation of every (pid, value) of the column, in pid
  /// order — the fold min/max (and a sum the running total cannot
  /// reproduce exactly) evaluate through.
  template <typename Fn>
  void for_each(ColumnId column, Fn&& fn) const {
    const Column& c = columns_[column];
    for (std::size_t pid = 0; pid < c.values.size(); ++pid) {
      if (c.present[pid] != 0) fn(static_cast<ProcessId>(pid), c.values[pid]);
    }
  }
  /// Number of variables in the column.
  std::size_t count(ColumnId column) const {
    return columns_[column].totals.count;
  }
  /// The sum of the column's variables, when the running total is
  /// bit-identical to a fold over them in pid order; nullopt otherwise.
  /// Every present value is exact (an integer of magnitude at most 2^32)
  /// and there are at most 2^20 of them, so every partial sum of any fold
  /// is an integer below 2^52 and no addition rounds. Variables are only
  /// removed all at once (clear), so once the count passes 2^20 the total
  /// is not read again until then.
  std::optional<double> exact_sum(ColumnId column) const {
    const NameTotals& t = columns_[column].totals;
    if (t.inexact != 0 || t.count > kMaxExactCount) return std::nullopt;
    return t.exact_sum;
  }

  /// Forgets every value; the columns and their capacity stay.
  void clear() {
    for (Column& c : columns_) {
      std::fill(c.present.begin(), c.present.end(), char{0});
      c.totals = {};
    }
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

  std::vector<Column> columns_;
};

}  // namespace psn::core
