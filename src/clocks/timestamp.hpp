#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace psn::clocks {

/// Relation between two timestamps under a (partial or total) order.
enum class Ordering {
  kBefore,      ///< a < b
  kAfter,       ///< a > b
  kEqual,       ///< a == b
  kConcurrent,  ///< a || b (only possible under partial orders)
};

const char* to_string(Ordering o);

/// A scalar timestamp with its issuing process, totally ordered by
/// (value, pid) — the standard Lamport tie-break that turns the scalar
/// clock's partial consistency into a total order usable as a single time
/// axis (paper §3.2.1.a.iii).
struct ScalarStamp {
  std::uint64_t value = 0;
  ProcessId pid = kNoProcess;

  friend bool operator==(const ScalarStamp&, const ScalarStamp&) = default;
  friend bool operator<(const ScalarStamp& a, const ScalarStamp& b) {
    if (a.value != b.value) return a.value < b.value;
    return a.pid < b.pid;
  }
  std::string to_string() const;
  /// Wire size in bytes (for message-overhead accounting, experiment E7):
  /// one 64-bit counter — O(1), independent of n.
  static std::size_t wire_size() { return sizeof(std::uint64_t); }
};

Ordering compare(const ScalarStamp& a, const ScalarStamp& b);

/// A vector timestamp: one component per process in P. Comparison yields the
/// standard partial order; `Concurrent` means neither dominates.
class VectorStamp {
 public:
  VectorStamp() = default;
  explicit VectorStamp(std::size_t n) : v_(n, 0) {}
  explicit VectorStamp(std::vector<std::uint64_t> v) : v_(std::move(v)) {}

  std::size_t size() const { return v_.size(); }
  std::uint64_t operator[](std::size_t i) const { return v_[i]; }
  std::uint64_t& operator[](std::size_t i) { return v_[i]; }
  const std::vector<std::uint64_t>& components() const { return v_; }

  /// Component-wise max into this (the merge step of VC3/SVC2).
  void merge(const VectorStamp& other);

  friend bool operator==(const VectorStamp&, const VectorStamp&) = default;

  std::string to_string() const;
  /// Wire size in bytes: n 64-bit counters — O(n) (paper §4.2.2 contrasts
  /// this with the O(1) scalar strobe).
  std::size_t wire_size() const { return v_.size() * sizeof(std::uint64_t); }

 private:
  std::vector<std::uint64_t> v_;
};

Ordering compare(const VectorStamp& a, const VectorStamp& b);

/// True iff neither vector dominates the other (a race, in the paper's
/// terminology, when the stamps come from strobe clocks).
bool concurrent(const VectorStamp& a, const VectorStamp& b);

/// Happens-before under the vector-clock order: a → b.
bool happens_before(const VectorStamp& a, const VectorStamp& b);

}  // namespace psn::clocks
