#include "clocks/timestamp.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace psn::clocks {

const char* to_string(Ordering o) {
  switch (o) {
    case Ordering::kBefore: return "before";
    case Ordering::kAfter: return "after";
    case Ordering::kEqual: return "equal";
    case Ordering::kConcurrent: return "concurrent";
  }
  return "?";
}

std::string ScalarStamp::to_string() const {
  return std::to_string(value) + "@" + std::to_string(pid);
}

Ordering compare(const ScalarStamp& a, const ScalarStamp& b) {
  if (a == b) return Ordering::kEqual;
  return a < b ? Ordering::kBefore : Ordering::kAfter;
}

void VectorStamp::merge(const VectorStamp& other) {
  PSN_CHECK(v_.size() == other.v_.size(),
            "vector stamps of different dimension");
  for (std::size_t i = 0; i < v_.size(); ++i) {
    v_[i] = std::max(v_[i], other.v_[i]);
  }
}

std::string VectorStamp::to_string() const {
  std::string out = "[";
  for (std::size_t i = 0; i < v_.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(v_[i]);
  }
  out += "]";
  return out;
}

namespace {

// The order tests below make one pass over the components and stop as soon
// as the answer is fixed: the strobe-soundness scan and the race scan call
// them once per event pair. Past the equal prefix, the first differing
// component fixes the only order still possible, and the rest of the pass
// only has to confirm it.

/// The first index where a and b differ (their size if equal), after
/// checking that their dimensions agree.
std::size_t first_difference(const VectorStamp& a, const VectorStamp& b) {
  PSN_CHECK(a.size() == b.size(), "vector stamps of different dimension");
  std::size_t i = 0;
  while (i < a.size() && a[i] == b[i]) ++i;
  return i;
}

/// a[i] <= b[i] for every i from `from` on.
bool dominated_from(const VectorStamp& a, const VectorStamp& b,
                    std::size_t from) {
  for (std::size_t i = from; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
  }
  return true;
}

}  // namespace

Ordering compare(const VectorStamp& a, const VectorStamp& b) {
  const std::size_t i = first_difference(a, b);
  if (i == a.size()) return Ordering::kEqual;
  if (a[i] < b[i]) {
    return dominated_from(a, b, i + 1) ? Ordering::kBefore
                                       : Ordering::kConcurrent;
  }
  return dominated_from(b, a, i + 1) ? Ordering::kAfter
                                     : Ordering::kConcurrent;
}

bool concurrent(const VectorStamp& a, const VectorStamp& b) {
  return compare(a, b) == Ordering::kConcurrent;
}

bool happens_before(const VectorStamp& a, const VectorStamp& b) {
  const std::size_t i = first_difference(a, b);
  return i < a.size() && a[i] < b[i] && dominated_from(a, b, i + 1);
}

}  // namespace psn::clocks
