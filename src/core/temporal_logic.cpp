#include "core/temporal_logic.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace psn::core::mtl {

namespace {

/// Sorts, clamps to [0, H), drops empties, and merges touching intervals.
std::vector<Occurrence> normalize(std::vector<Occurrence> xs, SimTime horizon) {
  std::vector<Occurrence> clamped;
  for (auto& x : xs) {
    const SimTime b = std::max(x.begin, SimTime::zero());
    const SimTime e = std::min(x.end, horizon);
    if (b < e) clamped.push_back({b, e});
  }
  std::sort(clamped.begin(), clamped.end(),
            [](const Occurrence& a, const Occurrence& b) {
              return a.begin < b.begin;
            });
  std::vector<Occurrence> out;
  for (const auto& x : clamped) {
    if (!out.empty() && x.begin <= out.back().end) {
      out.back().end = std::max(out.back().end, x.end);
    } else {
      out.push_back(x);
    }
  }
  return out;
}

}  // namespace

BoolSignal::BoolSignal(bool initial, std::vector<Transition> transitions,
                       SimTime horizon)
    : horizon_(horizon) {
  PSN_CHECK(horizon > SimTime::zero(), "signal horizon must be positive");
  bool value = initial;
  SimTime since = SimTime::zero();
  std::vector<Occurrence> intervals;
  for (const auto& tr : transitions) {
    PSN_CHECK(tr.when >= since, "transitions must be time-ordered");
    if (tr.to_true == value) continue;
    if (value) intervals.push_back({since, tr.when});
    value = tr.to_true;
    since = tr.when;
  }
  if (value) intervals.push_back({since, horizon});
  intervals_ = normalize(std::move(intervals), horizon);
}

BoolSignal BoolSignal::from_intervals(std::vector<Occurrence> intervals,
                                      SimTime horizon) {
  PSN_CHECK(horizon > SimTime::zero(), "signal horizon must be positive");
  BoolSignal s(false, {}, horizon);
  s.intervals_ = normalize(std::move(intervals), horizon);
  return s;
}

BoolSignal BoolSignal::operator!() const {
  std::vector<Occurrence> out;
  SimTime cursor = SimTime::zero();
  for (const auto& x : intervals_) {
    if (cursor < x.begin) out.push_back({cursor, x.begin});
    cursor = x.end;
  }
  if (cursor < horizon_) out.push_back({cursor, horizon_});
  return from_intervals(std::move(out), horizon_);
}

BoolSignal BoolSignal::operator&&(const BoolSignal& other) const {
  PSN_CHECK(horizon_ == other.horizon_, "signal horizons differ");
  std::vector<Occurrence> out;
  std::size_t i = 0, j = 0;
  while (i < intervals_.size() && j < other.intervals_.size()) {
    const auto& a = intervals_[i];
    const auto& b = other.intervals_[j];
    const SimTime lo = std::max(a.begin, b.begin);
    const SimTime hi = std::min(a.end, b.end);
    if (lo < hi) out.push_back({lo, hi});
    if (a.end < b.end) {
      i++;
    } else {
      j++;
    }
  }
  return from_intervals(std::move(out), horizon_);
}

BoolSignal BoolSignal::eventually(Duration lo, Duration hi) const {
  PSN_CHECK(Duration::zero() <= lo && lo <= hi,
            "eventually needs 0 <= lo <= hi");
  // F[lo,hi] φ holds at t iff [t+lo, t+hi] intersects a φ-interval [b, e):
  //   t >= b - hi  and  t < e - lo.
  std::vector<Occurrence> out;
  for (const auto& x : intervals_) {
    const SimTime b = x.begin - hi;   // may go negative; normalize clamps
    const SimTime e = x.end - lo;
    out.push_back({b, e});
  }
  return from_intervals(std::move(out), horizon_);
}

bool responds_within(const BoolSignal& trigger, const BoolSignal& response,
                     Duration deadline) {
  // G (trigger → F[0, deadline] response): the set of trigger-times not
  // covered by "response eventually within the deadline" must be empty.
  const BoolSignal satisfied = response.eventually(Duration::zero(), deadline);
  const BoolSignal violation = trigger && !satisfied;
  return !violation.ever();
}

}  // namespace psn::core::mtl
