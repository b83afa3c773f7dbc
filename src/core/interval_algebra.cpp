#include "core/interval_algebra.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "common/error.hpp"

namespace psn::core {

AllenRelation classify(const TimeInterval& a, const TimeInterval& b) {
  PSN_CHECK(a.begin < a.end && b.begin < b.end,
            "Allen classification requires non-empty intervals");
  if (a.end < b.begin) return AllenRelation::kBefore;
  if (a.end == b.begin) return AllenRelation::kMeets;
  if (b.end < a.begin) return AllenRelation::kAfter;
  if (b.end == a.begin) return AllenRelation::kMetBy;
  // They overlap in at least a point-interior.
  if (a.begin == b.begin) {
    if (a.end == b.end) return AllenRelation::kEqual;
    return a.end < b.end ? AllenRelation::kStarts : AllenRelation::kStartedBy;
  }
  if (a.end == b.end) {
    return a.begin > b.begin ? AllenRelation::kFinishes
                             : AllenRelation::kFinishedBy;
  }
  if (a.begin > b.begin && a.end < b.end) return AllenRelation::kDuring;
  if (b.begin > a.begin && b.end < a.end) return AllenRelation::kContains;
  return a.begin < b.begin ? AllenRelation::kOverlaps
                           : AllenRelation::kOverlappedBy;
}

CausalIntervalRelation classify_causal(const StampedInterval& a,
                                       const StampedInterval& b) {
  const bool a_prec = a.end_stamp.has_value() &&
                      clocks::happens_before(*a.end_stamp, b.begin_stamp);
  const bool b_prec = b.end_stamp.has_value() &&
                      clocks::happens_before(*b.end_stamp, a.begin_stamp);
  PSN_CHECK(!(a_prec && b_prec), "intervals cannot mutually precede");
  if (a_prec) return CausalIntervalRelation::kPrecedes;
  if (b_prec) return CausalIntervalRelation::kPrecededBy;
  return CausalIntervalRelation::kConcurrent;
}

std::vector<StampedInterval> extract_intervals(
    const ObservationLog& log, const VarRef& var,
    const std::function<bool(double)>& condition) {
  PSN_CHECK(static_cast<bool>(condition), "null condition");
  // Collect this variable's reports in *stamp* order (the sender's own
  // sequence), so out-of-order delivery does not fabricate intervals. The
  // sender's reports are totally ordered by its own strobe-vector component.
  struct Item {
    std::uint64_t seq;
    const ReceivedUpdate* update;
  };
  std::vector<Item> items;
  for (const auto& u : log.updates) {
    if (u.reporter != var.pid || u.report.attribute.str() != var.name) continue;
    items.push_back({u.report.strobe_vector[var.pid], &u});
  }
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& b) { return a.seq < b.seq; });

  std::vector<StampedInterval> out;
  bool holding = false;
  StampedInterval current;
  for (const auto& [seq, u] : items) {
    const bool now = condition(u->report.value.numeric());
    if (now == holding) continue;
    if (now) {
      current = StampedInterval{};
      current.var = var;
      current.when.begin = u->report.synced_timestamp;
      current.begin_stamp = u->report.strobe_vector;
    } else {
      current.when.end = u->report.synced_timestamp;
      current.end_stamp = u->report.strobe_vector;
      if (current.when.valid()) out.push_back(current);
    }
    holding = now;
  }
  if (holding) {
    current.when.end = SimTime::max();
    out.push_back(current);  // open at the horizon
  }
  return out;
}

bool satisfies(const TimeInterval& a, const TimeInterval& b,
               const RelativeTimingSpec& spec) {
  switch (spec.relation) {
    case AllenRelation::kBefore: {
      if (!(a.end <= b.begin)) return false;
      const Duration gap = b.begin - a.end;
      return gap >= spec.min_gap &&
             (spec.max_gap == Duration::max() || gap <= spec.max_gap);
    }
    case AllenRelation::kAfter: {
      RelativeTimingSpec flipped = spec;
      flipped.relation = AllenRelation::kBefore;
      return satisfies(b, a, flipped);
    }
    default: {
      // Exact Allen relation; gap bounds are meaningless here.
      if (a.begin >= a.end || b.begin >= b.end) return false;
      return classify(a, b) == spec.relation;
    }
  }
}

RelativeTimingDetector::RelativeTimingDetector(
    VarRef x_var, std::function<bool(double)> x_cond, VarRef y_var,
    std::function<bool(double)> y_cond, RelativeTimingSpec spec)
    : x_var_(std::move(x_var)),
      y_var_(std::move(y_var)),
      x_cond_(std::move(x_cond)),
      y_cond_(std::move(y_cond)),
      spec_(spec) {
  PSN_CHECK(static_cast<bool>(x_cond_) && static_cast<bool>(y_cond_),
            "null interval condition");
}

std::vector<RelativeTimingMatch> RelativeTimingDetector::run(
    const ObservationLog& log) const {
  const auto xs = extract_intervals(log, x_var_, x_cond_);
  const auto ys = extract_intervals(log, y_var_, y_cond_);

  std::vector<RelativeTimingMatch> out;
  for (const auto& x : xs) {
    for (const auto& y : ys) {
      if (!satisfies(x.when, y.when, spec_)) continue;
      RelativeTimingMatch m;
      m.x = x;
      m.y = y;
      // Causal certification: does the partial order agree with the claimed
      // direction? (Only meaningful for the ordered relations.)
      const CausalIntervalRelation causal = classify_causal(x, y);
      if (spec_.relation == AllenRelation::kBefore ||
          spec_.relation == AllenRelation::kMeets) {
        m.causally_certified = causal == CausalIntervalRelation::kPrecedes;
      } else if (spec_.relation == AllenRelation::kAfter ||
                 spec_.relation == AllenRelation::kMetBy) {
        m.causally_certified = causal == CausalIntervalRelation::kPrecededBy;
      } else {
        // Overlap-family relations are certified when the stamps do NOT
        // order the intervals apart.
        m.causally_certified = causal == CausalIntervalRelation::kConcurrent;
      }
      out.push_back(std::move(m));
    }
  }
  return out;
}

}  // namespace psn::core
