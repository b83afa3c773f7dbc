#include "core/detectors.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <span>
#include <utility>

#include "clocks/timestamp.hpp"
#include "common/error.hpp"
#include "common/hot.hpp"

namespace psn::core {

namespace {

/// Shared evaluation shell: applies accepted updates to a GlobalState and
/// turns truth-value changes into Detections.
class TransitionTracker {
 public:
  explicit TransitionTracker(const Predicate& predicate)
      : predicate_(predicate), holding_(predicate.holds(state_)) {}

  GlobalState& state() { return state_; }
  const GlobalState& state() const { return state_; }
  bool holding() const { return holding_; }

  /// Re-evaluates after an applied update; returns a Detection on change.
  /// The optional form (no vector, no push_back) is what the PSN_HOT
  /// incremental feed calls — a transition must not cost an allocation.
  std::optional<Detection> evaluate_one(const ReceivedUpdate& update,
                                        std::size_t index, bool borderline) {
    const bool now_holds = predicate_.holds(state_);
    if (now_holds == holding_) return std::nullopt;
    holding_ = now_holds;
    Detection d;
    d.detected_at = update.delivered_at;
    d.to_true = now_holds;
    d.borderline = borderline;
    d.cause_true_time = update.report.true_sense_time;
    d.update_index = index;
    return d;
  }

  /// Re-evaluates after an applied update; appends a Detection on change.
  void evaluate(const ReceivedUpdate& update, std::size_t index,
                bool borderline, std::vector<Detection>& out) {
    if (auto d = evaluate_one(update, index, borderline)) out.push_back(*d);
  }

 private:
  const Predicate& predicate_;
  GlobalState state_;
  bool holding_;
};

using ColumnId = GlobalState::ColumnId;

/// A per-variable detector table, keyed by the tracked state's own
/// (column, pid) index. Rows grow on first sight of a variable; steady state
/// neither searches nor allocates.
template <typename T>
class VarTable {
 public:
  T& at(ColumnId column, ProcessId pid) {
    if (column >= rows_.size()) rows_.resize(std::size_t{column} + 1);
    std::vector<T>& row = rows_[column];
    if (pid >= row.size()) row.resize(std::size_t{pid} + 1);
    return row[pid];
  }
  /// The column's entries by pid (empty if none was ever touched).
  std::span<const T> row(ColumnId column) const {
    if (column >= rows_.size()) return {};
    return rows_[column];
  }

 private:
  std::vector<std::vector<T>> rows_;
};

}  // namespace

std::vector<Detection> DeliveryOrderDetector::run(
    const ObservationLog& log, const Predicate& predicate) const {
  std::vector<Detection> out;
  TransitionTracker tracker(predicate);
  for (std::size_t i = 0; i < log.updates.size(); ++i) {
    const auto& u = log.updates[i];
    tracker.state().set(u.reporter, u.report.attribute,
                        u.report.value.numeric());
    tracker.evaluate(u, i, /*borderline=*/false, out);
  }
  return out;
}

std::vector<Detection> StrobeScalarDetector::run(
    const ObservationLog& log, const Predicate& predicate) const {
  std::vector<Detection> out;
  TransitionTracker tracker(predicate);
  VarTable<std::optional<clocks::ScalarStamp>> latest;

  for (std::size_t i = 0; i < log.updates.size(); ++i) {
    const auto& u = log.updates[i];
    const ColumnId column = tracker.state().column(u.report.attribute);
    const clocks::ScalarStamp stamp = u.report.strobe_scalar;
    std::optional<clocks::ScalarStamp>& current = latest.at(column, u.reporter);
    if (current.has_value() && !(*current < stamp)) {
      continue;  // stale under the (value, pid) total order
    }
    current = stamp;
    tracker.state().set(column, u.reporter, u.report.value.numeric());
    tracker.evaluate(u, i, /*borderline=*/false, out);
  }
  return out;
}

struct IncrementalStrobeVectorDetector::Impl {
  explicit Impl(Predicate p) : predicate(std::move(p)), tracker(predicate) {
    // φ's read set in the tracked state's columns, fixed for the detector's
    // lifetime: whole columns for aggregated names, single variables for
    // the ones named outright (unless their whole column is read anyway).
    std::set<std::string> names;
    predicate.expr()->collect_aggregate_names(names);
    std::set<VarRef> vars;
    predicate.expr()->collect_vars(vars);
    GlobalState& state = tracker.state();
    for (const std::string& name : names) {
      read_columns.push_back(state.column(name));
    }
    for (const VarRef& v : vars) {
      if (!names.contains(v.name)) {
        read_vars.emplace_back(state.column(v.name), v.pid);
      }
    }
  }

  /// What the detector retains per variable.
  struct Fresh {
    /// Freshest accepted vector stamp; nullopt until the first one.
    std::optional<clocks::VectorStamp> stamp;
    /// Instant the retained observation expires (temporal validity;
    /// SimTime::max() while unbounded).
    SimTime expires = SimTime::max();
  };

  /// True iff `pred` holds for some read variable other than
  /// (column, pid) that has an accepted update.
  template <typename Pred>
  bool any_other_read(ColumnId column, ProcessId pid, Pred pred) const {
    const auto test = [&](ColumnId c, ProcessId p, const Fresh& f) {
      return (c != column || p != pid) && f.stamp.has_value() && pred(f);
    };
    for (const ColumnId c : read_columns) {
      const std::span<const Fresh> row = fresh.row(c);
      for (std::size_t p = 0; p < row.size(); ++p) {
        if (test(c, static_cast<ProcessId>(p), row[p])) return true;
      }
    }
    for (const auto& [c, p] : read_vars) {
      const std::span<const Fresh> row = fresh.row(c);
      if (p < row.size() && test(c, p, row[p])) return true;
    }
    return false;
  }

  Predicate predicate;
  TransitionTracker tracker;
  VarTable<Fresh> fresh;
  std::vector<ColumnId> read_columns;
  std::vector<std::pair<ColumnId, ProcessId>> read_vars;
  std::size_t stale_observations = 0;
};

IncrementalStrobeVectorDetector::IncrementalStrobeVectorDetector(
    Predicate predicate)
    : impl_(std::make_unique<Impl>(std::move(predicate))) {}

IncrementalStrobeVectorDetector::~IncrementalStrobeVectorDetector() = default;
IncrementalStrobeVectorDetector::IncrementalStrobeVectorDetector(
    IncrementalStrobeVectorDetector&&) noexcept = default;
IncrementalStrobeVectorDetector& IncrementalStrobeVectorDetector::operator=(
    IncrementalStrobeVectorDetector&&) noexcept = default;

bool IncrementalStrobeVectorDetector::holding() const {
  return impl_->tracker.holding();
}

const Predicate& IncrementalStrobeVectorDetector::predicate() const {
  return impl_->predicate;
}

std::size_t IncrementalStrobeVectorDetector::stale_observations() const {
  return impl_->stale_observations;
}

PSN_HOT std::optional<Detection> IncrementalStrobeVectorDetector::feed(
    const ReceivedUpdate& u, std::size_t index) {
  Impl& impl = *impl_;
  const ColumnId column = impl.tracker.state().column(u.report.attribute);
  Impl::Fresh& mine = impl.fresh.at(column, u.reporter);
  const clocks::VectorStamp& stamp = u.report.strobe_vector;

  if (mine.stamp.has_value()) {
    const clocks::Ordering ord = clocks::compare(stamp, *mine.stamp);
    if (ord == clocks::Ordering::kBefore || ord == clocks::Ordering::kEqual) {
      return std::nullopt;  // causally superseded by what we already applied
    }
  }

  // Race check (the borderline-bin rule, DESIGN.md §6.3): is this update
  // concurrent with the current update of any *other* variable that the
  // predicate reads? If so, the assembled state may not correspond to any
  // instant of the single time axis.
  const bool race =
      impl.any_other_read(column, u.reporter, [&](const Impl::Fresh& f) {
        return clocks::concurrent(stamp, *f.stamp);
      });

  // Temporal validity (Kopetz-Steiner): an evaluation is stale when this
  // update's own validity interval lapsed before it arrived, or when any
  // read-set variable the predicate will consult holds an expired
  // observation at the evaluation instant. Staleness is judged against the
  // deployment-visible ε-synchronized timestamp, never ground truth.
  bool stale =
      u.validity.expired(u.report.synced_timestamp, u.delivered_at);
  if (u.validity.bounded() && !stale) {
    stale = impl.any_other_read(column, u.reporter, [&](const Impl::Fresh& f) {
      return u.delivered_at > f.expires;
    });
  }
  if (stale) impl.stale_observations++;

  mine.stamp = stamp;
  mine.expires = u.validity.expires_at(u.report.synced_timestamp);
  impl.tracker.state().set(column, u.reporter, u.report.value.numeric());
  return impl.tracker.evaluate_one(u, index, race || stale);
}

std::vector<Detection> StrobeVectorDetector::run(
    const ObservationLog& log, const Predicate& predicate) const {
  std::vector<Detection> out;
  IncrementalStrobeVectorDetector incremental(predicate);
  for (std::size_t i = 0; i < log.updates.size(); ++i) {
    if (auto d = incremental.feed(log.updates[i], i)) {
      out.push_back(*d);
    }
  }
  return out;
}

std::vector<Detection> PhysicalClockDetector::run(
    const ObservationLog& log, const Predicate& predicate) const {
  // Order updates by their ε-synchronized timestamps. (Offline sort stands
  // in for the online watermark buffer a deployed root would use under the
  // Δ-bounded delay assumption; the accepted order is identical.)
  std::vector<std::size_t> order(log.updates.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const auto& ua = log.updates[a];
                     const auto& ub = log.updates[b];
                     if (ua.report.synced_timestamp !=
                         ub.report.synced_timestamp) {
                       return ua.report.synced_timestamp <
                              ub.report.synced_timestamp;
                     }
                     return ua.reporter < ub.reporter;
                   });

  std::vector<Detection> out;
  TransitionTracker tracker(predicate);
  // An online root processes an update only after everything with a smaller
  // timestamp has arrived, so the earliest it can act on update i is the
  // latest delivery among i and its timestamp-predecessors (the watermark).
  SimTime watermark = SimTime::zero();
  for (const std::size_t i : order) {
    const auto& u = log.updates[i];
    watermark = std::max(watermark, u.delivered_at);
    tracker.state().set(u.reporter, u.report.attribute,
                        u.report.value.numeric());
    const std::size_t before = out.size();
    tracker.evaluate(u, i, /*borderline=*/false, out);
    if (out.size() > before) out.back().detected_at = watermark;
  }
  return out;
}

std::vector<std::unique_ptr<Detector>> all_online_detectors() {
  std::vector<std::unique_ptr<Detector>> out;
  out.reserve(4);
  out.push_back(std::make_unique<DeliveryOrderDetector>());
  out.push_back(std::make_unique<StrobeScalarDetector>());
  out.push_back(std::make_unique<StrobeVectorDetector>());
  out.push_back(std::make_unique<PhysicalClockDetector>());
  return out;
}

}  // namespace psn::core
