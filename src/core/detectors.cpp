#include "core/detectors.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string_view>
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

VarRef var_of(const ReceivedUpdate& u) {
  return VarRef{u.reporter, u.report.attribute};
}

/// Heterogeneous ordering so an update's (pid, attribute) can be looked up
/// against interned VarRefs without materializing a VarRef (no string copy
/// on the hot path).
struct VarKeyLess {
  using is_transparent = void;
  using Key = std::pair<ProcessId, std::string_view>;
  static Key key(const VarRef& v) { return {v.pid, v.name}; }
  bool operator()(const VarRef& a, const VarRef& b) const {
    return key(a) < key(b);
  }
  bool operator()(const VarRef& a, const Key& b) const { return key(a) < b; }
  bool operator()(const Key& a, const VarRef& b) const { return a < key(b); }
};

/// Dense VarRef interner (DESIGN.md §11): maps each distinct sensed variable
/// to a small index, so per-update detector state lives in flat vectors
/// indexed by interned id instead of ordered maps keyed by (pid, string).
/// The ordered side table is touched only on first sight of a variable —
/// steady state is one O(log V) comparison-based lookup with V = number of
/// distinct variables (small), and no allocation.
class VarInterner {
 public:
  /// Index of (pid, attribute), interning it on first sight.
  PSN_HOT std::uint32_t intern(ProcessId pid, const std::string& name) {
    const VarKeyLess::Key key{pid, name};
    const auto it = index_of_.lower_bound(key);
    if (it != index_of_.end() && VarKeyLess::key(it->first) == key) {
      return it->second;
    }
    const auto index = static_cast<std::uint32_t>(vars_.size());
    vars_.push_back(VarRef{pid, name});
    index_of_.emplace_hint(it, vars_.back(), index);
    return index;
  }

  /// Index of an already-interned variable, in O(log V); nullopt if the
  /// variable was never seen.
  std::optional<std::uint32_t> find(const VarRef& var) const {
    const auto it = index_of_.find(var);
    if (it == index_of_.end()) return std::nullopt;
    return it->second;
  }

  std::size_t size() const { return vars_.size(); }
  const VarRef& var(std::uint32_t index) const { return vars_[index]; }

 private:
  std::map<VarRef, std::uint32_t, VarKeyLess> index_of_;
  std::vector<VarRef> vars_;
};

}  // namespace

std::vector<Detection> DeliveryOrderDetector::run(
    const ObservationLog& log, const Predicate& predicate) const {
  std::vector<Detection> out;
  TransitionTracker tracker(predicate);
  for (std::size_t i = 0; i < log.updates.size(); ++i) {
    const auto& u = log.updates[i];
    tracker.state().set(var_of(u), u.report.value.numeric());
    tracker.evaluate(u, i, /*borderline=*/false, out);
  }
  return out;
}

std::vector<Detection> StrobeScalarDetector::run(
    const ObservationLog& log, const Predicate& predicate) const {
  std::vector<Detection> out;
  TransitionTracker tracker(predicate);
  VarInterner interner;
  // Dense per-variable freshness table; one lookup per update (the old
  // map<VarRef, Stamp> did a find *and* an operator[] re-hash per accepted
  // update, plus a string-keyed rebalance).
  std::vector<std::optional<clocks::ScalarStamp>> latest;

  for (std::size_t i = 0; i < log.updates.size(); ++i) {
    const auto& u = log.updates[i];
    const std::uint32_t var = interner.intern(u.reporter, u.report.attribute);
    if (var >= latest.size()) latest.resize(interner.size());
    const clocks::ScalarStamp stamp = u.report.strobe_scalar;
    std::optional<clocks::ScalarStamp>& current = latest[var];
    if (current.has_value() && !(*current < stamp)) {
      continue;  // stale under the (value, pid) total order
    }
    current = stamp;
    tracker.state().set(interner.var(var), u.report.value.numeric());
    tracker.evaluate(u, i, /*borderline=*/false, out);
  }
  return out;
}

struct IncrementalStrobeVectorDetector::Impl {
  explicit Impl(Predicate p) : predicate(std::move(p)), tracker(predicate) {}

  Predicate predicate;
  TransitionTracker tracker;
  VarInterner interner;
  /// Interned index → freshest accepted vector stamp (dense; nullopt until
  /// the variable's first accepted update).
  std::vector<std::optional<clocks::VectorStamp>> latest;
  /// Interned index → instant the retained observation expires (temporal
  /// validity; SimTime::max() while unbounded or not yet reported).
  std::vector<SimTime> expires;
  std::size_t stale_observations = 0;
  /// Cached predicate read-set by interned index, plus the state size it was
  /// computed against. collect_vars expands aggregates against the tracked
  /// state, so the set can only change when the state's variable universe
  /// grows — recomputing per feed (the old code built a std::set<VarRef>
  /// from scratch on *every* update) is pure waste in steady state.
  std::vector<char> in_read_set;
  std::size_t read_set_state_size = SIZE_MAX;

  void refresh_read_set() {
    if (tracker.state().size() == read_set_state_size) return;
    std::set<VarRef> read;
    predicate.expr()->collect_vars(tracker.state(), read);
    in_read_set.assign(interner.size(), 0);
    for (const VarRef& v : read) {
      // Only interned (i.e. ever-reported) variables can carry a stamp, so
      // only they matter for the race scan below.
      if (const auto i = interner.find(v)) in_read_set[*i] = 1;
    }
    read_set_state_size = tracker.state().size();
  }
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
  const std::uint32_t var = impl.interner.intern(u.reporter, u.report.attribute);
  if (var >= impl.latest.size()) {
    impl.latest.resize(impl.interner.size());
    impl.expires.resize(impl.interner.size(), SimTime::max());
  }
  const clocks::VectorStamp& stamp = u.report.strobe_vector;

  if (impl.latest[var].has_value()) {
    const clocks::Ordering ord = clocks::compare(stamp, *impl.latest[var]);
    if (ord == clocks::Ordering::kBefore || ord == clocks::Ordering::kEqual) {
      return std::nullopt;  // causally superseded by what we already applied
    }
  }

  // Race check (the borderline-bin rule, DESIGN.md §6.3): is this update
  // concurrent with the current update of any *other* variable that the
  // predicate reads? If so, the assembled state may not correspond to any
  // instant of the single time axis. The read-set is the cached one — it
  // only changes when the tracked state gains a variable.
  impl.refresh_read_set();
  bool race = false;
  for (std::uint32_t other = 0; other < impl.latest.size(); ++other) {
    if (other == var || !impl.latest[other].has_value()) continue;
    if (other >= impl.in_read_set.size() || impl.in_read_set[other] == 0) {
      continue;
    }
    if (clocks::concurrent(stamp, *impl.latest[other])) {
      race = true;
      break;
    }
  }

  // Temporal validity (Kopetz-Steiner): an evaluation is stale when this
  // update's own validity interval lapsed before it arrived, or when any
  // read-set variable the predicate will consult holds an expired
  // observation at the evaluation instant. Staleness is judged against the
  // deployment-visible ε-synchronized timestamp, never ground truth.
  bool stale =
      u.validity.expired(u.report.synced_timestamp, u.delivered_at);
  if (u.validity.bounded() && !stale) {
    for (std::uint32_t other = 0; other < impl.latest.size(); ++other) {
      if (other == var || !impl.latest[other].has_value()) continue;
      if (other >= impl.in_read_set.size() || impl.in_read_set[other] == 0) {
        continue;
      }
      if (u.delivered_at > impl.expires[other]) {
        stale = true;
        break;
      }
    }
  }
  if (stale) impl.stale_observations++;

  impl.latest[var] = stamp;
  impl.expires[var] = u.validity.expires_at(u.report.synced_timestamp);
  impl.tracker.state().set(impl.interner.var(var), u.report.value.numeric());
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
    tracker.state().set(var_of(u), u.report.value.numeric());
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
