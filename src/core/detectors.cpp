#include "core/detectors.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "clocks/timestamp.hpp"
#include "common/error.hpp"
#include "common/hot.hpp"

namespace psn::core {

OnlineDetector::OnlineDetector(DetectorKind kind, Predicate predicate,
                               ValidityHorizon validity)
    : kind_(kind),
      predicate_(std::move(predicate)),
      validity_(validity),
      state_(predicate_),
      holding_(predicate_.holds(state_)) {
  // φ's read set, which strobe-vector's race and validity scans walk, fixed
  // for the detector's lifetime: whole columns for aggregated names, single
  // variables for the ones named outright (unless their whole column is read
  // anyway). A column is its name's slot.
  const auto& nodes = predicate_.nodes();
  for (const Predicate::Node& n : nodes) {
    if (is_aggregate(n.op) && std::ranges::find(read_columns_, n.slot) ==
                                  read_columns_.end()) {
      read_columns_.push_back(n.slot);
    }
  }
  for (const Predicate::Node& n : nodes) {
    const std::pair<ColumnId, ProcessId> var(n.slot, n.pid);
    if (n.op == Op::kVar &&
        std::ranges::find(read_columns_, n.slot) == read_columns_.end() &&
        std::ranges::find(read_vars_, var) == read_vars_.end()) {
      read_vars_.push_back(var);
    }
  }
}

bool strobe_superseded(const clocks::VectorStamp& u,
                       const clocks::VectorStamp& mine, ProcessId i) {
  if (i >= u.size() || u.size() != mine.size()) {
    const clocks::Ordering ord = clocks::compare(u, mine);
    return ord == clocks::Ordering::kBefore || ord == clocks::Ordering::kEqual;
  }
  return u[i] <= mine[i];
}

bool strobe_concurrent(const clocks::VectorStamp& u, ProcessId i,
                       const clocks::VectorStamp& f, ProcessId p) {
  if (i >= u.size() || p >= u.size() || u.size() != f.size()) {
    return clocks::concurrent(u, f);
  }
  return u[i] > f[i] && f[p] > u[p];
}

template <typename Pred>
bool OnlineDetector::any_other_read(ColumnId column, ProcessId pid,
                                    Pred pred) const {
  const auto test = [&](ColumnId c, ProcessId p, const Fresh& f) {
    return (c != column || p != pid) && f.stamp.has_value() && pred(f, p);
  };
  for (const ColumnId c : read_columns_) {
    const std::span<const Fresh> row = vector_.row(c);
    for (std::size_t p = 0; p < row.size(); ++p) {
      if (test(c, static_cast<ProcessId>(p), row[p])) return true;
    }
  }
  for (const auto& [c, p] : read_vars_) {
    const std::span<const Fresh> row = vector_.row(c);
    if (p < row.size() && test(c, p, row[p])) return true;
  }
  return false;
}

PSN_HOT std::optional<Detection> OnlineDetector::feed(const ReceivedUpdate& u,
                                                      std::size_t index) {
  watermark_ = std::max(watermark_, u.delivered_at);
  const std::optional<ColumnId> read = state_.column(u.report.attribute);
  if (!read.has_value()) return std::nullopt;  // φ does not read it
  const ColumnId column = *read;
  bool borderline = false;
  switch (kind_) {
    case DetectorKind::kDeliveryOrder:
    case DetectorKind::kPhysicalEps:
      break;
    case DetectorKind::kStrobeScalar: {
      const clocks::ScalarStamp stamp = u.report.strobe_scalar;
      std::optional<clocks::ScalarStamp>& latest =
          scalar_.at(column, u.reporter);
      if (latest.has_value() && !(*latest < stamp)) {
        return std::nullopt;  // stale under the (value, pid) total order
      }
      latest = stamp;
      break;
    }
    case DetectorKind::kStrobeVector: {
      Fresh& mine = vector_.at(column, u.reporter);
      const clocks::VectorStamp& stamp = u.report.strobe_vector;
      if (mine.stamp.has_value() &&
          strobe_superseded(stamp, *mine.stamp, u.reporter)) {
        return std::nullopt;  // causally superseded by what we applied
      }
      // Race check (the borderline-bin rule, DESIGN.md §6.3): is this
      // update concurrent with the current update of any *other* variable
      // that the predicate reads? If so, the assembled state may not
      // correspond to any instant of the single time axis.
      const bool race = any_other_read(
          column, u.reporter, [&](const Fresh& f, ProcessId reporter) {
            return strobe_concurrent(stamp, u.reporter, *f.stamp, reporter);
          });
      // Temporal validity (Kopetz-Steiner): an evaluation is stale when
      // this update's own validity interval lapsed before it arrived, or
      // when any read-set variable the predicate will consult holds an
      // expired observation at the evaluation instant. Staleness is judged
      // against the deployment-visible ε-synchronized timestamp, never
      // ground truth.
      bool stale =
          validity_.expired(u.report.synced_timestamp, u.delivered_at);
      if (validity_.bounded() && !stale) {
        stale = any_other_read(column, u.reporter,
                               [&](const Fresh& f, ProcessId) {
                                 return u.delivered_at > f.expires;
                               });
      }
      mine.stamp = stamp;
      mine.expires = validity_.expires_at(u.report.synced_timestamp);
      borderline = race || stale;
      break;
    }
  }

  state_.set(column, u.reporter, u.report.value.numeric());
  const bool now_holds = predicate_.holds(state_);
  if (now_holds == holding_) return std::nullopt;
  holding_ = now_holds;
  Detection d;
  d.detected_at = watermark_;
  d.to_true = now_holds;
  d.borderline = borderline;
  d.cause_true_time = u.report.true_sense_time;
  d.update_index = index;
  return d;
}

std::string Detector::name() const {
  switch (kind_) {
    case DetectorKind::kDeliveryOrder:
      return "delivery-order";
    case DetectorKind::kStrobeScalar:
      return "strobe-scalar";
    case DetectorKind::kStrobeVector:
      return "strobe-vector";
    case DetectorKind::kPhysicalEps:
      return "physical-eps";
  }
  PSN_CHECK(false, "unknown detector kind");
  return {};
}

std::vector<Detection> Detector::run(const ObservationLog& log,
                                     const Predicate& predicate) const {
  std::vector<std::size_t> order(log.updates.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (kind_ == DetectorKind::kPhysicalEps) {
    // Synchronized-timestamp order, ties by reporter. A deployed root would
    // release updates from a watermark buffer (hold each until its clock
    // passes the synced time plus Δ + 2ε); that buffer would also keep each
    // sender's own reports in the sender's order, which changes physical-eps
    // detections, so it belongs with the ε-clock monotonicity fix. Until
    // then this sort defines the order, and feed's running watermark gives
    // the instant such a buffer would have released each update.
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       const ReceivedUpdate& ua = log.updates[a];
                       const ReceivedUpdate& ub = log.updates[b];
                       if (ua.report.synced_timestamp !=
                           ub.report.synced_timestamp) {
                         return ua.report.synced_timestamp <
                                ub.report.synced_timestamp;
                       }
                       return ua.reporter < ub.reporter;
                     });
  }

  OnlineDetector detector(kind_, predicate, log.validity);
  std::vector<Detection> out;
  for (const std::size_t i : order) {
    if (auto d = detector.feed(log.updates[i], i)) out.push_back(*d);
  }
  return out;
}

std::array<const Detector*, 4> all_online_detectors() {
  static constexpr Detector kDetectors[] = {
      Detector(DetectorKind::kDeliveryOrder),
      Detector(DetectorKind::kStrobeScalar),
      Detector(DetectorKind::kStrobeVector),
      Detector(DetectorKind::kPhysicalEps),
  };
  return {&kDetectors[0], &kDetectors[1], &kDetectors[2], &kDetectors[3]};
}

}  // namespace psn::core
