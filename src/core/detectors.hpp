#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/observation.hpp"
#include "core/predicate.hpp"

namespace psn::core {

/// One reported change of φ's truth value by a detector. `cause_true_time`
/// is scoring metadata (the true time of the sense that triggered the
/// report); the detector's *decision* never reads it.
struct Detection {
  SimTime detected_at;  ///< when the root could have acted (see feed)
  bool to_true = false;
  /// Vector-strobe detectors flag a transition as borderline when the
  /// deciding updates were concurrent (a race within Δ) — the paper's
  /// "borderline bin" (§5). The application may treat these as positives to
  /// err on the safe side.
  bool borderline = false;
  SimTime cause_true_time;
  std::size_t update_index = 0;  ///< index into ObservationLog::updates
};

/// The four online detectors (DESIGN.md §6.8). They differ only in the order
/// they consume the root's updates, in which stamp marks an update stale,
/// and in whether a race or expired state flags a transition borderline.
enum class DetectorKind : std::uint8_t {
  /// Raw delivery order, no staleness filter: shows what the strobe
  /// machinery buys (ablation ◊).
  kDeliveryOrder,
  /// Strobe *scalar* clock (paper §4.2.2 + [25]): the total order
  /// (stamp value, pid) simulates the single time axis, and an update whose
  /// stamp is not newer than its variable's is discarded. Races are
  /// invisible in a total order, so wrong interleavings are reported
  /// confidently: the scalar clock's false positives (§3.3).
  kStrobeScalar,
  /// Strobe *vector* clock (paper §4.2.1 + [24]): staleness uses the vector
  /// partial order, and a transition decided by pairwise concurrent updates
  /// (or by expired state) is flagged borderline instead of asserted.
  kStrobeVector,
  /// ε-synchronized physical clocks (Mayo–Kearns / Stoller style, paper
  /// §3.1.1.a.i): updates in synchronized-timestamp order. Mis-ordering
  /// happens only within the clock service's skew — the 2ε false-negative
  /// window of [28].
  kPhysicalEps,
};

/// The strobe-vector detector's order tests, O(1) per pair (DESIGN.md
/// §6.3). Under SVC1–SVC2 the stamp of reporter i's sense counts i's senses
/// in component i, and a sense of p is strobe-known to a later sense of i
/// exactly when the later stamp's component p has reached the earlier's.
/// So stamp u of reporter i and stamp f of reporter p are concurrent iff
/// u[i] > f[i] and f[p] > u[p]; and u is superseded by i's own earlier
/// stamp `mine` (before or equal to it) iff u[i] <= mine[i]. Stamps that
/// lack the component, such as the dimension-0 stamps of lean clocks, take
/// the full componentwise clocks::concurrent / clocks::compare.
bool strobe_concurrent(const clocks::VectorStamp& u, ProcessId i,
                       const clocks::VectorStamp& f, ProcessId p);
bool strobe_superseded(const clocks::VectorStamp& u,
                       const clocks::VectorStamp& mine, ProcessId i);

/// Online every-occurrence global-predicate detector over the root's
/// observation stream, fed one update at a time in its kind's order. Unlike
/// the "detect once then hang" algorithms the paper criticizes (§3.3), it
/// emits a full transition stream: became-true and became-false, every time.
class OnlineDetector {
 public:
  OnlineDetector(DetectorKind kind, Predicate predicate);

  /// Consumes one update; returns a Detection whenever φ's truth value
  /// changed. `detected_at` is the latest delivery among the updates
  /// consumed so far: the earliest instant the root could have acted.
  std::optional<Detection> feed(const ReceivedUpdate& update,
                                std::size_t index);
  bool holding() const { return holding_; }

 private:
  using ColumnId = GlobalState::ColumnId;

  /// A per-variable table, keyed by the tracked state's own (column, pid)
  /// index. Rows grow on first sight of a variable; steady state neither
  /// searches nor allocates.
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

  /// What strobe-vector retains per variable.
  struct Fresh {
    /// Freshest accepted vector stamp; nullopt until the first one.
    std::optional<clocks::VectorStamp> stamp;
    /// Instant the retained observation expires (temporal validity;
    /// SimTime::max() while unbounded).
    SimTime expires = SimTime::max();
  };

  /// True iff `pred(fresh, reporter)` holds for some read variable other
  /// than (column, pid) that has an accepted vector stamp.
  template <typename Pred>
  bool any_other_read(ColumnId column, ProcessId pid, Pred pred) const;

  DetectorKind kind_;
  Predicate predicate_;
  GlobalState state_;
  bool holding_;
  SimTime watermark_ = SimTime::zero();
  VarTable<std::optional<clocks::ScalarStamp>> scalar_;
  VarTable<Fresh> vector_;
  /// φ's read set in the state's columns: whole columns for aggregated
  /// names, single variables for the ones named outright.
  std::vector<ColumnId> read_columns_;
  std::vector<std::pair<ColumnId, ProcessId>> read_vars_;
};

/// A detector kind over a finished log: run() folds a fresh OnlineDetector's
/// feed over the log in the kind's order.
class Detector {
 public:
  constexpr explicit Detector(DetectorKind kind) : kind_(kind) {}

  DetectorKind kind() const { return kind_; }
  /// delivery-order, strobe-scalar, strobe-vector or physical-eps.
  std::string name() const;
  std::vector<Detection> run(const ObservationLog& log,
                             const Predicate& predicate) const;

 private:
  DetectorKind kind_;
};

/// All four online detectors, for side-by-side experiment sweeps.
std::array<const Detector*, 4> all_online_detectors();

}  // namespace psn::core
