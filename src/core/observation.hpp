#pragma once

#include <cstddef>
#include <vector>

#include "common/sim_time.hpp"
#include "common/types.hpp"
#include "net/message.hpp"

namespace psn::core {

/// Temporal validity interval of an observation (Kopetz & Steiner: data about
/// a dynamic environment is only *temporally consistent* for a bounded
/// lifetime after it was produced). An observation timestamped t — by the
/// deployment-visible ε-synchronized clock, never by ground truth — is valid
/// until t + lifetime; a monitor that evaluates φ over state older than that
/// is acting on expired data and must flag it (kStaleObservation).
struct ValidityHorizon {
  Duration lifetime = Duration::max();  ///< max() = observations never expire

  bool bounded() const { return lifetime != Duration::max(); }
  /// Instant the observation expires (saturating; max() when unbounded).
  SimTime expires_at(SimTime produced) const {
    if (!bounded()) return SimTime::max();
    return produced + lifetime;
  }
  bool expired(SimTime produced, SimTime now) const {
    return bounded() && now > expires_at(produced);
  }
};

/// One sense report as it arrived at the root monitor P_0 — the raw input of
/// every online detector. Delivery order (not sense order!) is the order a
/// real root would see; the difference between the two *is* the race problem
/// this paper is about.
struct ReceivedUpdate {
  SimTime delivered_at;
  ProcessId reporter = kNoProcess;
  net::SenseReportPayload report;
  /// net::Message::seq of the strobe this update arrived on (0 = a local
  /// self-report, which carries no message). Run-unique, so the sharded
  /// runner's per-shard root logs merge into the serial delivery order by
  /// (delivered_at, seq) with no further tie to break (DESIGN.md §14).
  std::uint64_t seq = 0;
};

/// Everything the root observed during one run, in delivery order, plus the
/// facts detectors are allowed to know statically (process count, Δ bound).
struct ObservationLog {
  std::size_t num_processes = 0;
  /// The transport's delay bound Δ (Duration::max() if unbounded); detectors
  /// may use it — the paper's Δ-bounded model makes it known (§3.2.2.b).
  Duration delta_bound = Duration::max();
  /// Deployment-wide temporal-validity policy every update is received
  /// under.
  ValidityHorizon validity;
  std::vector<ReceivedUpdate> updates;
};

}  // namespace psn::core
