#pragma once

#include <cstddef>

#include "clocks/lamport.hpp"
#include "clocks/physical.hpp"
#include "clocks/strobe_scalar.hpp"
#include "clocks/strobe_vector.hpp"
#include "clocks/vector_clock.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "common/types.hpp"

namespace psn::clocks {

/// All clock readings of one process at one instant. Every recorded event in
/// a run snapshots the full bundle, so one simulated execution can be scored
/// under every time model side by side (paired comparison; DESIGN.md §6.2).
struct ClockSnapshot {
  SimTime true_time;            ///< ground truth (not observable by nodes)
  SimTime physical_local;       ///< free-running drifting clock reading
  SimTime physical_synced;      ///< ε-synchronized service reading
  ScalarStamp lamport;
  VectorStamp causal_vector;
  ScalarStamp strobe_scalar;
  VectorStamp strobe_vector;
};

/// The strobe values a process must broadcast after a relevant (sense) event
/// — rules SSC1 and SVC1 fire together since we run both protocols on the
/// same execution for comparison.
struct StrobeOut {
  ScalarStamp scalar;
  VectorStamp vector;
};

/// Stamps piggybacked on a computation (semantic) message — SC2/VC2.
struct PiggybackStamps {
  ScalarStamp lamport;
  VectorStamp causal_vector;
};

struct ClockBundleConfig {
  DriftingClockConfig drifting;
  /// ε bound of the synchronized-clock service available to this node.
  Duration sync_epsilon = Duration::micros(100);
  /// When false, the O(n)-sized vector clocks (causal and strobe) are not
  /// tracked: they are constructed at dimension 1 and never advanced, and
  /// snapshots/strobes carry empty VectorStamps. At city scale (10^5
  /// processes) the vectors alone would cost ~80 kB *per process per
  /// snapshot* — this switch is what makes such runs feasible. Scalar,
  /// physical, and synced clocks are unaffected; detectors that need
  /// vectors must be skipped (analysis does).
  bool track_vectors = true;
};

/// One process's complete clock state, with the paper's separation enforced
/// by construction (§4.2): the causality-tracking Lamport/Mattern clocks are
/// advanced only by semantic events and computation messages; the strobe
/// clocks only by sense events and strobe control messages. Feeding a strobe
/// into the causal clocks would manufacture false causality — there is simply
/// no API path that does it.
class ClockBundle {
 public:
  ClockBundle(ProcessId pid, std::size_t n, ClockBundleConfig config, Rng rng);

  /// Internal compute (c) or actuate (a) event: advances the causal clocks
  /// only (strobe clocks tick only at *sensed* events — SSC1/SVC1).
  void on_internal_event();

  /// Sense (n) event: advances causal clocks (it is a local relevant event)
  /// and the strobe clocks; returns the strobes to broadcast.
  StrobeOut on_sense_event();

  /// Send (s) of a computation message: SC2/VC2; returns piggyback stamps.
  PiggybackStamps on_send();

  /// Receive (r) of a computation message: SC3/VC3.
  void on_receive(const PiggybackStamps& stamps);

  /// Receipt of a strobe control message: SSC2/SVC2 (no local tick, and the
  /// causal clocks are untouched).
  void on_strobe(const ScalarStamp& scalar, const VectorStamp& vector);

  ClockSnapshot snapshot(SimTime true_time);

  ProcessId pid() const { return pid_; }
  const LamportClock& lamport() const { return lamport_; }
  const MatternVectorClock& causal_vector() const { return vector_; }
  const StrobeScalarClock& strobe_scalar() const { return strobe_scalar_; }
  const StrobeVectorClock& strobe_vector() const { return strobe_vector_; }
  DriftingClock& drifting() { return drifting_; }
  EpsSynchronizedClock& synced() { return synced_; }

 private:
  ProcessId pid_;
  bool track_vectors_;
  LamportClock lamport_;
  MatternVectorClock vector_;
  StrobeScalarClock strobe_scalar_;
  StrobeVectorClock strobe_vector_;
  DriftingClock drifting_;
  EpsSynchronizedClock synced_;
};

}  // namespace psn::clocks
