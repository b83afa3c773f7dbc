#pragma once

#include "common/rng.hpp"
#include "common/sim_time.hpp"

namespace psn::clocks {

/// A free-running local hardware clock with initial offset and constant
/// drift — what a sensor node has *before* any synchronization (paper
/// §3.2.1.a.ii: "imperfectly synchronized (with skew/offsets) physical scalar
/// clocks"). Reads map true time t to  t + offset + drift_ppm·1e-6·t (+ read
/// jitter). Sync protocols adjust `offset` via apply_correction().
struct DriftingClockConfig {
  Duration initial_offset = Duration::zero();
  /// Crystal drift in parts per million; ±30–100 ppm is typical hardware.
  double drift_ppm = 0.0;
  /// Uniform per-read noise in [-read_jitter, +read_jitter] (quantization,
  /// interrupt latency).
  Duration read_jitter = Duration::zero();
};

class DriftingClock {
 public:
  DriftingClock(DriftingClockConfig config, Rng rng);

  /// Local clock reading at true time `t`. Non-const: draws read jitter.
  SimTime read(SimTime t);
  /// Reading without jitter — the deterministic component, used by sync
  /// protocols to compute ground-truth residual error.
  SimTime read_exact(SimTime t) const;

  /// Applied by a sync protocol: shifts the clock by `adjustment`
  /// (positive = advance).
  void apply_correction(Duration adjustment);

  const DriftingClockConfig& config() const { return config_; }

 private:
  DriftingClockConfig config_;
  Duration correction_ = Duration::zero();
  Rng rng_;
};

/// The ε-synchronized clock *service* the pervasive-computing literature
/// assumes (paper §3.2.1.a.i–ii): readings are guaranteed within ±ε of true
/// time. Modeled as a fixed per-process offset drawn uniformly from (-ε, ε)
/// plus optional per-read jitter that stays within the bound. ε = 0 gives the
/// perfectly synchronized ideal.
class EpsSynchronizedClock {
 public:
  EpsSynchronizedClock(Duration epsilon, Rng rng);

  SimTime read(SimTime t);
  Duration epsilon() const { return epsilon_; }
  Duration offset() const { return offset_; }

 private:
  Duration epsilon_;
  Duration offset_;
  Duration jitter_range_;
  Rng rng_;
};

}  // namespace psn::clocks
