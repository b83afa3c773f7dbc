#pragma once

#include "common/sim_time.hpp"
#include "common/types.hpp"

namespace psn::net {

/// A periodic radio wake schedule: the node's receiver is on during
/// [phase + k·period, phase + k·period + window) for every integer k ≥ 0.
/// Messages arriving while asleep are buffered by the MAC and handed up at
/// the next wake edge (low-power listening semantics).
///
/// Paper §5 (last paragraph): "synchronization of duty cycles among
/// wireless sensor nodes for efficient execution of MAC and routing layer
/// functions can be achieved using distributed timers. It is particularly
/// feasible in applications such as habitat monitoring where the monitoring
/// activities proceed slowly."
struct DutyCycle {
  Duration period = Duration::millis(1000);
  Duration window = Duration::millis(100);
  Duration phase = Duration::zero();

  bool valid() const {
    return period > Duration::zero() && window > Duration::zero() &&
           window <= period && phase >= Duration::zero() && phase < period;
  }
  double duty_fraction() const {
    return static_cast<double>(window.count_nanos()) /
           static_cast<double>(period.count_nanos());
  }

  /// Earliest instant ≥ t at which the receiver is on (t itself if awake).
  SimTime next_wake(SimTime t) const;
};

}  // namespace psn::net
