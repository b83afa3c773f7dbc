#pragma once

#include "common/error.hpp"
#include "common/rng.hpp"
#include "world/generators.hpp"

namespace psn::test_support {

/// Fixed period with optional uniform jitter in [-jitter, +jitter]: a
/// near-regular cadence for test workloads whose event counts must be
/// predictable, which PoissonArrivals' memoryless gaps are not.
class PeriodicArrivals final : public world::ArrivalProcess {
 public:
  explicit PeriodicArrivals(Duration period, Duration jitter = Duration::zero())
      : period_(period), jitter_(jitter) {
    PSN_CHECK(period_ > Duration::zero(), "period must be positive");
    PSN_CHECK(jitter_ >= Duration::zero() && jitter_ < period_,
              "jitter must be in [0, period)");
  }

  Duration next_gap(Rng& rng) override {
    if (jitter_ == Duration::zero()) return period_;
    const Duration gap = period_ + rng.uniform_duration(-jitter_, jitter_);
    return gap < Duration::nanos(1) ? Duration::nanos(1) : gap;
  }

 private:
  Duration period_;
  Duration jitter_;
};

}  // namespace psn::test_support
