#include "clocks/physical.hpp"

#include "common/error.hpp"

namespace psn::clocks {

DriftingClock::DriftingClock(DriftingClockConfig config, Rng rng)
    : config_(config), rng_(rng) {
  PSN_CHECK(config_.read_jitter >= Duration::zero(),
            "read jitter must be non-negative");
}

SimTime DriftingClock::read_exact(SimTime t) const {
  const Duration drift =
      Duration::from_seconds(t.to_seconds() * config_.drift_ppm * 1e-6);
  return t + config_.initial_offset + drift + correction_;
}

SimTime DriftingClock::read(SimTime t) {
  SimTime exact = read_exact(t);
  if (config_.read_jitter > Duration::zero()) {
    exact += rng_.uniform_duration(-config_.read_jitter, config_.read_jitter);
  }
  return exact;
}

void DriftingClock::apply_correction(Duration adjustment) {
  correction_ += adjustment;
}

EpsSynchronizedClock::EpsSynchronizedClock(Duration epsilon, Rng rng)
    : epsilon_(epsilon), rng_(rng) {
  PSN_CHECK(epsilon_ >= Duration::zero(), "epsilon must be non-negative");
  if (epsilon_ == Duration::zero()) {
    offset_ = Duration::zero();
    jitter_range_ = Duration::zero();
  } else {
    // Fixed offset uses half the budget; per-read jitter the other half, so
    // |reading - t| <= eps always holds.
    const Duration half(epsilon_.count_nanos() / 2);
    offset_ = rng_.uniform_duration(-half, half);
    jitter_range_ = half;
  }
}

SimTime EpsSynchronizedClock::read(SimTime t) {
  Duration noise = offset_;
  if (jitter_range_ > Duration::zero()) {
    noise += rng_.uniform_duration(-jitter_range_, jitter_range_);
  }
  return t + noise;
}

}  // namespace psn::clocks
