#include "net/delay_model.hpp"

#include "common/error.hpp"

namespace psn::net {

FixedDelay::FixedDelay(Duration d) : d_(d) {
  PSN_CHECK(d_ >= Duration::zero(), "fixed delay must be non-negative");
}

UniformBoundedDelay::UniformBoundedDelay(Duration min, Duration max)
    : min_(min), max_(max) {
  PSN_CHECK(min_ >= Duration::zero(), "delay must be non-negative");
  PSN_CHECK(min_ <= max_, "delay bounds inverted");
}

std::unique_ptr<UniformBoundedDelay> UniformBoundedDelay::with_bound(
    Duration delta) {
  return std::make_unique<UniformBoundedDelay>(
      Duration(delta.count_nanos() / 10), delta);
}

Duration UniformBoundedDelay::sample(Rng& rng) {
  return rng.uniform_duration(min_, max_);
}

ExponentialDelay::ExponentialDelay(Duration mean) : mean_(mean) {
  PSN_CHECK(mean_ > Duration::zero(), "mean delay must be positive");
}

Duration ExponentialDelay::sample(Rng& rng) {
  return Duration::from_seconds(rng.exponential(mean_.to_seconds()));
}

}  // namespace psn::net
