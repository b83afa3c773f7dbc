#include "world/generators.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace psn::world {

PoissonArrivals::PoissonArrivals(double rate_per_second)
    : rate_(rate_per_second) {
  PSN_CHECK(rate_ > 0.0, "Poisson rate must be positive");
}

Duration PoissonArrivals::next_gap(Rng& rng) {
  return rng.exponential_gap(rate_);
}

PeriodicArrivals::PeriodicArrivals(Duration period, Duration jitter)
    : period_(period), jitter_(jitter) {
  PSN_CHECK(period_ > Duration::zero(), "period must be positive");
  PSN_CHECK(jitter_ >= Duration::zero() && jitter_ < period_,
            "jitter must be in [0, period)");
}

Duration PeriodicArrivals::next_gap(Rng& rng) {
  if (jitter_ == Duration::zero()) return period_;
  const Duration j = rng.uniform_duration(-jitter_, jitter_);
  const Duration gap = period_ + j;
  return gap < Duration::nanos(1) ? Duration::nanos(1) : gap;
}

BurstyArrivals::BurstyArrivals(double quiet_rate, double burst_rate,
                               Duration mean_quiet_dwell,
                               Duration mean_burst_dwell)
    : quiet_rate_(quiet_rate),
      burst_rate_(burst_rate),
      mean_quiet_dwell_(mean_quiet_dwell),
      mean_burst_dwell_(mean_burst_dwell) {
  PSN_CHECK(quiet_rate_ > 0.0 && burst_rate_ > 0.0, "rates must be positive");
  PSN_CHECK(mean_quiet_dwell_ > Duration::zero() &&
                mean_burst_dwell_ > Duration::zero(),
            "dwell times must be positive");
}

Duration BurstyArrivals::next_gap(Rng& rng) {
  Duration total = Duration::zero();
  for (;;) {
    if (dwell_remaining_ == Duration::zero()) {
      const Duration mean =
          bursting_ ? mean_burst_dwell_ : mean_quiet_dwell_;
      dwell_remaining_ = Duration::from_seconds(
          std::max(1e-9, rng.exponential(mean.to_seconds())));
    }
    const double rate = bursting_ ? burst_rate_ : quiet_rate_;
    const Duration candidate = rng.exponential_gap(rate);
    if (candidate <= dwell_remaining_) {
      dwell_remaining_ -= candidate;
      return total + candidate;
    }
    // The dwell period ended before the next arrival; switch state and
    // resample (memorylessness makes discarding the candidate valid).
    total += dwell_remaining_;
    dwell_remaining_ = Duration::zero();
    bursting_ = !bursting_;
  }
}

AttributeValue CounterValue::next(const AttributeValue& current, Rng&) {
  return AttributeValue(current.is_int() ? current.as_int() + step_ : step_);
}

AttributeValue ToggleValue::next(const AttributeValue& current, Rng&) {
  return AttributeValue(current.is_bool() ? !current.as_bool() : true);
}

RandomWalkValue::RandomWalkValue(double max_step, double lo, double hi)
    : max_step_(max_step), lo_(lo), hi_(hi) {
  PSN_CHECK(max_step_ > 0.0, "random walk step must be positive");
  PSN_CHECK(lo_ < hi_, "random walk bounds inverted");
}

AttributeValue RandomWalkValue::next(const AttributeValue& current, Rng& rng) {
  const double cur = current.numeric();
  const double step = rng.uniform(-max_step_, max_step_);
  return AttributeValue(std::clamp(cur + step, lo_, hi_));
}

ChoiceValue::ChoiceValue(std::vector<std::int64_t> levels)
    : levels_(std::move(levels)) {
  PSN_CHECK(!levels_.empty(), "choice set must be non-empty");
}

AttributeValue ChoiceValue::next(const AttributeValue&, Rng& rng) {
  const auto i = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(levels_.size()) - 1));
  return AttributeValue(levels_[i]);
}

AttributeDriver::AttributeDriver(WorldModel& world, ObjectId object,
                                 std::string attribute,
                                 std::unique_ptr<ArrivalProcess> arrivals,
                                 std::unique_ptr<ValueProcess> values, Rng rng)
    : world_(world),
      object_(object),
      attribute_(std::move(attribute)),
      arrivals_(std::move(arrivals)),
      values_(std::move(values)),
      rng_(rng) {
  PSN_CHECK(arrivals_ != nullptr && values_ != nullptr,
            "driver needs arrival and value processes");
}

void AttributeDriver::start() { schedule_next(); }

void AttributeDriver::schedule_next() {
  const Duration gap = arrivals_->next_gap(rng_);
  world_.simulation().scheduler().schedule_after(gap, [this] { fire(); });
}

void AttributeDriver::fire() {
  const WorldObject& obj = world_.object(object_);
  const AttributeValue current = obj.has_attribute(attribute_)
                                     ? obj.attribute(attribute_)
                                     : AttributeValue();
  world_.emit(object_, attribute_, values_->next(current, rng_));
  schedule_next();
}

}  // namespace psn::world
