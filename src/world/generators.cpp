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

AttributeDriver::AttributeDriver(WorldModel& world, ObjectId object,
                                 Name attribute,
                                 std::unique_ptr<ArrivalProcess> arrivals,
                                 std::unique_ptr<ValueProcess> values, Rng rng)
    : world_(world),
      object_(object),
      attribute_(attribute),
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
  const AttributeValue* current = world_.object(object_).find(attribute_);
  world_.emit(object_, attribute_,
              values_->next(current != nullptr ? *current : AttributeValue(),
                            rng_));
  schedule_next();
}

}  // namespace psn::world
