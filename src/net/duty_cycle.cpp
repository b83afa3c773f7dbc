#include "net/duty_cycle.hpp"

#include "common/error.hpp"

namespace psn::net {

SimTime DutyCycle::next_wake(SimTime t) const {
  PSN_CHECK(valid(), "invalid duty cycle");
  const std::int64_t p = period.count_nanos();
  std::int64_t offset = (t.count_nanos() - phase.count_nanos()) % p;
  if (offset < 0) offset += p;
  if (offset < window.count_nanos()) return t;  // already awake
  return t + Duration(p - offset);              // next window start
}

}  // namespace psn::net
