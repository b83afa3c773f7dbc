#include "common/sim_time.hpp"

#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace psn {

Duration Duration::from_seconds(double s) {
  PSN_CHECK(std::isfinite(s), "duration seconds must be finite");
  PSN_CHECK(seconds_fit_nanos(s), "duration must be within +-2^63 ns");
  return Duration(static_cast<std::int64_t>(std::llround(s * 1e9)));
}

Duration Duration::scaled(double f) const {
  PSN_CHECK(std::isfinite(f), "scale factor must be finite");
  return Duration(
      static_cast<std::int64_t>(std::llround(static_cast<double>(nanos_) * f)));
}

namespace {
std::string format_nanos(std::int64_t nanos) {
  char buf[64];
  const double a = std::abs(static_cast<double>(nanos));
  if (a >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.3fs", static_cast<double>(nanos) / 1e9);
  } else if (a >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.3fms", static_cast<double>(nanos) / 1e6);
  } else if (a >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.3fus", static_cast<double>(nanos) / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%lldns", static_cast<long long>(nanos));
  }
  return buf;
}
}  // namespace

std::string Duration::to_string() const { return format_nanos(nanos_); }

SimTime SimTime::from_seconds(double s) {
  PSN_CHECK(std::isfinite(s) && s >= 0.0, "absolute time must be finite and >= 0");
  PSN_CHECK(seconds_fit_nanos(s), "absolute time must be below 2^63 ns");
  return SimTime(static_cast<std::int64_t>(std::llround(s * 1e9)));
}

std::string SimTime::to_string() const { return format_nanos(nanos_); }

}  // namespace psn
