#pragma once

#include <compare>
#include <cstdint>
#include <limits>
#include <string>

namespace psn {

/// 2^63 ns, about 292 years: the exclusive bound on |s · 1e9| for any
/// floating-point second count that is converted to integer nanoseconds.
inline constexpr double kNanosBound = 9223372036854775808.0;

/// True when `s` seconds rounds to a representable nanosecond count, i.e.
/// s · 1e9 lies in [-2^63, 2^63). NaN and the infinities fail. Parsers of
/// untrusted second counts test this before calling from_seconds, which
/// checks it too.
constexpr bool seconds_fit_nanos(double s) {
  const double ns = s * 1e9;
  return ns >= -kNanosBound && ns < kNanosBound;
}

/// Simulated physical ("true") time, in integer nanoseconds.
///
/// The whole library uses fixed-point nanoseconds rather than floating-point
/// seconds so that the event calendar has a deterministic total order and
/// repeated runs with the same seed are bit-identical. Durations and absolute
/// times share the representation; `SimTime` is an absolute instant and
/// `Duration` a signed difference.
class Duration {
 public:
  constexpr Duration() = default;
  constexpr explicit Duration(std::int64_t nanos) : nanos_(nanos) {}

  static constexpr Duration nanos(std::int64_t n) { return Duration(n); }
  static constexpr Duration micros(std::int64_t us) { return Duration(us * 1000); }
  static constexpr Duration millis(std::int64_t ms) { return Duration(ms * 1'000'000); }
  static constexpr Duration seconds(std::int64_t s) { return Duration(s * 1'000'000'000); }
  /// Converts a floating-point second count, rounding to the nearest ns.
  static Duration from_seconds(double s);
  static constexpr Duration zero() { return Duration(0); }
  static constexpr Duration max() {
    return Duration(std::numeric_limits<std::int64_t>::max());
  }

  constexpr std::int64_t count_nanos() const { return nanos_; }
  constexpr double to_seconds() const {
    return static_cast<double>(nanos_) / 1e9;
  }
  constexpr double to_millis() const {
    return static_cast<double>(nanos_) / 1e6;
  }

  constexpr auto operator<=>(const Duration&) const = default;
  constexpr Duration operator+(Duration o) const { return Duration(nanos_ + o.nanos_); }
  constexpr Duration operator-(Duration o) const { return Duration(nanos_ - o.nanos_); }
  constexpr Duration operator-() const { return Duration(-nanos_); }
  constexpr Duration operator*(std::int64_t k) const { return Duration(nanos_ * k); }
  constexpr Duration operator/(std::int64_t k) const { return Duration(nanos_ / k); }
  constexpr Duration& operator+=(Duration o) { nanos_ += o.nanos_; return *this; }
  constexpr Duration& operator-=(Duration o) { nanos_ -= o.nanos_; return *this; }
  /// Scales by a double, rounding to nearest ns (for jitter computations).
  Duration scaled(double f) const;
  constexpr Duration abs() const { return Duration(nanos_ < 0 ? -nanos_ : nanos_); }

  std::string to_string() const;

 private:
  std::int64_t nanos_ = 0;
};

class SimTime {
 public:
  constexpr SimTime() = default;
  constexpr explicit SimTime(std::int64_t nanos) : nanos_(nanos) {}

  static constexpr SimTime zero() { return SimTime(0); }
  static constexpr SimTime max() {
    return SimTime(std::numeric_limits<std::int64_t>::max());
  }
  static SimTime from_seconds(double s);

  constexpr std::int64_t count_nanos() const { return nanos_; }
  constexpr double to_seconds() const {
    return static_cast<double>(nanos_) / 1e9;
  }

  constexpr auto operator<=>(const SimTime&) const = default;
  constexpr SimTime operator+(Duration d) const { return SimTime(nanos_ + d.count_nanos()); }
  constexpr SimTime operator-(Duration d) const { return SimTime(nanos_ - d.count_nanos()); }
  constexpr Duration operator-(SimTime o) const { return Duration(nanos_ - o.nanos_); }
  constexpr SimTime& operator+=(Duration d) { nanos_ += d.count_nanos(); return *this; }

  std::string to_string() const;

 private:
  std::int64_t nanos_ = 0;
};

namespace time_literals {
constexpr Duration operator""_ns(unsigned long long n) {
  return Duration(static_cast<std::int64_t>(n));
}
constexpr Duration operator""_us(unsigned long long n) {
  return Duration::micros(static_cast<std::int64_t>(n));
}
constexpr Duration operator""_ms(unsigned long long n) {
  return Duration::millis(static_cast<std::int64_t>(n));
}
constexpr Duration operator""_s(unsigned long long n) {
  return Duration::seconds(static_cast<std::int64_t>(n));
}
}  // namespace time_literals

}  // namespace psn
