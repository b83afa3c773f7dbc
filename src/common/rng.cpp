#include "common/rng.hpp"

#include <cmath>

#include "common/error.hpp"

namespace psn {

std::uint64_t hash_name(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return h;
}

Rng Rng::substream(std::string_view name, std::uint64_t index) const {
  // Keyed by the parent's next draw, read without stepping the parent:
  // deriving a substream never perturbs the parent's own sequence.
  const std::uint64_t base = mix64(state_);
  return Rng(mix64(base ^ mix64(hash_name(name)) ^ mix64(index + 1)));
}

double Rng::uniform01() {
  // 53-bit mantissa construction: uniform in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  PSN_CHECK(lo <= hi, "uniform bounds inverted");
  return lo + (hi - lo) * uniform01();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  PSN_CHECK(lo <= hi, "uniform_int bounds inverted");
  std::uniform_int_distribution<std::int64_t> d(lo, hi);
  return d(*this);
}

bool Rng::bernoulli(double p) {
  PSN_CHECK(p >= 0.0 && p <= 1.0, "bernoulli p out of [0,1]");
  return uniform01() < p;
}

double Rng::exponential(double mean) {
  PSN_CHECK(mean > 0.0, "exponential mean must be positive");
  // Inverse-CDF; uniform01() < 1 so the log argument is > 0.
  return -mean * std::log(1.0 - uniform01());
}

double Rng::normal(double mean, double stddev) {
  PSN_CHECK(stddev >= 0.0, "normal stddev must be non-negative");
  std::normal_distribution<double> d(mean, stddev);
  return d(*this);
}

Duration Rng::exponential_gap(double rate_per_second) {
  PSN_CHECK(rate_per_second > 0.0, "event rate must be positive");
  const double gap_s = exponential(1.0 / rate_per_second);
  const auto d = Duration::from_seconds(gap_s);
  return d < Duration::nanos(1) ? Duration::nanos(1) : d;
}

Duration Rng::uniform_duration(Duration lo, Duration hi) {
  PSN_CHECK(lo <= hi, "uniform_duration bounds inverted");
  return Duration(uniform_int(lo.count_nanos(), hi.count_nanos()));
}

}  // namespace psn
