#pragma once

#include <cstdint>
#include <random>
#include <string_view>

#include "common/sim_time.hpp"

namespace psn {

/// Stateless 64-bit mixing function (the SplitMix64 output step: add the
/// golden-ratio increment, then finalize); used to derive substream seeds,
/// to key per-message streams, and anywhere a cheap hash of integers is
/// needed.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic random source with named sub-streams.
///
/// Every stochastic component of the simulator (world-event generators,
/// message-delay models, loss models, clock drift) draws from its own stream
/// derived from (master seed, component name, component index). Adding or
/// removing one component therefore never perturbs the draws seen by another,
/// which keeps paired experiment comparisons (e.g. scalar vs vector strobes
/// on the same world history) meaningful.
///
/// The engine is SplitMix64: one 64-bit word of state, stepped by the
/// golden-ratio constant and finalized by mix64. Constructing, seeding and
/// copying an Rng is O(1), so a fresh stream per message is cheap. Rng is a
/// uniform random bit generator, so the <random> distributions accept it.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed) : state_(seed) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  /// The next raw 64-bit draw.
  result_type operator()() {
    const result_type out = mix64(state_);
    state_ += 0x9e3779b97f4a7c15ULL;
    return out;
  }

  /// Derives an independent stream keyed by a component name and index.
  Rng substream(std::string_view name, std::uint64_t index = 0) const;

  /// Uniform in [0, 1).
  double uniform01();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// True with probability p.
  bool bernoulli(double p);
  /// Exponential with the given mean (> 0).
  double exponential(double mean);
  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Exponential inter-arrival gap for a Poisson process of rate
  /// `rate_per_second` events/s, as a Duration (always >= 1 ns so that
  /// successive events never collide at the same instant).
  Duration exponential_gap(double rate_per_second);
  /// Uniform duration in [lo, hi].
  Duration uniform_duration(Duration lo, Duration hi);

 private:
  std::uint64_t state_;
};

/// FNV-1a hash of a string, for keying substreams by component name.
std::uint64_t hash_name(std::string_view name);

}  // namespace psn
