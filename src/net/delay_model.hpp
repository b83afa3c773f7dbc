#pragma once

#include <memory>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "common/types.hpp"

namespace psn::net {

/// Per-hop message (transmission + propagation) delay — the paper's design
/// axis §3.2.2. Three regimes: synchronous (Δ = 0, the ideal), asynchronous
/// Δ-bounded (practical wireless: retransmission attempts are bounded), and
/// asynchronous unbounded (worst-case analysis).
class DelayModel {
 public:
  virtual ~DelayModel() = default;
  virtual Duration sample(Rng& rng) = 0;
  /// Upper bound Δ on one hop, or Duration::max() if unbounded.
  virtual Duration bound() const = 0;
  /// Lower bound on one hop — the conservative lookahead L of the sharded
  /// driver (no message sent at t can arrive anywhere before t + L, so
  /// shards may advance L apart without synchronizing; DESIGN.md §14).
  /// Zero (the conservative default) means "no lookahead": such a model
  /// cannot be sharded.
  virtual Duration min_delay() const { return Duration::zero(); }
};

/// Δ = 0: instantaneous/synchronous delivery (paper §3.2.2.a). With strobes
/// at every event this collapses the state lattice to a line (§4.2.4).
class SynchronousDelay final : public DelayModel {
 public:
  Duration sample(Rng&) override { return Duration::zero(); }
  Duration bound() const override { return Duration::zero(); }
};

/// Constant delay d (deterministic network).
class FixedDelay final : public DelayModel {
 public:
  explicit FixedDelay(Duration d);
  Duration sample(Rng&) override { return d_; }
  Duration bound() const override { return d_; }
  Duration min_delay() const override { return d_; }

 private:
  Duration d_;
};

/// Uniform in [min, Δ]: the paper's Δ-bounded asynchronous model (§3.2.2.b).
class UniformBoundedDelay final : public DelayModel {
 public:
  UniformBoundedDelay(Duration min, Duration max);
  /// Convenience: uniform in [Δ/10, Δ].
  static std::unique_ptr<UniformBoundedDelay> with_bound(Duration delta);

  Duration sample(Rng& rng) override;
  Duration bound() const override { return max_; }
  Duration min_delay() const override { return min_; }

 private:
  Duration min_, max_;
};

/// Exponential with the given mean: unbounded tail (§3.2.2.c), for worst-case
/// experiments. Its minimum delay is zero, so it cannot be sharded.
class ExponentialDelay final : public DelayModel {
 public:
  explicit ExponentialDelay(Duration mean);
  Duration sample(Rng& rng) override;
  Duration bound() const override { return Duration::max(); }

 private:
  Duration mean_;
};

}  // namespace psn::net
