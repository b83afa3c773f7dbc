#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"

namespace psn::net {

/// Whether a given transmission is lost. The paper notes (§4.2.2 end) that a
/// strobe loss can cause wrong detection *near* the loss but has "no
/// long-term ripple effects" — experiment E8 injects losses with these models
/// and measures where the errors land.
class LossModel {
 public:
  virtual ~LossModel() = default;
  virtual bool drop(SimTime now, Rng& rng) = 0;
};

class NoLoss final : public LossModel {
 public:
  bool drop(SimTime, Rng&) override { return false; }
};

/// Independent loss with probability p per transmission.
class BernoulliLoss final : public LossModel {
 public:
  explicit BernoulliLoss(double p);
  bool drop(SimTime, Rng& rng) override;

 private:
  double p_;
};

/// Two-state Gilbert–Elliott channel: correlated loss bursts. State switches
/// are evaluated per transmission with the given switch probabilities.
class GilbertElliottLoss final : public LossModel {
 public:
  GilbertElliottLoss(double p_good_to_bad, double p_bad_to_good,
                     double loss_in_good, double loss_in_bad);
  bool drop(SimTime, Rng& rng) override;

 private:
  double p_gb_, p_bg_, loss_good_, loss_bad_;
  bool bad_ = false;
};

/// Drops every transmission inside fixed true-time windows — the E8
/// fault-injection instrument: the error locality claim needs losses at
/// *known* times.
class ScheduledBurstLoss final : public LossModel {
 public:
  struct Window {
    SimTime begin;
    SimTime end;
  };
  explicit ScheduledBurstLoss(std::vector<Window> windows);
  bool drop(SimTime now, Rng&) override;

 private:
  std::vector<Window> windows_;
};

}  // namespace psn::net
