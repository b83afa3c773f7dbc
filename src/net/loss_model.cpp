#include "net/loss_model.hpp"

#include <utility>

#include "common/error.hpp"

namespace psn::net {

BernoulliLoss::BernoulliLoss(double p) : p_(p) {
  PSN_CHECK(p_ >= 0.0 && p_ <= 1.0, "loss probability out of [0,1]");
}

bool BernoulliLoss::drop(SimTime, Rng& rng) { return rng.bernoulli(p_); }

GilbertElliottLoss::GilbertElliottLoss(double p_good_to_bad,
                                       double p_bad_to_good,
                                       double loss_in_good, double loss_in_bad)
    : p_gb_(p_good_to_bad),
      p_bg_(p_bad_to_good),
      loss_good_(loss_in_good),
      loss_bad_(loss_in_bad) {
  for (const double p : {p_gb_, p_bg_, loss_good_, loss_bad_}) {
    PSN_CHECK(p >= 0.0 && p <= 1.0, "probability out of [0,1]");
  }
}

bool GilbertElliottLoss::drop(SimTime, Rng& rng) {
  if (bad_) {
    if (rng.bernoulli(p_bg_)) bad_ = false;
  } else {
    if (rng.bernoulli(p_gb_)) bad_ = true;
  }
  return rng.bernoulli(bad_ ? loss_bad_ : loss_good_);
}

ScheduledBurstLoss::ScheduledBurstLoss(std::vector<Window> windows)
    : windows_(std::move(windows)) {
  for (const auto& w : windows_) {
    PSN_CHECK(w.begin <= w.end, "loss window inverted");
  }
}

bool ScheduledBurstLoss::drop(SimTime now, Rng&) {
  for (const auto& w : windows_) {
    if (now >= w.begin && now < w.end) return true;
  }
  return false;
}

}  // namespace psn::net
