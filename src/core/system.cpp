#include "core/system.hpp"

#include <utility>

#include "common/error.hpp"

namespace psn::core {

std::unique_ptr<net::DelayModel> make_delay_model(
    const DeploymentConfig& cfg) {
  switch (cfg.delay_kind) {
    case DelayKind::kSynchronous:
      return std::make_unique<net::SynchronousDelay>();
    case DelayKind::kFixed:
      return std::make_unique<net::FixedDelay>(cfg.delta);
    case DelayKind::kUniformBounded:
      return net::UniformBoundedDelay::with_bound(cfg.delta);
    case DelayKind::kExponential:
      return std::make_unique<net::ExponentialDelay>(cfg.delta);
  }
  PSN_CHECK(false, "unknown delay kind");
  return nullptr;
}

namespace {

/// Drops when any constituent model drops (Bernoulli noise + scheduled
/// bursts compose this way).
class CombinedLoss final : public net::LossModel {
 public:
  explicit CombinedLoss(std::vector<std::unique_ptr<net::LossModel>> models)
      : models_(std::move(models)) {}
  bool drop(SimTime now, Rng& rng) override {
    bool dropped = false;
    // Evaluate all models so their internal state/draw streams advance
    // deterministically regardless of short-circuiting.
    for (const auto& m : models_) {
      if (m->drop(now, rng)) dropped = true;
    }
    return dropped;
  }

 private:
  std::vector<std::unique_ptr<net::LossModel>> models_;
};

}  // namespace

std::unique_ptr<net::LossModel> make_loss_model(const DeploymentConfig& cfg) {
  std::vector<std::unique_ptr<net::LossModel>> parts;
  if (cfg.loss_probability > 0.0) {
    parts.push_back(std::make_unique<net::BernoulliLoss>(cfg.loss_probability));
  }
  if (!cfg.loss_windows.empty()) {
    parts.push_back(std::make_unique<net::ScheduledBurstLoss>(cfg.loss_windows));
  }
  if (cfg.gilbert_elliott.has_value()) {
    const auto& ge = *cfg.gilbert_elliott;
    parts.push_back(std::make_unique<net::GilbertElliottLoss>(
        ge.p_good_to_bad, ge.p_bad_to_good, ge.loss_in_good, ge.loss_in_bad));
  }
  if (parts.empty()) return std::make_unique<net::NoLoss>();
  if (parts.size() == 1) return std::move(parts[0]);
  return std::make_unique<CombinedLoss>(std::move(parts));
}

}  // namespace psn::core
