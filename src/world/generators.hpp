#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "world/world_model.hpp"

namespace psn::world {

/// When the next attribute change happens. Implementations are the stochastic
/// processes the paper's viability condition speaks about: "the rate of
/// occurrence of sensed events is comparatively low [relative to Δ]" (§3.3).
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;
  virtual Duration next_gap(Rng& rng) = 0;
};

/// Memoryless arrivals at a fixed rate (events/second).
class PoissonArrivals final : public ArrivalProcess {
 public:
  explicit PoissonArrivals(double rate_per_second);
  Duration next_gap(Rng& rng) override;

 private:
  double rate_;
};

/// Fixed period with optional uniform jitter in [-jitter, +jitter].
class PeriodicArrivals final : public ArrivalProcess {
 public:
  explicit PeriodicArrivals(Duration period, Duration jitter = Duration::zero());
  Duration next_gap(Rng& rng) override;

 private:
  Duration period_;
  Duration jitter_;
};

/// Two-state Markov-modulated Poisson process: alternates between a quiet
/// rate and a burst rate, with exponentially distributed dwell times. Models
/// e.g. crowd surges through exhibition-hall doors.
class BurstyArrivals final : public ArrivalProcess {
 public:
  BurstyArrivals(double quiet_rate, double burst_rate, Duration mean_quiet_dwell,
                 Duration mean_burst_dwell);
  Duration next_gap(Rng& rng) override;

 private:
  double quiet_rate_, burst_rate_;
  Duration mean_quiet_dwell_, mean_burst_dwell_;
  bool bursting_ = false;
  Duration dwell_remaining_ = Duration::zero();
};

/// How the attribute's value evolves at each change.
class ValueProcess {
 public:
  virtual ~ValueProcess() = default;
  virtual AttributeValue next(const AttributeValue& current, Rng& rng) = 0;
};

/// Integer counter: +step per event (people entering through a door).
class CounterValue final : public ValueProcess {
 public:
  explicit CounterValue(std::int64_t step = 1) : step_(step) {}
  AttributeValue next(const AttributeValue& current, Rng& rng) override;

 private:
  std::int64_t step_;
};

/// Boolean flip (motion detected / cleared).
class ToggleValue final : public ValueProcess {
 public:
  AttributeValue next(const AttributeValue& current, Rng& rng) override;
};

/// Bounded random walk on a double (room temperature).
class RandomWalkValue final : public ValueProcess {
 public:
  RandomWalkValue(double max_step, double lo, double hi);
  AttributeValue next(const AttributeValue& current, Rng& rng) override;

 private:
  double max_step_, lo_, hi_;
};

/// Uniform choice from a fixed set of integer levels.
class ChoiceValue final : public ValueProcess {
 public:
  explicit ChoiceValue(std::vector<std::int64_t> levels);
  AttributeValue next(const AttributeValue& current, Rng& rng) override;

 private:
  std::vector<std::int64_t> levels_;
};

/// Drives one (object, attribute) pair: draws gaps from the arrival process
/// and values from the value process, emitting into the world model until the
/// simulation horizon. Create via WorldModel's simulation; call start() once.
class AttributeDriver {
 public:
  AttributeDriver(WorldModel& world, ObjectId object, std::string attribute,
                  std::unique_ptr<ArrivalProcess> arrivals,
                  std::unique_ptr<ValueProcess> values, Rng rng);

  void start();

 private:
  void schedule_next();
  void fire();

  WorldModel& world_;
  ObjectId object_;
  std::string attribute_;
  std::unique_ptr<ArrivalProcess> arrivals_;
  std::unique_ptr<ValueProcess> values_;
  Rng rng_;
};

}  // namespace psn::world
