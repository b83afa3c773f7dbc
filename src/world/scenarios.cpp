#include "world/scenarios.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace psn::world {

ExhibitionHall::ExhibitionHall(WorldModel& world, ExhibitionHallConfig config,
                               Rng rng)
    : world_(world), config_(config), rng_(rng) {
  PSN_CHECK(config_.doors > 0, "hall needs at least one door");
  PSN_CHECK(config_.capacity > 0, "capacity must be positive");
  PSN_CHECK(config_.movement_rate > 0.0, "movement rate must be positive");
  PSN_CHECK(config_.initial_occupancy >= 0, "initial occupancy negative");
  door_objects_.reserve(static_cast<std::size_t>(config_.doors));
  entered_.assign(static_cast<std::size_t>(config_.doors), 0);
  exited_.assign(static_cast<std::size_t>(config_.doors), 0);
  for (int k = 0; k < config_.doors; ++k) {
    const auto id =
        world_.create_object(config_.name_prefix + "_" + std::to_string(k));
    world_.object(id).set_attribute(entered_name_, std::int64_t{0});
    world_.object(id).set_attribute(exited_name_, std::int64_t{0});
    door_objects_.push_back(id);
  }
}

ObjectId ExhibitionHall::door_object(int k) const {
  PSN_CHECK(k >= 0 && k < config_.doors, "door index out of range");
  return door_objects_[static_cast<std::size_t>(k)];
}

void ExhibitionHall::start() {
  // Seed the initial crowd: spread entries uniformly over the doors at t=0
  // so detectors start from a consistent non-zero occupancy.
  for (int i = 0; i < config_.initial_occupancy; ++i) {
    const auto k = static_cast<std::size_t>(
        rng_.uniform_int(0, config_.doors - 1));
    entered_[k]++;
    world_.emit(door_objects_[k], entered_name_, entered_[k]);
  }
  occupancy_ = config_.initial_occupancy;
  schedule_next();
}

void ExhibitionHall::schedule_next() {
  const Duration gap = rng_.exponential_gap(config_.movement_rate);
  world_.simulation().scheduler().schedule_after(gap, [this] { movement(); });
}

void ExhibitionHall::movement() {
  // Entry probability is a logistic pull toward the target occupancy, so the
  // true occupancy keeps re-crossing the capacity threshold.
  const double deviation =
      (config_.target_occupancy - static_cast<double>(occupancy_)) /
      std::max(1.0, config_.target_occupancy);
  const double p_entry =
      std::clamp(0.5 + config_.pull * deviation, 0.05, 0.95);
  const bool entry = occupancy_ == 0 || rng_.bernoulli(p_entry);
  const auto k =
      static_cast<std::size_t>(rng_.uniform_int(0, config_.doors - 1));
  if (entry) {
    entered_[k]++;
    occupancy_++;
    world_.emit(door_objects_[k], entered_name_, entered_[k]);
  } else {
    exited_[k]++;
    occupancy_--;
    world_.emit(door_objects_[k], exited_name_, exited_[k]);
  }
  schedule_next();
}

SmartOffice::SmartOffice(WorldModel& world, SmartOfficeConfig config, Rng rng)
    : world_(world), config_(config) {
  PSN_CHECK(config_.rooms > 0, "office needs at least one room");
  for (int k = 0; k < config_.rooms; ++k) {
    const auto id = world_.create_object("room_" + std::to_string(k));
    world_.object(id).set_attribute(temp_, 22.0);
    world_.object(id).set_attribute(occupied_, false);
    room_objects_.push_back(id);

    drivers_.push_back(std::make_unique<AttributeDriver>(
        world_, id, temp_,
        std::make_unique<PoissonArrivals>(config_.temp_change_rate),
        std::make_unique<RandomWalkValue>(config_.temp_step, config_.temp_lo,
                                          config_.temp_hi),
        rng.substream("temp", static_cast<std::uint64_t>(k))));
    drivers_.push_back(std::make_unique<AttributeDriver>(
        world_, id, occupied_,
        std::make_unique<PoissonArrivals>(config_.motion_rate),
        std::make_unique<ToggleValue>(),
        rng.substream("motion", static_cast<std::uint64_t>(k))));
  }
}

ObjectId SmartOffice::room_object(int k) const {
  PSN_CHECK(k >= 0 && k < config_.rooms, "room index out of range");
  return room_objects_[static_cast<std::size_t>(k)];
}

void SmartOffice::start() {
  // Publish initial conditions as world events so sensors and the oracle
  // share a defined starting state.
  for (const auto id : room_objects_) {
    world_.emit(id, temp_, world_.object(id).attribute(temp_));
    world_.emit(id, occupied_, world_.object(id).attribute(occupied_));
  }
  for (const auto& d : drivers_) d->start();
}

HospitalWard::HospitalWard(WorldModel& world, HospitalWardConfig config,
                           Rng rng)
    : world_(world), config_(config) {
  ExhibitionHallConfig hall;
  hall.doors = config_.waiting_room_doors;
  hall.capacity = config_.waiting_room_capacity;
  hall.movement_rate = config_.movement_rate;
  hall.target_occupancy = config_.target_occupancy;
  hall.initial_occupancy = config_.initial_occupancy;
  hall.name_prefix = "waiting_door";
  waiting_room_ = std::make_unique<ExhibitionHall>(world_, hall,
                                                   rng.substream("waiting"));

  ward_ = world_.create_object("infectious_ward");
  world_.object(ward_).set_attribute(occupied_, false);
  world_.object(ward_).set_attribute(restricted_, true);

  drivers_.push_back(std::make_unique<AttributeDriver>(
      world_, ward_, occupied_,
      std::make_unique<PoissonArrivals>(config_.ward_visit_rate),
      std::make_unique<ToggleValue>(), rng.substream("ward_visits")));
  drivers_.push_back(std::make_unique<AttributeDriver>(
      world_, ward_, restricted_,
      std::make_unique<PoissonArrivals>(config_.restriction_toggle_rate),
      std::make_unique<ToggleValue>(), rng.substream("restriction")));
}

ObjectId HospitalWard::waiting_door_object(int k) const {
  return waiting_room_->door_object(k);
}

void HospitalWard::start() {
  waiting_room_->start();
  world_.emit(ward_, occupied_, world_.object(ward_).attribute(occupied_));
  world_.emit(ward_, restricted_, world_.object(ward_).attribute(restricted_));
  for (const auto& d : drivers_) d->start();
}

}  // namespace psn::world
