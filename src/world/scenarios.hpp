#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "world/generators.hpp"
#include "world/world_model.hpp"

namespace psn::world {

/// Paper §5: a convention-center exhibition hall with `doors` entry-cum-exit
/// doors and a fire-code capacity. Each door k is a world object with two
/// counter attributes, "entered" and "exited"; the sensed variables are
/// x_k = entered, y_k = exited and the predicate of interest is
/// Σ(x_k − y_k) > capacity.
///
/// People movement is one stochastic process over the whole hall: movement
/// events arrive at `movement_rate`; each is an entry or an exit (entry
/// probability pulls the true occupancy toward `target_occupancy`, so the
/// predicate keeps crossing its threshold — the paper requires detecting
/// *each* occurrence, not just the first) through a uniformly chosen door.
struct ExhibitionHallConfig {
  int doors = 4;
  int capacity = 200;
  /// People movements (entry or exit) per second across all doors.
  double movement_rate = 20.0;
  /// Occupancy the crowd process hovers around; keep close to capacity.
  double target_occupancy = 200.0;
  int initial_occupancy = 190;
  /// Pull strength toward the target (0 = pure random walk).
  double pull = 2.0;
  /// Object-name prefix; door k is named "<prefix>_<k>".
  std::string name_prefix = "door";
};

class ExhibitionHall {
 public:
  ExhibitionHall(WorldModel& world, ExhibitionHallConfig config, Rng rng);

  /// Seeds initial occupancy (as entries spread over the doors at t=0) and
  /// schedules the movement process.
  void start();

  int doors() const { return config_.doors; }
  ObjectId door_object(int k) const;
  const ExhibitionHallConfig& config() const { return config_; }

 private:
  void schedule_next();
  void movement();

  WorldModel& world_;
  ExhibitionHallConfig config_;
  Rng rng_;
  std::vector<ObjectId> door_objects_;
  std::vector<std::int64_t> entered_, exited_;
  int occupancy_ = 0;
};

/// Smart-office scenario (paper §3.1.1.b.i example): rooms with a temperature
/// random walk and a motion-driven occupancy toggle. Predicate of interest:
/// temp_i > threshold ∧ occupied_i (conjunctive, locally evaluable per room).
struct SmartOfficeConfig {
  int rooms = 2;
  double temp_change_rate = 2.0;      ///< temperature updates per second
  double temp_step = 1.5;             ///< max degrees per update
  double temp_lo = 18.0, temp_hi = 36.0;
  double motion_rate = 0.5;           ///< occupancy toggles per second
};

class SmartOffice {
 public:
  SmartOffice(WorldModel& world, SmartOfficeConfig config, Rng rng);
  void start();

  int rooms() const { return config_.rooms; }
  /// Room object k has attributes "temp" (double) and "occupied" (bool).
  ObjectId room_object(int k) const;

 private:
  WorldModel& world_;
  SmartOfficeConfig config_;
  std::vector<ObjectId> room_objects_;
  std::vector<std::unique_ptr<AttributeDriver>> drivers_;
};

/// Hospital scenario (paper §5): a waiting room monitored like the hall, plus
/// an infectious-diseases ward. Predicates of interest:
///   waiting-room overcrowding: Σ(x_k − y_k) > capacity, and
///   violation: visitor present in the ward while it is restricted —
///   occupied ∧ restricted (conjunctive, the §5 "raise alarms when a visitor
///   approaches a patient whom he is not visiting" flavor).
struct HospitalWardConfig {
  int waiting_room_doors = 2;
  int waiting_room_capacity = 30;
  double movement_rate = 4.0;
  double target_occupancy = 30.0;
  int initial_occupancy = 26;
  double ward_visit_rate = 0.2;  ///< ward occupancy toggles per second
  double restriction_toggle_rate = 0.05;
};

class HospitalWard {
 public:
  HospitalWard(WorldModel& world, HospitalWardConfig config, Rng rng);
  void start();

  ObjectId waiting_door_object(int k) const;
  int waiting_doors() const { return config_.waiting_room_doors; }
  /// Ward object: attributes "occupied" (bool), "restricted" (bool).
  ObjectId ward_object() const { return ward_; }

 private:
  WorldModel& world_;
  HospitalWardConfig config_;
  std::unique_ptr<ExhibitionHall> waiting_room_;  // reuse the crowd process
  ObjectId ward_ = kNoObject;
  std::vector<std::unique_ptr<AttributeDriver>> drivers_;
};

}  // namespace psn::world
