#include "world/scenarios.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace psn::world {
namespace {

using namespace psn::time_literals;

sim::SimConfig config_for(std::int64_t seconds, std::uint64_t seed = 1) {
  sim::SimConfig cfg;
  cfg.seed = seed;
  cfg.horizon = SimTime::zero() + Duration::seconds(seconds);
  return cfg;
}

/// Ground-truth occupancy replayed from the world timeline: one in per
/// "entered" event, one out per "exited" event.
std::int64_t replayed_occupancy(const WorldModel& world) {
  std::int64_t occupancy = 0;
  for (const WorldEvent& ev : world.timeline().events()) {
    if (ev.attribute.str() == "entered") occupancy++;
    if (ev.attribute.str() == "exited") occupancy--;
  }
  return occupancy;
}

TEST(ExhibitionHallTest, CreatesDoorObjectsWithCounters) {
  sim::Simulation sim(config_for(1));
  WorldModel world(sim);
  ExhibitionHallConfig cfg;
  cfg.doors = 3;
  ExhibitionHall hall(world, cfg, Rng(1));
  for (int k = 0; k < 3; ++k) {
    const WorldObject& door = world.object(hall.door_object(k));
    EXPECT_EQ(door.attribute("entered").as_int(), 0);
    EXPECT_EQ(door.attribute("exited").as_int(), 0);
  }
  EXPECT_THROW(hall.door_object(3), InvariantError);
}

TEST(ExhibitionHallTest, OccupancyEqualsCounterDifference) {
  sim::Simulation sim(config_for(30));
  WorldModel world(sim);
  ExhibitionHallConfig cfg;
  cfg.doors = 4;
  cfg.capacity = 50;
  cfg.target_occupancy = 50;
  cfg.initial_occupancy = 45;
  cfg.movement_rate = 30.0;
  ExhibitionHall hall(world, cfg, Rng(2));
  hall.start();
  sim.run();

  std::int64_t entered = 0, exited = 0;
  for (int k = 0; k < cfg.doors; ++k) {
    entered += world.object(hall.door_object(k)).attribute("entered").as_int();
    exited += world.object(hall.door_object(k)).attribute("exited").as_int();
  }
  EXPECT_EQ(entered - exited, replayed_occupancy(world));
  EXPECT_GE(entered - exited, 0);
  EXPECT_GT(world.timeline().size(), 100u);  // the crowd actually moved
}

TEST(ExhibitionHallTest, OccupancyHoversAroundTarget) {
  sim::Simulation sim(config_for(120));
  WorldModel world(sim);
  ExhibitionHallConfig cfg;
  cfg.doors = 2;
  cfg.capacity = 100;
  cfg.target_occupancy = 100;
  cfg.initial_occupancy = 100;
  cfg.movement_rate = 50.0;
  ExhibitionHall hall(world, cfg, Rng(3));
  hall.start();
  sim.run();
  EXPECT_NEAR(static_cast<double>(replayed_occupancy(world)), 100.0, 40.0);
}

TEST(ExhibitionHallTest, ThresholdGetsCrossedRepeatedly) {
  sim::Simulation sim(config_for(60));
  WorldModel world(sim);
  ExhibitionHallConfig cfg;
  cfg.doors = 2;
  cfg.capacity = 50;
  cfg.target_occupancy = 50;
  cfg.initial_occupancy = 48;
  cfg.movement_rate = 20.0;
  ExhibitionHall hall(world, cfg, Rng(4));
  hall.start();
  sim.run();

  // Replay the timeline and count occupancy threshold crossings.
  std::int64_t occupancy = 0;
  int crossings = 0;
  bool above = false;
  for (const auto& ev : world.timeline().events()) {
    if (ev.attribute.str() == "entered") occupancy++;
    if (ev.attribute.str() == "exited") occupancy--;
    const bool now_above = occupancy > cfg.capacity;
    if (now_above != above) crossings++;
    above = now_above;
  }
  EXPECT_GT(crossings, 4);
}

TEST(ExhibitionHallTest, InitialSeedEmitsWorldEvents) {
  sim::Simulation sim(config_for(1));
  WorldModel world(sim);
  ExhibitionHallConfig cfg;
  cfg.doors = 2;
  cfg.initial_occupancy = 20;
  cfg.movement_rate = 0.001;  // essentially no movement afterwards
  ExhibitionHall hall(world, cfg, Rng(5));
  hall.start();
  EXPECT_EQ(world.timeline().size(), 20u);
  EXPECT_EQ(replayed_occupancy(world), 20);
}

TEST(ExhibitionHallTest, ConfigValidation) {
  sim::Simulation sim(config_for(1));
  WorldModel world(sim);
  ExhibitionHallConfig bad;
  bad.doors = 0;
  EXPECT_THROW(ExhibitionHall(world, bad, Rng(1)), InvariantError);
}

TEST(SmartOfficeTest, BuildsRoomsAndDrives) {
  sim::Simulation sim(config_for(20));
  WorldModel world(sim);
  SmartOfficeConfig cfg;
  cfg.rooms = 2;
  SmartOffice office(world, cfg, Rng(6));
  office.start();
  sim.run();

  for (int k = 0; k < 2; ++k) {
    const WorldObject& room = world.object(office.room_object(k));
    const double temp = room.attribute("temp").as_double();
    EXPECT_GE(temp, cfg.temp_lo);
    EXPECT_LE(temp, cfg.temp_hi);
    EXPECT_TRUE(room.attribute("occupied").is_bool());
  }
  // Initial emissions (2 per room) plus driver events.
  EXPECT_GT(world.timeline().size(), 10u);
}

TEST(SmartOfficeTest, InitialConditionsPublished) {
  sim::Simulation sim(config_for(1));
  WorldModel world(sim);
  SmartOfficeConfig cfg;
  cfg.rooms = 1;
  SmartOffice office(world, cfg, Rng(7));
  office.start();
  ASSERT_GE(world.timeline().size(), 2u);
  EXPECT_EQ(world.timeline().at(0).attribute.str(), "temp");
  EXPECT_EQ(world.timeline().at(1).attribute.str(), "occupied");
}

TEST(HospitalWardTest, BuildsWaitingRoomAndWard) {
  sim::Simulation sim(config_for(30));
  WorldModel world(sim);
  HospitalWardConfig cfg;
  HospitalWard hospital(world, cfg, Rng(8));
  hospital.start();
  sim.run();

  // Waiting room doors exist and saw traffic.
  std::int64_t entered = 0;
  for (int k = 0; k < cfg.waiting_room_doors; ++k) {
    entered += world.object(hospital.waiting_door_object(k))
                   .attribute("entered")
                   .as_int();
  }
  EXPECT_GT(entered, 0);

  const WorldObject& ward = world.object(hospital.ward_object());
  EXPECT_TRUE(ward.attribute("occupied").is_bool());
  EXPECT_TRUE(ward.attribute("restricted").is_bool());
}

}  // namespace
}  // namespace psn::world
