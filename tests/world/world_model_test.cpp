#include "world/world_model.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace psn::world {
namespace {

using namespace psn::time_literals;

sim::SimConfig quick_config() {
  sim::SimConfig cfg;
  cfg.horizon = SimTime::zero() + 10_s;
  return cfg;
}

TEST(WorldModelTest, CreateAndAccessObjects) {
  sim::Simulation sim(quick_config());
  WorldModel world(sim);
  const ObjectId a = world.create_object("door", {1.0, 2.0});
  const ObjectId b = world.create_object("room");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(world.num_objects(), 2u);
  EXPECT_EQ(world.object(a).name(), "door");
  EXPECT_EQ(world.object(a).location(), (Point2D{1.0, 2.0}));
  EXPECT_THROW(world.object(7), InvariantError);
}

TEST(WorldModelTest, EmitUpdatesObjectAndTimeline) {
  sim::Simulation sim(quick_config());
  WorldModel world(sim);
  const ObjectId a = world.create_object("door");
  world.emit(a, "entered", std::int64_t{5});
  EXPECT_EQ(world.object(a).attribute("entered").as_int(), 5);
  ASSERT_EQ(world.timeline().size(), 1u);
  EXPECT_EQ(world.timeline().at(0).attribute, "entered");
  EXPECT_EQ(world.timeline().at(0).when, SimTime::zero());
}

TEST(WorldModelTest, SinksSeeEventsInEmissionOrder) {
  sim::Simulation sim(quick_config());
  WorldModel world(sim);
  const ObjectId a = world.create_object("o");
  std::vector<std::string> seen;
  world.add_sink([&](const WorldEvent& ev) { seen.push_back(ev.attribute); });
  world.add_sink([&](const WorldEvent& ev) {
    seen.push_back(ev.attribute + "-second");
  });
  world.emit(a, "x", 1);
  world.emit(a, "y", 2);
  EXPECT_EQ(seen,
            (std::vector<std::string>{"x", "x-second", "y", "y-second"}));
}

TEST(WorldObjectTest, AttributeAccess) {
  WorldObject o(0, "thing", {});
  EXPECT_FALSE(o.has_attribute("temp"));
  EXPECT_THROW(o.attribute("temp"), InvariantError);
  o.set_attribute("temp", 21.5);
  EXPECT_TRUE(o.has_attribute("temp"));
  EXPECT_DOUBLE_EQ(o.attribute("temp").as_double(), 21.5);
}

TEST(AttributeValueTest, TypesAndNumeric) {
  EXPECT_EQ(AttributeValue(std::int64_t{7}).as_int(), 7);
  EXPECT_TRUE(AttributeValue(true).as_bool());
  EXPECT_DOUBLE_EQ(AttributeValue(2.5).as_double(), 2.5);
  EXPECT_DOUBLE_EQ(AttributeValue(std::int64_t{7}).numeric(), 7.0);
  EXPECT_DOUBLE_EQ(AttributeValue(true).numeric(), 1.0);
  EXPECT_DOUBLE_EQ(AttributeValue(false).numeric(), 0.0);
  EXPECT_THROW(AttributeValue(1.0).as_int(), InvariantError);
  EXPECT_EQ(AttributeValue(std::int64_t{3}).to_string(), "3");
  EXPECT_EQ(AttributeValue(true).to_string(), "true");
}

}  // namespace
}  // namespace psn::world
