#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/sensing.hpp"
#include "core/variables.hpp"

namespace psn::core {
namespace {

TEST(SensingMapTest, AssignAndLookup) {
  SensingMap map;
  map.assign(3, "temp", 1);
  map.assign(3, "hum", 2);
  map.assign(4, "temp", 1);
  EXPECT_EQ(map.sensor_of(3, "temp"), 1u);
  EXPECT_EQ(map.sensor_of(3, "hum"), 2u);
  EXPECT_EQ(map.sensor_of(4, "temp"), 1u);
  EXPECT_EQ(map.sensor_of(9, "temp"), kNoProcess);
  EXPECT_EQ(map.sensor_of(3, "pressure"), kNoProcess);
}

TEST(VarRefTest, ToStringIsPaperSubscript) {
  const VarRef v{5, "entered"};
  EXPECT_EQ(v.to_string(), "entered[5]");
}

TEST(SensingMapTest, DoubleAssignmentRejected) {
  SensingMap map;
  map.assign(1, "x", 1);
  EXPECT_THROW(map.assign(1, "x", 2), InvariantError);
  EXPECT_THROW(map.assign(2, "y", kNoProcess), InvariantError);
}

TEST(VarRefTest, OrderingIsByPidThenName) {
  const VarRef a{1, "a"}, b{1, "b"}, c{2, "a"};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (VarRef{1, "a"}));
}

TEST(EventTypeTest, Names) {
  EXPECT_STREQ(to_string(EventType::kCompute), "compute");
  EXPECT_STREQ(to_string(EventType::kSense), "sense");
  EXPECT_STREQ(to_string(EventType::kActuate), "actuate");
  EXPECT_STREQ(to_string(EventType::kSend), "send");
  EXPECT_STREQ(to_string(EventType::kReceive), "receive");
}

}  // namespace
}  // namespace psn::core
