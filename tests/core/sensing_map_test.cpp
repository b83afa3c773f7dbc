#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/log.hpp"
#include "core/sensing.hpp"

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
  EXPECT_TRUE(map.is_assigned(3, "temp"));
  EXPECT_FALSE(map.is_assigned(3, "pressure"));
}

TEST(SensingMapTest, VarOfBuildsPaperSubscript) {
  SensingMap map;
  map.assign(0, "entered", 5);
  const VarRef v = map.var_of(0, "entered");
  EXPECT_EQ(v.pid, 5u);
  EXPECT_EQ(v.name, "entered");
  EXPECT_EQ(v.to_string(), "entered[5]");
  EXPECT_THROW(map.var_of(0, "exited"), InvariantError);
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

TEST(LogLevelTest, ThresholdFilters) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below-threshold statements are skipped (their stream expressions never
  // run — verified by the side effect).
  int evaluations = 0;
  auto touch = [&]() {
    evaluations++;
    return "x";
  };
  PSN_WARN << touch();
  EXPECT_EQ(evaluations, 0);
  set_log_level(LogLevel::kDebug);
  PSN_WARN << touch();
  EXPECT_EQ(evaluations, 1);
  set_log_level(before);
}

}  // namespace
}  // namespace psn::core
