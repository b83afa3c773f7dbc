#include "world/timeline.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace psn::world {
namespace {

using namespace psn::time_literals;

WorldEvent make_event(std::int64_t ms, ObjectId obj, const std::string& attr,
                      AttributeValue value) {
  WorldEvent ev;
  ev.when = SimTime::zero() + Duration::millis(ms);
  ev.object = obj;
  ev.attribute = attr;
  ev.value = value;
  return ev;
}

TEST(WorldTimelineTest, AppendAssignsIndices) {
  WorldTimeline t;
  EXPECT_EQ(t.append(make_event(1, 0, "x", 1)), 0u);
  EXPECT_EQ(t.append(make_event(2, 0, "x", 2)), 1u);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.at(1).index, 1u);
}

TEST(WorldTimelineTest, RejectsOutOfOrderAppend) {
  WorldTimeline t;
  t.append(make_event(10, 0, "x", 1));
  EXPECT_THROW(t.append(make_event(5, 0, "x", 2)), InvariantError);
}

TEST(WorldTimelineTest, AllowsEqualTimes) {
  WorldTimeline t;
  t.append(make_event(10, 0, "x", 1));
  EXPECT_NO_THROW(t.append(make_event(10, 1, "y", 2)));
}

TEST(WorldTimelineTest, OutOfRangeIndexThrows) {
  WorldTimeline t;
  EXPECT_THROW(t.at(0), InvariantError);
  t.append(make_event(1, 0, "x", 1));
  EXPECT_THROW(t.at(5), InvariantError);
}

}  // namespace
}  // namespace psn::world
