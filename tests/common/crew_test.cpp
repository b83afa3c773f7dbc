#include "common/crew.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace psn {
namespace {

TEST(CrewTest, ResultsComeBackInInputOrder) {
  Crew crew(8);
  EXPECT_EQ(crew.size(), 8u);
  std::vector<int> out(200, -1);
  crew.for_each(out.size(), [&](std::size_t i) {
    if (i % 7 == 0) {  // stagger completion so order would scramble
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    out[i] = static_cast<int>(i) * 3;
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) * 3);
  }
}

TEST(CrewTest, ZeroMeansHardwareThreads) {
  Crew crew(0);
  EXPECT_EQ(crew.size(), Crew::hardware_threads());
  EXPECT_GE(crew.size(), 1u);
}

TEST(CrewTest, ReturnsOnlyOnceEveryIndexRan) {
  // One member, so items run in turn on the caller; two, so they overlap.
  for (const std::size_t members : {std::size_t{1}, std::size_t{2}}) {
    Crew crew(members);
    std::atomic<int> ran{0};
    crew.for_each(32, [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ran.fetch_add(1);
    });
    EXPECT_EQ(ran.load(), 32) << members << " members";
  }
}

TEST(CrewTest, FailureArrivesAfterEveryItemAsTheLowestFailingIndex) {
  for (const std::size_t members : {std::size_t{1}, std::size_t{4}}) {
    Crew crew(members);
    std::vector<std::atomic<int>> ran(64);
    try {
      crew.for_each(ran.size(), [&](std::size_t i) {
        ran[i].fetch_add(1);
        if (i == 5 || i == 17 || i == 40) {
          throw std::runtime_error(std::to_string(i));
        }
      });
      ADD_FAILURE() << "for_each returned despite failing items";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "5") << members << " members";
    }
    for (const std::atomic<int>& r : ran) EXPECT_EQ(r.load(), 1);
  }
}

TEST(CrewTest, CrewIsReusableAfterAThrow) {
  Crew crew(3);
  EXPECT_THROW(crew.for_each(9,
                             [](std::size_t i) {
                               if (i == 4) throw std::runtime_error("boom");
                             }),
               std::runtime_error);
  std::vector<std::size_t> out(9, 0);
  crew.for_each(out.size(), [&](std::size_t i) { out[i] = i + 1; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i + 1);
}

TEST(CrewTest, EmptyLoopCallsNothing) {
  Crew crew(4);
  int calls = 0;
  crew.for_each(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(CrewTest, MoreMembersThanItemsRunsEachItemOnce) {
  Crew crew(8);
  std::vector<std::atomic<int>> ran(3);
  crew.for_each(ran.size(), [&](std::size_t i) { ran[i].fetch_add(1); });
  for (const std::atomic<int>& r : ran) EXPECT_EQ(r.load(), 1);
}

TEST(CrewTest, BackToBackLoopsOfDifferentLengthsRunEachIndexOnce) {
  // Loops as short as a window hand-off, one after another: a helper that
  // claims late must never run an index of the wrong loop.
  Crew crew(4);
  std::vector<std::atomic<int>> ran(7);
  for (std::size_t loop = 0; loop < 2000; ++loop) {
    const std::size_t n = 1 + loop % ran.size();
    for (std::atomic<int>& r : ran) r.store(0);
    crew.for_each(n, [&](std::size_t i) { ran[i].fetch_add(1); });
    for (std::size_t i = 0; i < ran.size(); ++i) {
      ASSERT_EQ(ran[i].load(), i < n ? 1 : 0) << "loop " << loop;
    }
  }
}

TEST(CrewTest, NestedCrewInsideAMemberOfAnother) {
  // A sweep crew whose members each drive a crew of their own, as a sweep
  // of sharded runs does.
  Crew outer(3);
  std::vector<long> sums(6, 0);
  outer.for_each(sums.size(), [&](std::size_t run) {
    Crew inner(2);
    std::vector<long> parts(4, 0);
    for (int window = 0; window < 50; ++window) {
      inner.for_each(parts.size(), [&](std::size_t shard) {
        parts[shard] += static_cast<long>(run * 10 + shard);
      });
    }
    for (const long p : parts) sums[run] += p;
  });
  for (std::size_t run = 0; run < sums.size(); ++run) {
    EXPECT_EQ(sums[run], 50L * static_cast<long>(4 * run * 10 + 6)) << run;
  }
}

}  // namespace
}  // namespace psn
