#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace psn {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasksAndReturnsValues) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, ZeroMeansHardwareThreads) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), ThreadPool::hardware_threads());
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, TaskExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto bad = pool.submit(
      []() -> int { throw std::runtime_error("task exploded"); });
  auto good = pool.submit([] { return 7; });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // One failed task must not poison the pool.
  EXPECT_EQ(good.get(), 7);
}

TEST(ThreadPoolTest, DestructionDrainsQueuedWork) {
  // One worker, so tasks genuinely queue up; two, so they also overlap.
  for (const unsigned workers : {1u, 2u}) {
    std::atomic<int> ran{0};
    {
      ThreadPool pool(workers);
      for (int i = 0; i < 32; ++i) {
        pool.submit([&ran] {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          ran.fetch_add(1);
        });
      }
    }  // destructor joins — every queued task must have executed, not dropped
    EXPECT_EQ(ran.load(), 32) << workers << " workers";
  }
}

TEST(ThreadPoolTest, ParallelMapPreservesInputOrder) {
  ThreadPool pool(8);
  std::vector<int> items(200);
  std::iota(items.begin(), items.end(), 0);
  const auto out = parallel_map(pool, items, [](const int& x) {
    if (x % 7 == 0) {  // stagger completion so order would scramble
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    return x * 3;
  });
  ASSERT_EQ(out.size(), items.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) * 3);
  }
}

TEST(ThreadPoolTest, ManyProducersOneQueue) {
  std::atomic<long> sum{0};
  {
    ThreadPool pool(4);
    std::vector<std::thread> producers;
    for (int t = 0; t < 4; ++t) {
      producers.emplace_back([&pool, &sum] {
        for (int i = 1; i <= 250; ++i) {
          pool.submit([&sum, i] { sum.fetch_add(i); });
        }
      });
    }
    for (auto& p : producers) p.join();
  }  // the destructor drains the queue
  EXPECT_EQ(sum.load(), 4L * 250 * 251 / 2);
}

}  // namespace
}  // namespace psn
