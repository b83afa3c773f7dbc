#include "common/thread_pool.hpp"

#include <utility>

#include "common/error.hpp"

namespace psn {

unsigned ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = hardware_threads();
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    PSN_CHECK(!stopping_, "submit() on a ThreadPool being destroyed");
    queue_.push_back(std::move(fn));
  }
  work_cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // a packaged_task: exceptions land in the caller's future
  }
}

}  // namespace psn
