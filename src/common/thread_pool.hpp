#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace psn {

/// Fixed-size worker pool over a single locked FIFO queue (no work stealing
/// — experiment runs are seconds long, so queue contention is irrelevant and
/// a single mutex keeps the pool trivially TSan-clean).
///
/// Semantics worth relying on:
///  - submit() returns a std::future; an exception thrown by the task is
///    captured and rethrown from future::get().
///  - The destructor stops accepting new work, *drains* everything already
///    queued, then joins — queued tasks are never silently dropped.
///  - Tasks must not submit to the pool they run on after shutdown began.
class ThreadPool {
 public:
  /// `threads == 0` means one worker per hardware thread.
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    enqueue([task]() { (*task)(); });
    return result;
  }

  static unsigned hardware_threads();

 private:
  void enqueue(std::function<void()> fn);
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

/// Applies `fn` to every item, fanning the calls across `pool`, and returns
/// the results **in input order** — completion order never leaks out, which
/// is what makes parallel sweeps bit-reproducible. The first task exception
/// propagates to the caller (after all tasks finish).
template <typename Item, typename Fn>
auto parallel_map(ThreadPool& pool, const std::vector<Item>& items, Fn fn)
    -> std::vector<std::invoke_result_t<Fn, const Item&>> {
  using R = std::invoke_result_t<Fn, const Item&>;
  std::vector<std::future<R>> futures;
  futures.reserve(items.size());
  for (const Item& item : items) {
    futures.push_back(pool.submit([&fn, &item]() { return fn(item); }));
  }
  std::vector<R> results;
  results.reserve(items.size());
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

}  // namespace psn
