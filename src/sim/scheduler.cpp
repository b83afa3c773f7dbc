#include "sim/scheduler.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/error.hpp"
#include "common/hot.hpp"

namespace psn::sim {

namespace {
// std::greater puts the smallest (at, tie, seq) at the heap front — a
// min-heap.
constexpr std::greater<> kHeapOrder{};
// pop_top slides the run's consumed prefix out once it passes both this
// floor and half the vector; the floor keeps small runs from sliding on
// every pop.
constexpr std::size_t kRunSlideFloor = 64;
}  // namespace

PSN_HOT std::uint32_t Scheduler::acquire_slot(Callback&& fn) {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    fn_at(slot) = std::move(fn);
    return slot;
  }
  PSN_CHECK(slot_count_ < UINT32_MAX, "scheduler slab full");
  const std::uint32_t slot = slot_count_++;
  if ((slot & kSlotBlockMask) == 0) {
    // Slab growth is warmup, never steady state: blocks are recycled through
    // the free list forever after. psn-lint: allow(psn-hot-path-alloc)
    slab_.push_back(std::make_unique<Callback[]>(kSlotsPerBlock));
  }
  fn_at(slot) = std::move(fn);
  return slot;
}

PSN_HOT void Scheduler::schedule_at(SimTime at, Callback fn) {
  schedule_at(at, 0, std::move(fn));
}

PSN_HOT void Scheduler::schedule_at(SimTime at, std::uint64_t tie,
                                    Callback fn) {
  PSN_CHECK(at >= now_, "cannot schedule into the past");
  PSN_CHECK(static_cast<bool>(fn), "null callback");
  const QueueKey key{at, tie, next_seq_++, acquire_slot(std::move(fn))};
  if (run_head_ == run_.size()) {
    // Run drained: recycle the vector and start a fresh run.
    run_.clear();
    run_head_ = 0;
    run_.push_back(key);
  } else if (!(run_.back() > key)) {
    // Nondecreasing (at, tie) and strictly increasing seq: appending keeps
    // the run sorted (timer chains, fixed-delay fan-outs).
    run_.push_back(key);
  } else {
    heap_.push_back(key);
    std::push_heap(heap_.begin(), heap_.end(), kHeapOrder);
  }
}

PSN_HOT void Scheduler::schedule_after(Duration delay, Callback fn) {
  PSN_CHECK(delay >= Duration::zero(), "negative delay");
  schedule_at(now_ + delay, std::move(fn));
}

PSN_HOT const Scheduler::QueueKey* Scheduler::top() const {
  const QueueKey* r = run_head_ < run_.size() ? &run_[run_head_] : nullptr;
  const QueueKey* h = heap_.empty() ? nullptr : heap_.data();
  if (r == nullptr) return h;
  if (h == nullptr) return r;
  return *h > *r ? r : h;  // seqs are unique, so the order is strict
}

PSN_HOT void Scheduler::pop_top() {
  const QueueKey* r = run_head_ < run_.size() ? &run_[run_head_] : nullptr;
  if (r != nullptr && (heap_.empty() || heap_.front() > *r)) {
    run_head_++;
    if (run_head_ == run_.size()) {
      run_.clear();
      run_head_ = 0;
    } else if (run_head_ > kRunSlideFloor && run_head_ * 2 >= run_.size()) {
      // A calendar that never fully drains (replay cursors re-arm from
      // inside their own callbacks, so the sharded runner's never does)
      // would otherwise grow the run's dead prefix with every event ever
      // executed. Sliding the tail left once the prefix passes half the
      // vector is amortized O(1) per pop, keeps the buffer at ~2x the live
      // run, and never reallocates — the alloc-guard suite pins that.
      run_.erase(run_.begin(),
                 run_.begin() + static_cast<std::ptrdiff_t>(run_head_));
      run_head_ = 0;
    }
    return;
  }
  std::pop_heap(heap_.begin(), heap_.end(), kHeapOrder);
  heap_.pop_back();
}

PSN_HOT void Scheduler::execute_top(QueueKey key) {
  pop_top();
  // The callback is moved out (leaving its cell empty) and the slot freed
  // *before* invocation, so the callback may schedule into this very slot.
  Callback fn = std::move(fn_at(key.slot));
  free_slots_.push_back(key.slot);
  now_ = key.at;
  executed_++;
  fn();
}

PSN_HOT SimTime Scheduler::next_time() const {
  const QueueKey* k = top();
  return k != nullptr ? k->at : SimTime::max();
}

PSN_HOT bool Scheduler::step() {
  const QueueKey* k = top();
  if (k == nullptr) return false;
  execute_top(*k);
  return true;
}

PSN_HOT std::size_t Scheduler::run_until_before(SimTime fence) {
  std::size_t n = 0;
  for (const QueueKey* k = top(); k != nullptr && k->at < fence; k = top()) {
    execute_top(*k);
    n++;
  }
  return n;
}

std::size_t Scheduler::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) n++;
  return n;
}

}  // namespace psn::sim
