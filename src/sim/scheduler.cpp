#include "sim/scheduler.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/error.hpp"
#include "common/hot.hpp"

namespace psn::sim {

namespace {
// std::greater puts the smallest (at, seq) at the heap front — a min-heap.
constexpr std::greater<> kHeapOrder{};
// Compaction threshold: rebuild once tombstones exceed both this floor and
// the live-event count. The floor keeps tiny calendars from rebuilding on
// every cancel; the ratio bounds calendar memory at ~2x the live set.
constexpr std::size_t kCompactFloor = 64;
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
  generations_.push_back(1);
  fn_at(slot) = std::move(fn);
  return slot;
}

PSN_HOT void Scheduler::release_slot(std::uint32_t slot) {
  fn_at(slot).reset();
  generations_[slot]++;
  free_slots_.push_back(slot);
}

PSN_HOT EventHandle Scheduler::schedule_at(SimTime at, Callback fn) {
  return schedule_at(at, 0, std::move(fn));
}

PSN_HOT EventHandle Scheduler::schedule_at(SimTime at, std::uint64_t tie,
                                           Callback fn) {
  PSN_CHECK(at >= now_, "cannot schedule into the past");
  PSN_CHECK(static_cast<bool>(fn), "null callback");
  const std::uint32_t slot = acquire_slot(std::move(fn));
  const std::uint32_t generation = generations_[slot];
  const QueueKey key{at, tie, next_seq_++, slot, generation};
  if (run_head_ == run_.size()) {
    // Run drained: recycle the vector and start a fresh run.
    run_.clear();
    run_head_ = 0;
    run_.push_back(key);
  } else if (!(run_.back() > key)) {
    // Nondecreasing (at, tie) and strictly increasing seq: appending keeps
    // the run sorted. This is the overwhelmingly common case.
    run_.push_back(key);
  } else {
    heap_.push_back(key);
    std::push_heap(heap_.begin(), heap_.end(), kHeapOrder);
  }
  live_++;
  return EventHandle(slot, generation);
}

PSN_HOT EventHandle Scheduler::schedule_after(Duration delay, Callback fn) {
  PSN_CHECK(delay >= Duration::zero(), "negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

PSN_HOT void Scheduler::cancel(EventHandle h) {
  if (!h.valid()) return;
  if (h.slot_ >= slot_count_ || generations_[h.slot_] != h.generation_) {
    return;  // already fired or cancelled; the slot may even be reoccupied
  }
  release_slot(h.slot_);
  live_--;
  tombstones_++;  // the key stays in the calendar until popped or compacted
  cancelled_++;
  if (tombstones_ > kCompactFloor && tombstones_ > live_) compact();
}

void Scheduler::compact() {
  run_.erase(run_.begin(),
             run_.begin() + static_cast<std::ptrdiff_t>(run_head_));
  run_head_ = 0;
  // erase_if preserves relative order, so the run stays sorted.
  std::erase_if(run_, [this](const QueueKey& k) { return !slot_matches(k); });
  std::erase_if(heap_, [this](const QueueKey& k) { return !slot_matches(k); });
  std::make_heap(heap_.begin(), heap_.end(), kHeapOrder);
  tombstones_ = 0;
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
    } else if (run_head_ > kCompactFloor && run_head_ * 2 >= run_.size()) {
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
  // The callback is moved out and the slot vacated *before* invocation, so
  // the callback is free to schedule (possibly into this very slot) or
  // cancel anything, including its own now-stale handle.
  Callback fn = std::move(fn_at(key.slot));
  release_slot(key.slot);
  live_--;
  now_ = key.at;
  executed_++;
  fn();
}

PSN_HOT SimTime Scheduler::next_time() {
  for (const QueueKey* k = top(); k != nullptr; k = top()) {
    if (slot_matches(*k)) return k->at;
    pop_top();  // drain cancelled-event tombstones
    tombstones_--;
  }
  return SimTime::max();
}

PSN_HOT bool Scheduler::step() {
  for (const QueueKey* k = top(); k != nullptr; k = top()) {
    if (!slot_matches(*k)) {
      pop_top();  // drain tombstone
      tombstones_--;
      continue;
    }
    execute_top(*k);
    return true;
  }
  return false;
}

PSN_HOT std::size_t Scheduler::run_until(SimTime until) {
  std::size_t n = 0;
  for (const QueueKey* k = top(); k != nullptr && !(k->at > until); k = top()) {
    if (!slot_matches(*k)) {
      pop_top();
      tombstones_--;
      continue;
    }
    execute_top(*k);
    n++;
  }
  // Time advances to `until` even if the calendar went quiet earlier, so a
  // subsequent schedule_after() measures from the end of the window.
  if (now_ < until) now_ = until;
  return n;
}

PSN_HOT std::size_t Scheduler::run_until_before(SimTime fence) {
  std::size_t n = 0;
  for (const QueueKey* k = top(); k != nullptr && k->at < fence; k = top()) {
    if (!slot_matches(*k)) {
      pop_top();
      tombstones_--;
      continue;
    }
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
