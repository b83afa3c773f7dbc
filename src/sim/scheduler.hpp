#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/inline_fn.hpp"
#include "common/sim_time.hpp"

namespace psn::sim {

/// Deterministic discrete-event calendar.
///
/// Events at equal timestamps fire in (tie, schedule-order) order: the
/// caller-supplied canonical tie-break `tie` (0 for plain timers) wins
/// first, then a monotonically increasing sequence number breaks the
/// remaining ties FIFO — so a run is a pure function of the seed and the
/// configuration, *and* same-instant ordering can be made independent of
/// which scheduler an event was placed in (the sharded driver keys message
/// deliveries by their transport seq; DESIGN.md §14). Callbacks may schedule
/// further events, including at the current instant (they will run after
/// all callbacks already queued for that instant with an equal tie). An
/// event, once scheduled, always fires: the execution model only ever adds
/// events, so there is no cancellation.
///
/// Hot-path layout (DESIGN.md §11): callbacks live in a slab of slots
/// recycled through a free list, and the calendar itself is split into two
/// key containers: a *monotone run* — a sorted vector appended to whenever a
/// new event lands at or after the run's tail, consumed from the front — and
/// an overflow binary min-heap for every other insert. The run makes a timer
/// chain or a fixed-delay fan-out O(1) per schedule/execute round trip;
/// deliveries with random delays mostly land before the tail and take the
/// heap's O(log n) (over 99% of a benchmark run's inserts, DESIGN.md §11).
/// Dequeue takes the (at, tie, seq)-minimum of the two fronts, so execution
/// order is identical to a single heap's. Zero heap allocations whenever the
/// closure fits the Callback's inline buffer.
class Scheduler {
 public:
  /// Small-buffer-optimized callback: closures up to kCallbackInlineBytes
  /// (network delivery closures included — transport static_asserts it)
  /// schedule without touching the heap.
  static constexpr std::size_t kCallbackInlineBytes = 88;
  using Callback = InlineFn<void(), kCallbackInlineBytes>;

  /// Current simulation time; advances only inside run()/step().
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (>= now()) with tie 0.
  void schedule_at(SimTime at, Callback fn);
  /// Schedules `fn` at `at` with an explicit canonical tie-break: events at
  /// one instant fire in ascending (tie, schedule order). Timers use tie 0
  /// (and therefore run before same-instant message deliveries, whose ties
  /// are strictly positive) — a deliberate canonical policy, not an
  /// accident of insertion order.
  void schedule_at(SimTime at, std::uint64_t tie, Callback fn);
  /// Schedules `fn` after `delay` (>= 0) from now(), tie 0.
  void schedule_after(Duration delay, Callback fn);

  /// Time of the earliest pending event, or SimTime::max() if none.
  SimTime next_time() const;

  /// Runs the single earliest pending event; returns false if none pending.
  bool step();
  /// Runs events with time strictly < `fence`; returns events executed.
  /// now() is left at the last executed event (never advanced to the
  /// fence), so the sharded window driver can re-enter with a later fence.
  std::size_t run_until_before(SimTime fence);
  /// Runs until the calendar drains or `max_events` executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  std::size_t pending() const {
    return run_.size() - run_head_ + heap_.size();
  }
  /// Lifetime event tallies — the sim.events_* metrics are built from these
  /// (core::ShardedPervasiveSystem::metrics_snapshot).
  std::uint64_t total_executed() const { return executed_; }
  std::uint64_t total_scheduled() const { return next_seq_; }

 private:
  struct QueueKey {
    SimTime at;
    std::uint64_t tie;  ///< canonical same-instant rank (0 = plain timer)
    std::uint64_t seq;
    std::uint32_t slot;
    bool operator>(const QueueKey& o) const {
      if (at != o.at) return at > o.at;
      if (tie != o.tie) return tie > o.tie;
      return seq > o.seq;
    }
  };

  /// Slab geometry: callbacks live in fixed-size blocks so growth never
  /// relocates existing cells (a flat vector re-moves every live closure on
  /// each doubling — measurably dominant at large calendars).
  static constexpr std::uint32_t kSlotBlockShift = 10;
  static constexpr std::uint32_t kSlotsPerBlock = 1u << kSlotBlockShift;
  static constexpr std::uint32_t kSlotBlockMask = kSlotsPerBlock - 1;

  Callback& fn_at(std::uint32_t slot) {
    return slab_[slot >> kSlotBlockShift][slot & kSlotBlockMask];
  }
  std::uint32_t acquire_slot(Callback&& fn);
  /// The (at, tie, seq)-minimum pending key across run and heap, or nullptr
  /// when the calendar is empty.
  const QueueKey* top() const;
  /// Removes the key top() currently points at.
  void pop_top();
  void execute_top(QueueKey key);

  SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  /// Monotone run: sorted ascending by (at, tie, seq); keys are appended
  /// when they order at or after the tail and consumed by advancing
  /// run_head_. The vector is recycled (clear + head reset) whenever it
  /// drains.
  std::vector<QueueKey> run_;
  std::size_t run_head_ = 0;
  /// Overflow min-heap over (at, tie, seq) via std::push_heap/std::pop_heap
  /// with std::greater, for inserts that land before the run's tail.
  std::vector<QueueKey> heap_;
  std::vector<std::unique_ptr<Callback[]>> slab_;
  std::uint32_t slot_count_ = 0;  ///< slots ever created (all blocks)
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace psn::sim
