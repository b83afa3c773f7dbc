#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/inline_fn.hpp"
#include "common/sim_time.hpp"

namespace psn::sim {

/// Opaque handle to a scheduled event, usable for cancellation. Encodes
/// {slot, generation}: the slot names a cell in the scheduler's callback
/// slab, the generation disambiguates reuse — a handle whose event already
/// fired (or was cancelled) goes stale the moment its slot is recycled, so a
/// late cancel can never hit the slot's next tenant.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return generation_ != 0; }

 private:
  friend class Scheduler;
  EventHandle(std::uint32_t slot, std::uint32_t generation)
      : slot_(slot), generation_(generation) {}
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;  ///< 0 = never scheduled (invalid)
};

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
/// all callbacks already queued for that instant with an equal tie).
///
/// Hot-path layout (DESIGN.md §11): callbacks live in a generation-tagged
/// slab of slots recycled through a free list, and the calendar itself is
/// split into two key containers exploiting how discrete-event time behaves:
/// a *monotone run* — a sorted vector appended to whenever a new event lands
/// at or after the run's tail, consumed from the front — and an overflow
/// binary min-heap for out-of-order inserts. Simulation workloads schedule
/// overwhelmingly in nondecreasing time order (timers and deliveries are
/// offsets from a forward-moving now), so the common schedule/execute round
/// trip is O(1), falling back to the heap's O(log n) only for the inserts
/// that genuinely land before the tail. Dequeue takes the (at, seq)-minimum
/// of the two fronts, so execution order is identical to a single heap's.
/// Zero heap allocations whenever the closure fits the Callback's inline
/// buffer; cancellation leaves a tombstone key behind which is dropped
/// lazily on pop — and compacted eagerly when tombstones outnumber live
/// events, so cancel-heavy duty-cycle workloads cannot grow the calendar
/// unboundedly.
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
  EventHandle schedule_at(SimTime at, Callback fn);
  /// Schedules `fn` at `at` with an explicit canonical tie-break: events at
  /// one instant fire in ascending (tie, schedule order). Timers use tie 0
  /// (and therefore run before same-instant message deliveries, whose ties
  /// are strictly positive) — a deliberate canonical policy, not an
  /// accident of insertion order.
  EventHandle schedule_at(SimTime at, std::uint64_t tie, Callback fn);
  /// Schedules `fn` after `delay` (>= 0) from now(), tie 0.
  EventHandle schedule_after(Duration delay, Callback fn);
  /// Cancels a pending event. Cancelling an already-fired, stale, or invalid
  /// handle is a harmless no-op (the common case when a timer raced its
  /// cancel); generation tags make it safe even after the slot is reused.
  void cancel(EventHandle h);

  /// Time of the earliest pending event, or SimTime::max() if none.
  /// Non-const: drains cancelled-event tombstones from the queue front.
  SimTime next_time();

  /// Runs the single earliest pending event; returns false if none pending.
  bool step();
  /// Runs events with time <= `until` (inclusive); returns events executed.
  std::size_t run_until(SimTime until);
  /// Runs events with time strictly < `fence`; returns events executed.
  /// now() is left at the last executed event (never advanced to the
  /// fence), so the sharded window driver can re-enter with a later fence.
  std::size_t run_until_before(SimTime fence);
  /// Runs until the calendar drains or `max_events` executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  std::size_t pending() const { return live_; }
  /// Lifetime event tallies — the sim.events_* metrics are built from these
  /// (core::ShardedPervasiveSystem::metrics_snapshot).
  std::uint64_t total_executed() const { return executed_; }
  std::uint64_t total_scheduled() const { return next_seq_; }
  std::uint64_t total_cancelled() const { return cancelled_; }

 private:
  struct QueueKey {
    SimTime at;
    std::uint64_t tie;  ///< canonical same-instant rank (0 = plain timer)
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
    bool operator>(const QueueKey& o) const {
      if (at != o.at) return at > o.at;
      if (tie != o.tie) return tie > o.tie;
      return seq > o.seq;
    }
  };

  /// Slab geometry: callbacks live in fixed-size blocks so growth never
  /// relocates existing cells (a flat vector re-moves every live closure on
  /// each doubling — measurably dominant at large calendars). Generations
  /// live in a parallel flat vector: a tombstone check touches 4 bytes, not
  /// a whole callback cell. A slot's generation advances every time the cell
  /// is vacated (fire or cancel), invalidating every outstanding handle and
  /// queue key that still names the old tenant.
  static constexpr std::uint32_t kSlotBlockShift = 10;
  static constexpr std::uint32_t kSlotsPerBlock = 1u << kSlotBlockShift;
  static constexpr std::uint32_t kSlotBlockMask = kSlotsPerBlock - 1;

  Callback& fn_at(std::uint32_t slot) {
    return slab_[slot >> kSlotBlockShift][slot & kSlotBlockMask];
  }
  bool slot_matches(const QueueKey& key) const {
    return generations_[key.slot] == key.generation;
  }
  std::uint32_t acquire_slot(Callback&& fn);
  /// Vacates a slot (destroys the callback, bumps the generation, returns
  /// the cell to the free list).
  void release_slot(std::uint32_t slot);
  /// The (at, seq)-minimum pending key across run and heap, or nullptr when
  /// the calendar is empty. Tombstone keys are still visible here — callers
  /// drain them via pop_top().
  const QueueKey* top() const;
  /// Removes the key top() currently points at.
  void pop_top();
  void execute_top(QueueKey key);
  /// Rebuilds run and heap without tombstone keys. Called when tombstones
  /// outnumber live events (amortized O(1) per cancel).
  void compact();

  SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t live_ = 0;        ///< scheduled and not yet fired or cancelled
  std::size_t tombstones_ = 0;  ///< dead keys still sitting in the calendar
  /// Monotone run: sorted ascending by (at, seq); keys are appended when
  /// their time is >= the tail's and consumed by advancing run_head_. The
  /// vector is recycled (clear + head reset) whenever it drains.
  std::vector<QueueKey> run_;
  std::size_t run_head_ = 0;
  /// Overflow min-heap over (at, seq) via std::push_heap/std::pop_heap with
  /// std::greater, for inserts that land before the run's tail; a plain
  /// vector so compact() can filter it in place.
  std::vector<QueueKey> heap_;
  std::vector<std::unique_ptr<Callback[]>> slab_;
  std::uint32_t slot_count_ = 0;  ///< slots ever created (all blocks)
  std::vector<std::uint32_t> generations_;  ///< parallel to slots; starts at 1
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace psn::sim
