#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

namespace psn {

/// A fixed crew of threads that runs one parallel loop at a time:
/// for_each(n, fn) calls fn(i) once for every i in [0, n) and returns once
/// every call has finished. Both kinds of parallelism in the project use it
/// — independent runs of a sweep (analysis::run_specs) and the shards of one
/// run inside a Δ-window (sim::ShardedSimulation, DESIGN.md §6 and §14).
///
/// The thread that calls for_each is member 0; the constructor starts the
/// other members and the destructor joins them, so a crew of N runs items
/// on N threads, not N + 1, and a crew of one runs them inline. Per loop the
/// caller publishes the body and bumps a generation counter, every member
/// claims indices through one atomic, and each finished item counts down
/// one atomic that the caller waits on. Every wait is a bounded spin, then
/// `std::atomic::wait`. A helper that wakes after every index is claimed
/// has nothing to do, and nobody waits for it.
///
/// Which member ran which index never leaks out: fn writes its result into
/// slot i, so results come back in input order. A throwing item does not
/// stop the others; once all have run, for_each rethrows the exception of
/// the lowest failing index, and the crew stays usable.
///
/// fn is passed by reference as a function pointer plus context, so a loop
/// allocates nothing. fn must not call for_each on the same crew; a member
/// may drive a crew of its own (a sweep run that shards its simulation).
class Crew {
 public:
  /// `threads` members, the calling thread included; 0 = one per hardware
  /// thread.
  explicit Crew(std::size_t threads);
  ~Crew();

  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  std::size_t size() const { return failures_.size(); }

  template <class Fn>
  void for_each(std::size_t n, Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    run(n, [](void* ctx, std::size_t i) { (*static_cast<F*>(ctx))(i); },
        const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
  }

  static std::size_t hardware_threads();

 private:
  using Body = void (*)(void* ctx, std::size_t index);
  /// A member's lowest failing index of the current loop.
  struct Failure {
    std::size_t index = SIZE_MAX;
    std::exception_ptr error;
  };

  void run(std::size_t n, Body body, void* ctx);
  /// One member's part of the current loop: claims indices until none is
  /// left.
  void work(std::size_t member);
  void helper_loop(std::size_t member);
  void stop();

  // Loop state. The caller writes body_ and ctx_ before it opens a loop
  // and again only after pending_ reaches zero; a member reads them only
  // after claiming an index of the open loop.
  Body body_ = nullptr;
  void* ctx_ = nullptr;
  std::vector<Failure> failures_;  ///< per member
  /// (n << 32) | next unclaimed index: a claim carries its own loop's
  /// bound, so a member that claims late can never mistake an index of one
  /// loop for an index of the next.
  std::atomic<std::uint64_t> claim_{0};
  std::atomic<std::uint32_t> generation_{0};  ///< bumped once per loop
  std::atomic<std::uint32_t> pending_{0};     ///< items not yet run
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> helpers_;  ///< members 1.., declared last
};

}  // namespace psn
