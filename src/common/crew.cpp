#include "common/crew.hpp"

#include "common/error.hpp"

namespace psn {

namespace {

// Spin iterations before a crew wait falls back to the futex. A window
// hand-off normally lands within a few microseconds; the bound keeps a
// member that waits out the serial exchange from burning a core that
// another member (or the exchange itself) needs when the crew is as large
// as the machine.
constexpr int kSpinLimit = 1024;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Returns once `a` no longer holds `old`: a bounded spin, then
/// std::atomic::wait (a futex wait for a 32-bit atomic in libstdc++).
void wait_while(const std::atomic<std::uint32_t>& a, std::uint32_t old) {
  for (int i = 0; i < kSpinLimit; ++i) {
    if (a.load(std::memory_order_acquire) != old) return;
    cpu_relax();
  }
  while (a.load(std::memory_order_acquire) == old) {
    a.wait(old, std::memory_order_acquire);
  }
}

}  // namespace

std::size_t Crew::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

Crew::Crew(std::size_t threads)
    : failures_(threads == 0 ? hardware_threads() : threads) {
  helpers_.reserve(size() - 1);
  try {
    for (std::size_t m = 1; m < size(); ++m) {
      helpers_.emplace_back([this, m] { helper_loop(m); });
    }
  } catch (...) {
    stop();
    throw;
  }
}

Crew::~Crew() { stop(); }

void Crew::stop() {
  if (helpers_.empty()) return;
  stopping_.store(true, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& t : helpers_) t.join();
  helpers_.clear();
}

void Crew::helper_loop(std::size_t member) {
  std::uint32_t seen = 0;
  for (;;) {
    wait_while(generation_, seen);
    // A helper that wakes late may find the loop drained, or already the
    // next one open; claims are only ever made from the open loop.
    seen = generation_.load(std::memory_order_acquire);
    if (stopping_.load(std::memory_order_acquire)) return;
    work(member);
  }
}

void Crew::work(std::size_t member) {
  for (;;) {
    // An index below its own bound is a claim in the open loop: the caller
    // reopens the claim word only once every item of the previous loop is
    // done, and the loop cannot close before this claim is counted down,
    // so the body read after the claim is the claimed loop's.
    const std::uint64_t c = claim_.fetch_add(1, std::memory_order_acquire);
    const std::size_t i = static_cast<std::uint32_t>(c);
    if (i >= (c >> 32)) return;
    try {
      body_(ctx_, i);
    } catch (...) {
      // A member claims increasing indices, so its first failure is its
      // lowest.
      if (failures_[member].error == nullptr) {
        failures_[member] = {i, std::current_exception()};
      }
    }
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_one();
    }
  }
}

void Crew::run(std::size_t n, Body body, void* ctx) {
  if (n == 0) return;
  // The claim word keeps n in its upper half and lets each member
  // overshoot the lower half by a few claims.
  PSN_CHECK(n < (std::uint64_t{1} << 31), "crew loop too long");
  body_ = body;
  ctx_ = ctx;
  pending_.store(static_cast<std::uint32_t>(n), std::memory_order_relaxed);
  claim_.store(static_cast<std::uint64_t>(n) << 32,
               std::memory_order_release);  // opens the loop
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  work(0);
  // The barrier: every item has run and counted down.
  for (std::uint32_t left = pending_.load(std::memory_order_acquire);
       left != 0; left = pending_.load(std::memory_order_acquire)) {
    wait_while(pending_, left);
  }
  Failure* lowest = nullptr;
  for (Failure& f : failures_) {
    if (f.error != nullptr && (lowest == nullptr || f.index < lowest->index)) {
      lowest = &f;
    }
  }
  if (lowest == nullptr) return;
  const std::exception_ptr error = lowest->error;
  for (Failure& f : failures_) f = Failure{};
  std::rethrow_exception(error);
}

}  // namespace psn
