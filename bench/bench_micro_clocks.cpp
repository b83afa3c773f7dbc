// Micro-benchmarks of clock-protocol primitives (google-benchmark): the
// per-event cost of each clock family, and how vector operations scale
// with n — the constant-factor side of the paper's O(1) vs O(n) contrast.

#include <benchmark/benchmark.h>

#include "clocks/clock_bundle.hpp"
#include "clocks/lamport.hpp"
#include "clocks/strobe_scalar.hpp"
#include "clocks/strobe_vector.hpp"
#include "clocks/vector_clock.hpp"
#include "common/alloc_guard.hpp"
#include "common/rng.hpp"

namespace {

using namespace psn;
using namespace psn::clocks;

void BM_LamportTick(benchmark::State& state) {
  LamportClock clock(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clock.tick());
  }
}
BENCHMARK(BM_LamportTick);

void BM_LamportReceive(benchmark::State& state) {
  LamportClock clock(0);
  ScalarStamp incoming{1, 1};
  for (auto _ : state) {
    incoming.value += 2;
    benchmark::DoNotOptimize(clock.on_receive(incoming));
  }
}
BENCHMARK(BM_LamportReceive);

void BM_VectorClockTick(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  MatternVectorClock clock(0, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clock.tick());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_VectorClockTick)->RangeMultiplier(4)->Range(4, 256)->Complexity();

void BM_VectorClockReceive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  MatternVectorClock clock(0, n);
  VectorStamp incoming(n);
  for (auto _ : state) {
    incoming[1] += 1;
    benchmark::DoNotOptimize(clock.on_receive(incoming));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_VectorClockReceive)
    ->RangeMultiplier(4)
    ->Range(4, 256)
    ->Complexity();

void BM_StrobeScalarRoundTrip(benchmark::State& state) {
  StrobeScalarClock a(0), b(1);
  for (auto _ : state) {
    const ScalarStamp s = a.on_relevant_event();
    b.on_strobe(s);
    benchmark::DoNotOptimize(b.current());
  }
}
BENCHMARK(BM_StrobeScalarRoundTrip);

void BM_StrobeVectorRoundTrip(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  StrobeVectorClock a(0, n), b(1, n);
  for (auto _ : state) {
    const VectorStamp s = a.on_relevant_event();
    b.on_strobe(s);
    benchmark::DoNotOptimize(b.current());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_StrobeVectorRoundTrip)
    ->RangeMultiplier(4)
    ->Range(4, 256)
    ->Complexity();

void BM_VectorStampCompare(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  VectorStamp a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<std::uint64_t>(rng.uniform_int(0, 100));
    b[i] = static_cast<std::uint64_t>(rng.uniform_int(0, 100));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(compare(a, b));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_VectorStampCompare)
    ->RangeMultiplier(4)
    ->Range(4, 256)
    ->Complexity();

void BM_VectorStampOrdered(benchmark::State& state) {
  // Ordered stamps differ only in the last component, so every order test
  // scans all n components -- the case the strobe-soundness scan pays on
  // causally related senses. Random stamps (the row above) differ early and
  // exit after a couple of components at every n.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  VectorStamp a(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<std::uint64_t>(rng.uniform_int(0, 100));
  }
  VectorStamp b = a;
  b[n - 1] += 1;
  const alloc_guard::Scope allocs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compare(a, b));
  }
  state.SetComplexityN(state.range(0));
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs.allocations()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_VectorStampOrdered)
    ->RangeMultiplier(4)
    ->Range(4, 256)
    ->Complexity();

void BM_ClockBundleSenseEvent(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ClockBundleConfig cfg;
  ClockBundle bundle(0, n, cfg, Rng(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bundle.on_sense_event());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ClockBundleSenseEvent)
    ->RangeMultiplier(4)
    ->Range(4, 256)
    ->Complexity();

void BM_EpsClockRead(benchmark::State& state) {
  EpsSynchronizedClock clock(Duration::micros(100), Rng(2));
  SimTime t = SimTime::zero();
  for (auto _ : state) {
    t += Duration::micros(10);
    benchmark::DoNotOptimize(clock.read(t));
  }
}
BENCHMARK(BM_EpsClockRead);

}  // namespace
