// E5 — paper §4.2.4, the slim lattice postulate: "Although the control
// messages for the strobe clock create artificial causal dependencies, these
// are useful because they help to approximate instantaneous observation by
// eliminating many of the O(p^n) states ... The faster the strobe
// transmissions, the leaner is the lattice. When Δ = 0, the result is a
// linear order of np states."
//
// Small systems (4 sensors, ~1.5 events/s each over 4 s) at decreasing Δ;
// count consistent global states in the strobe-induced sublattice and
// compare with the unconstrained O(p^n) cut count.
//
// Expected shape: |lattice| falls monotonically with Δ, reaching exactly
// total_events + 1 (a chain) at Δ = 0. The binary exits 1 when either half
// of that shape fails: a row's mean cut count exceeds the previous (larger
// Δ) row's, or some Δ = 0 run is not a chain of total_events + 1 cuts.

#include <cstdio>
#include <vector>

#include "common/table.hpp"
#include "core/execution_view.hpp"
#include "core/lattice.hpp"
#include "core/sharded_system.hpp"
#include "world/generators.hpp"

int main() {
  using namespace psn;

  constexpr std::size_t kSensors = 4;
  constexpr std::size_t kReps = 6;

  std::printf(
      "E5: slim lattice postulate — consistent global states vs Delta\n"
      "    (%zu sensors, Poisson 1.5 events/s each, 4 s horizon, %zu seeds)\n\n",
      kSensors, kReps);

  Table table({"Delta (ms)", "mean events", "unconstrained (p^n)",
               "strobe sublattice", "reduction x", "linear runs"});

  struct Row {
    double events = 0, unconstrained = 0, cuts = 0;
    int linear = 0;
  };

  std::vector<double> mean_cuts;  // one per row, Δ decreasing
  bool chains_at_zero = true;
  for (const std::int64_t delta_ms : {-1, 400, 100, 25, 5, 0}) {
    Row acc;
    for (std::uint64_t seed = 1; seed <= kReps; ++seed) {
      core::ShardedSystemConfig config;
      core::SystemConfig& sys = config.base;
      sys.num_sensors = kSensors;
      sys.sim.seed = seed;
      sys.sim.horizon = SimTime::zero() + Duration::seconds(4);
      if (delta_ms == 0) {
        sys.delay_kind = core::DelayKind::kSynchronous;
      } else if (delta_ms > 0) {
        sys.delay_kind = core::DelayKind::kUniformBounded;
        sys.delta = Duration::millis(delta_ms);
      } else {
        // "No strobes" baseline: delays longer than the horizon mean no
        // strobe ever lands — the lattice is the full product.
        sys.delay_kind = core::DelayKind::kFixed;
        sys.delta = Duration::seconds(100);
      }
      core::ShardedPervasiveSystem system(config);

      std::vector<std::unique_ptr<world::AttributeDriver>> drivers;
      for (ProcessId pid = 1; pid <= kSensors; ++pid) {
        const auto obj =
            system.world().create_object("obj" + std::to_string(pid));
        system.world().object(obj).set_attribute("count", std::int64_t{0});
        system.assign(obj, "count", pid);
        drivers.push_back(std::make_unique<world::AttributeDriver>(
            system.world(), obj, "count",
            std::make_unique<world::PoissonArrivals>(1.5),
            std::make_unique<world::CounterValue>(),
            system.sim().rng_for("driver", pid)));
        drivers.back()->start();
      }
      system.run();

      const auto view = core::ExecutionView::from_strobe_stamps(system);
      const auto stats = core::lattice::count_consistent_cuts(view);
      acc.events += static_cast<double>(stats.total_events);
      acc.unconstrained += core::lattice::unconstrained_cuts(view);
      acc.cuts += static_cast<double>(stats.consistent_cuts);
      acc.linear += stats.linear ? 1 : 0;
      if (delta_ms == 0 &&
          stats.consistent_cuts != stats.total_events + 1) {
        chains_at_zero = false;
      }
    }
    const double r = static_cast<double>(kReps);
    mean_cuts.push_back(acc.cuts / r);
    table.row()
        .cell(delta_ms < 0 ? std::string("no strobes")
                           : std::to_string(delta_ms))
        .cell(acc.events / r, 4)
        .cell(acc.unconstrained / r, 5)
        .cell(acc.cuts / r, 5)
        .cell(acc.unconstrained / std::max(1.0, acc.cuts), 4)
        .cell(std::to_string(acc.linear) + "/" + std::to_string(kReps));
  }
  std::printf("%s\n", table.ascii().c_str());
  std::printf(
      "Claim check: sublattice shrinks monotonically as Delta falls; at\n"
      "Delta = 0 every run is a chain of exactly (total events + 1) states.\n");
  for (std::size_t i = 1; i < mean_cuts.size(); ++i) {
    if (mean_cuts[i] > mean_cuts[i - 1]) {
      std::fprintf(stderr,
                   "E5 claim failed: mean strobe sublattice grew from %.6g "
                   "to %.6g cuts as Delta fell (row %zu)\n",
                   mean_cuts[i - 1], mean_cuts[i], i + 1);
      return 1;
    }
  }
  if (!chains_at_zero) {
    std::fprintf(stderr,
                 "E5 claim failed: a Delta = 0 run is not a chain of "
                 "total_events + 1 cuts\n");
    return 1;
  }
  return 0;
}
