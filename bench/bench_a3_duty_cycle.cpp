// Ablation A3 — paper §5 (last paragraph): duty-cycle synchronization.
// "Synchronization of duty cycles among wireless sensor nodes for efficient
// execution of MAC and routing layer functions can be achieved using
// distributed timers. It is particularly feasible in applications such as
// habitat monitoring where the monitoring activities proceed slowly."
//
// Sweep the receiver duty fraction, with phases either synchronized (what
// the distributed-timer protocol achieves) or random (unsynchronized
// baseline). Duty cycling stretches the *effective* Δ: strobes wait out the
// receivers' sleep, so detection latency grows toward the sleep time, and
// with random phases the strobes reach different receivers in different
// cycles, creating extra races.
//
// Expected shape: latency ≈ message delay at duty 1.0, growing as duty
// falls; aligned phases no worse than random at every duty level.

#include <cstdio>

#include "analysis/sweep.hpp"
#include "common/table.hpp"

int main() {
  using namespace psn;

  constexpr std::size_t kReps = 8;
  std::printf(
      "A3: duty-cycled receivers (2 doors, 2 events/s — habitat-slow, "
      "Delta = 50 ms, period 1 s, %zu seeds x 120 s)\n\n",
      kReps);

  Table table({"duty fraction", "phases", "recall", "recall w/ bin",
               "p50 latency (ms)", "p95 latency (ms)", "belief acc"});

  analysis::OccupancyConfig base;
  base.doors = 2;
  base.capacity = 20;
  base.movement_rate = 2.0;
  base.delta = Duration::millis(50);
  base.horizon = Duration::seconds(120);
  base.seed = 600;
  base.score_tolerance = Duration::millis(2200);

  // Duty fraction and phase alignment interact ("always-on has no phases"),
  // so the axis enumerates the valid (duty, aligned) combinations directly.
  struct Case {
    double duty;
    bool aligned;
  };
  std::vector<Case> cases = {{1.0, true}};
  for (const double duty : {0.5, 0.2, 0.1}) {
    cases.push_back({duty, true});
    cases.push_back({duty, false});
  }
  std::vector<analysis::SweepSpec::Mutator> duty_axis;
  for (const Case& c : cases) {
    duty_axis.push_back([c](analysis::OccupancyConfig& cfg) {
      if (c.duty < 1.0) {
        net::DutyCycle dc;
        dc.period = Duration::millis(1000);
        dc.window = Duration::millis(static_cast<std::int64_t>(1000 * c.duty));
        cfg.duty_cycle = dc;
        cfg.duty_phases_aligned = c.aligned;
      }
    });
  }

  const auto result = analysis::sweep(base)
                          .vary_custom(duty_axis)
                          .replications(kReps)
                          .run();

  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const auto& [duty, aligned] = cases[i];
    const auto& v = result.points[i].at("strobe-vector");
    table.row()
        .cell(duty, 3)
        .cell(duty == 1.0 ? "always-on" : (aligned ? "synced" : "random"))
        .cell(v.score.recall(), 3)
        .cell(v.score.recall_with_borderline(), 3)
        .cell(v.score.latency_s.empty() ? 0.0
                                        : v.score.latency_s.median() * 1e3,
              4)
        .cell(v.score.latency_s.empty()
                  ? 0.0
                  : v.score.latency_s.percentile(95) * 1e3,
              4)
        .cell(v.belief_accuracy.mean(), 4);
  }
  std::printf("%s\n", table.ascii().c_str());
  std::printf(
      "Reading: the always-on root keeps median latency near Delta, but the\n"
      "tail stretches toward the sleep time and confident recall erodes as\n"
      "duty falls (sleeping sensors merge strobes late -> more races).\n"
      "Synchronized and random phases differ by less than the seed-to-seed\n"
      "spread in confident recall (EXPERIMENTS.md A3). The borderline bin\n"
      "absorbs nearly all of the loss.\n");
  return 0;
}
