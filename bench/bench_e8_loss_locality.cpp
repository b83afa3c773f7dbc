// E8 — paper §4.2.2 (end): "A message loss may result in the wrong detection
// of the predicate in the temporal vicinity of the lost message. However,
// there will be no long-term ripple effects of the message loss on later
// detection."
//
// A total-loss window is injected mid-run. Detector errors (FP + FN) are
// located on the true-time axis; we report how many fall inside the loss
// window padded by 2Δ versus elsewhere, and compare with a clean control
// run of the same seed.
//
// Expected shape: errors concentrate in the padded window; outside it the
// lossy run matches the clean run (no ripple). The binary exits 1 unless,
// for both strobe detectors, the lossy run has more in-window errors than
// the clean one and that excess is at least 5x the outside difference.
//
// The clean/lossy run pairs need the raw per-run results (error *locations*,
// not merged scores), so this bench uses the sweep engine's lower-level
// run_specs() fan-out: all 2×kReps simulations run across its crew, results
// come back in input order.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "analysis/sweep.hpp"
#include "common/table.hpp"

namespace {

using namespace psn;

struct ErrorLocations {
  std::size_t inside = 0;
  std::size_t outside = 0;
};

/// Errors = unmatched confident detections (FP) + unmatched oracle starts
/// (FN). We re-derive their times from the score by re-matching here with
/// the same greedy procedure, so just count detections/occurrences whose
/// match failed, by time bucket.
ErrorLocations locate_errors(const analysis::OccupancyRunResult& run,
                             const std::string& detector, SimTime w_begin,
                             SimTime w_end, Duration pad) {
  const auto& out = run.outcome(detector);
  // Rebuild matched flags via score counts is not enough — redo matching
  // simply: a detection is an "error" if no oracle start within tolerance;
  // an oracle start is an "error" if no confident detection within
  // tolerance. Tolerance mirrors the experiment harness.
  const Duration tol = Duration::millis(301);  // 2*150ms + 1
  ErrorLocations loc;
  auto bucket = [&](SimTime t) {
    if (t >= w_begin - pad && t <= w_end + pad) {
      loc.inside++;
    } else {
      loc.outside++;
    }
  };
  for (const auto& d : out.detections) {
    if (!d.to_true || d.borderline) continue;
    bool matched = false;
    for (const auto& occ : run.oracle.occurrences) {
      if ((occ.begin - d.cause_true_time).abs() <= tol) {
        matched = true;
        break;
      }
    }
    if (!matched) bucket(d.cause_true_time);
  }
  for (const auto& occ : run.oracle.occurrences) {
    bool matched = false;
    for (const auto& d : out.detections) {
      if (d.to_true && !d.borderline &&
          (occ.begin - d.cause_true_time).abs() <= tol) {
        matched = true;
        break;
      }
    }
    if (!matched) bucket(occ.begin);
  }
  return loc;
}

}  // namespace

int main() {
  using namespace psn;

  constexpr std::size_t kReps = 10;
  const SimTime w_begin = SimTime::zero() + Duration::seconds(40);
  const SimTime w_end = SimTime::zero() + Duration::seconds(44);
  const Duration delta = Duration::millis(150);

  std::printf(
      "E8: loss locality — total strobe loss during [40 s, 44 s) of a 120 s "
      "run (Delta = 150 ms, %zu seeds)\n\n",
      kReps);

  Table table({"detector", "errors in window+2D (clean)",
               "errors in window+2D (lossy)", "errors elsewhere (clean)",
               "errors elsewhere (lossy)", "window fraction of run"});

  // Interleaved (clean, lossy) pairs per seed; run_specs preserves order.
  std::vector<analysis::OccupancyConfig> configs;
  for (std::uint64_t seed = 1; seed <= kReps; ++seed) {
    analysis::OccupancyConfig cfg;
    cfg.doors = 4;
    cfg.capacity = 200;
    cfg.movement_rate = 25.0;
    cfg.delta = delta;
    cfg.horizon = Duration::seconds(120);
    cfg.seed = seed;
    configs.push_back(cfg);

    analysis::OccupancyConfig lossy_cfg = cfg;
    lossy_cfg.loss_windows = {{w_begin, w_end}};
    configs.push_back(lossy_cfg);
  }
  const auto runs = analysis::run_specs(configs);

  struct Tally {
    ErrorLocations clean;
    ErrorLocations lossy;
  };
  std::map<std::string, Tally> tally;
  for (std::size_t i = 0; i < kReps; ++i) {
    const auto& clean = runs[2 * i];
    const auto& lossy = runs[2 * i + 1];

    for (const char* det : {"strobe-vector", "strobe-scalar"}) {
      const auto lossy_loc =
          locate_errors(lossy, det, w_begin, w_end, delta * 2);
      const auto clean_loc =
          locate_errors(clean, det, w_begin, w_end, delta * 2);
      Tally& t = tally[det];
      t.clean.inside += clean_loc.inside;
      t.clean.outside += clean_loc.outside;
      t.lossy.inside += lossy_loc.inside;
      t.lossy.outside += lossy_loc.outside;
    }
  }

  const double window_fraction = (4.0 + 2 * delta.to_seconds()) / 120.0;
  for (const auto& [det, t] : tally) {
    table.row()
        .cell(det)
        .cell(t.clean.inside)
        .cell(t.lossy.inside)
        .cell(t.clean.outside)
        .cell(t.lossy.outside)
        .cell(window_fraction, 3);
  }
  std::printf("%s\n", table.ascii().c_str());
  std::printf(
      "Claim check: lossy-run errors concentrate in the padded loss window\n"
      "(which covers only ~%.1f%% of the run); outside it the error count\n"
      "matches the clean control — losses do not ripple forward.\n",
      100.0 * window_fraction);
  for (const auto& [det, t] : tally) {
    const long excess_in = static_cast<long>(t.lossy.inside) -
                           static_cast<long>(t.clean.inside);
    const long ripple = std::labs(static_cast<long>(t.lossy.outside) -
                                  static_cast<long>(t.clean.outside));
    if (excess_in <= 0 || excess_in < 5 * ripple) {
      std::fprintf(stderr,
                   "E8 claim failed: %s has %ld more errors in window+2D "
                   "with loss; need > 0 and >= 5x the outside difference "
                   "%ld\n",
                   det.c_str(), excess_in, ripple);
      return 1;
    }
  }
  return 0;
}
