// E10 — paper §3.3: "We emphasize that each occurrence of the predicate
// should be detected. ... Existing literature on predicate detection, e.g.,
// [14, 17], detects only the first time the predicate becomes true and then
// the algorithms 'hang'."
//
// A deterministic thermostat-style workload (analysis::every_occurrence,
// which `ctest -L claims` asserts through) makes φ true exactly k times;
// every detector must report all k became-true transitions (plus the k
// became-false ones), and we report per-occurrence reaction latency.
//
// Expected shape: detections = k for every detector, with latency ≈ message
// delay — not 1 as a detect-once algorithm would give.

#include <cstdio>

#include "analysis/claims.hpp"
#include "common/table.hpp"

int main() {
  using namespace psn;

  constexpr std::size_t kOccurrences = 25;
  const analysis::EveryOccurrence e10 =
      analysis::every_occurrence(kOccurrences, 5);

  std::printf(
      "E10: every-occurrence detection — thermostat rule fires %zu times in "
      "ground truth\n\n",
      e10.occurrences);

  Table table({"detector", "became-true reported", "became-false reported",
               "TP", "missed", "p50 latency (ms)", "p95 latency (ms)"});
  for (const analysis::OccurrenceReport& r : e10.detectors) {
    table.row()
        .cell(r.detector)
        .cell(r.became_true)
        .cell(r.became_false)
        .cell(r.true_positives)
        .cell(r.false_negatives)
        .cell(r.latency_s.empty() ? 0.0 : r.latency_s.median() * 1e3, 4)
        .cell(r.latency_s.empty() ? 0.0 : r.latency_s.percentile(95) * 1e3,
              4);
  }
  std::printf("%s\n", table.ascii().c_str());
  std::printf(
      "Claim check: every detector reports ~%zu became-true transitions (one\n"
      "per occurrence) — no detector 'hangs' after the first hit; latency is\n"
      "on the order of the message delay.\n",
      kOccurrences);
  return 0;
}
