#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "common/sim_time.hpp"
#include "common/types.hpp"
#include "core/observation.hpp"
#include "sim/trace.hpp"

namespace psn::check {

/// One Δ-race (or 2ε overlap for physical-clock detectors): two sense
/// reports whose true sense times are closer than the detector's resolution
/// window, from different processes or delivered out of their sender's
/// order. Inside that window the root cannot trust any ordering signal —
/// exactly the interval the paper blames detector errors on (§5), so the
/// race is kept as that interval and nothing more.
struct RaceEvent {
  SimTime true_a;  ///< true sense time of the earlier report
  SimTime true_b;  ///< true sense time of the later report (>= true_a)
};

/// Safety cap on emitted races (the scan is a sliding window, so pathological
/// inputs — everything simultaneous — are quadratic in the window population).
/// A scan that reaches it stops there; audit_detector reports the errors the
/// unscanned pairs might explain as kRaceScanTruncated.
inline constexpr std::size_t kMaxRaces = 100000;

struct RaceScanConfig {
  /// Race window: Δ for delivery/strobe detectors, 2ε for physical-timestamp
  /// detectors. Pairs with true-time gap strictly below this are races.
  Duration window = Duration::zero();
};

/// Scans the root's observation log for Δ-race pairs. O(u log u + races).
std::vector<RaceEvent> scan_races(const core::ObservationLog& log,
                                  const RaceScanConfig& config);

/// One interval during which a recorded fault (or its aftermath) can
/// legitimately mislead the root's detectors: the information the root is
/// missing — or holding stale — dates from `begin` and is repaired (next
/// good delivery of the affected attribute) at `end`. SimTime::max() means
/// the run ended before repair. Intervals are in true time, like race spans.
struct FaultSpan {
  enum class Cause : std::uint8_t {
    kDrop,          ///< a root-bound report was lost or unroutable
    kCrash,         ///< the reporter was inside a crash window
    kPartition,     ///< an overlay partition window was open
    kStale,         ///< the last report's validity horizon expired
    kLateDelivery,  ///< a report arrived later than the Δ bound (duty defer)
    kReorder,       ///< an older report overwrote a newer one at the root
  };

  SimTime begin;
  SimTime end;
  /// Reporter whose observations the span invalidates (kNoProcess = any —
  /// used by partition-window spans, where the cut can reroute or delay
  /// traffic from any process).
  ProcessId reporter = kNoProcess;
  Cause cause = Cause::kDrop;
};

const char* to_string(FaultSpan::Cause c);

struct FaultSpanConfig {
  /// End-to-end delay bound Δ: a report delivered later than
  /// sense + delta_bound opens a kLateDelivery span (duty-cycle deferrals).
  /// Duration::max() disables the late-delivery rule.
  Duration delta_bound = Duration::max();
};

/// Derives the loss/fault attribution intervals of one finished run from its
/// canonical trace and the root's observation log (DESIGN.md §15):
///
///  - every root-bound kDrop/kUnreachable of a strobe opens a span at the
///    originating sense, healed by the next delivered report of the same
///    (reporter, attribute) carrying newer information;
///  - every kCrash..kRestart window opens one span per attribute the node
///    reports, healed by the first post-restart delivery of that attribute
///    (world changes during the window were never sensed at all);
///  - every kPartition..kHeal window is one any-reporter span;
///  - a bounded validity horizon opens a kStale span from each report's
///    expiry to the next delivery of that (reporter, attribute);
///  - a delivery beyond the Δ bound opens a kLateDelivery span from its
///    sense to its delivery;
///  - an older report of a (reporter, attribute) delivered after a newer
///    one overwrites it (the transport is not FIFO): a kReorder span opens
///    at the overwritten report's sense and heals like a drop, at the next
///    delivered report of that pair at least as new as the overwritten one.
///
/// Returns spans sorted by begin. The list is empty for a clean lossless
/// run, in which case the audit below degenerates to the pure race audit.
std::vector<FaultSpan> collect_fault_spans(
    const std::vector<sim::TraceRecord>& trace,
    const core::ObservationLog& log, const FaultSpanConfig& config);

/// True iff collect_fault_spans reads `r`: a kSense, a root-bound strobe
/// kDrop/kUnreachable, or a fault-plan record. Every other record it skips,
/// so a run that streams its trace keeps only these, in trace order, and
/// gets the spans the whole trace gives.
bool read_by_fault_spans(const sim::TraceRecord& r);

/// Violation witnesses an audit keeps; counting continues past the cap.
inline constexpr std::size_t kMaxAuditWitnesses = 16;

struct AuditConfig {
  /// An error at true time t is explained by a race whose true-time span
  /// [true_a - slack, true_b + slack] contains t (and likewise for fault
  /// spans).
  Duration slack = Duration::zero();
};

/// Cross-checks one detector's confident errors against the scanned races
/// and the run's fault spans: each false positive (by cause true time) and
/// false negative (by missed occurrence start) must fall inside some race or
/// fault span, or it becomes a violation (kUnexplainedFalsePositive /
/// kUnexplainedFalseNegative). When `races` holds kMaxRaces entries the scan
/// was cut short, and an unexplained error at or after the last race's
/// true_a less the slack — where an unscanned race could still reach — is a
/// kRaceScanTruncated violation instead: the verdict stays non-clean, but
/// names the cap rather than the detector. Sound whenever every non-race
/// error source is visible to the audit: Δ-bounded delay plus an
/// untruncated trace window, with losses, crashes, partitions, duty
/// deferrals, and expired horizons supplied as fault spans. `races` must be
/// nondecreasing in true_a (as
/// scan_races emits them) and `fault_spans` in begin (as collect_fault_spans
/// returns them); unsorted input throws InvariantError. Costs O(R + S) for
/// one prefix pass plus O(log R + log S) per error time. Returns a
/// ContractResult named "race-audit." + detector; feed it to
/// CheckReport::add_contract.
ContractResult audit_detector(const std::string& detector,
                              const std::vector<RaceEvent>& races,
                              const std::vector<FaultSpan>& fault_spans,
                              const std::vector<SimTime>& fp_cause_times,
                              const std::vector<SimTime>& fn_occurrence_times,
                              const AuditConfig& config);

}  // namespace psn::check
