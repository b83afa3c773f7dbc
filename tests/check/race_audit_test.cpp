// check::audit_detector answers each error time with two binary searches
// over prefix maxima. These tests hold it to the linear scan it replaced,
// kept below as the reference: same events, same violation count, same
// witnesses, on seeded random races and fault spans with error times placed
// exactly on every slack boundary.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "check/race_scan.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace psn::check {
namespace {

/// True iff t falls inside some race span [true_a - slack, true_b + slack].
/// Races are emitted in nondecreasing true_a order, so we can stop early.
bool explained_by_race(SimTime t, const std::vector<RaceEvent>& races,
                       Duration slack) {
  for (const RaceEvent& r : races) {
    if (r.true_a - slack > t) break;
    if (t <= r.true_b + slack) return true;
  }
  return false;
}

/// True iff t falls inside some fault span [begin - slack, end + slack].
/// Spans are sorted by begin; open-ended spans saturate at SimTime::max().
bool explained_by_fault(SimTime t, const std::vector<FaultSpan>& spans,
                        Duration slack) {
  for (const FaultSpan& s : spans) {
    if (t + slack < s.begin) break;
    if (s.end == SimTime::max() || t <= s.end + slack) return true;
  }
  return false;
}

/// The audit as a linear scan over every race and span per error time.
ContractResult reference_audit(const std::string& detector,
                               const std::vector<RaceEvent>& races,
                               const std::vector<FaultSpan>& fault_spans,
                               const std::vector<SimTime>& fp_cause_times,
                               const std::vector<SimTime>& fn_occurrence_times,
                               const AuditConfig& config) {
  ContractResult result;
  result.contract = "race-audit." + detector;
  result.pairs_checked = races.size();
  auto audit = [&](const std::vector<SimTime>& times, ViolationKind kind,
                   const char* label) {
    for (const SimTime t : times) {
      result.events_checked++;
      if (explained_by_race(t, races, config.slack)) continue;
      if (explained_by_fault(t, fault_spans, config.slack)) continue;
      result.violations_total++;
      if (result.violations.size() < kMaxAuditWitnesses) {
        CheckViolation v;
        v.kind = kind;
        v.at = t;
        v.detail = detector + ": confident " + label + " at t=" +
                   std::to_string(t.to_seconds()) +
                   "s has no Δ-race or recorded fault within the audit "
                   "window to explain it";
        result.violations.push_back(std::move(v));
      }
    }
  };
  audit(fp_cause_times, ViolationKind::kUnexplainedFalsePositive,
        "false positive");
  audit(fn_occurrence_times, ViolationKind::kUnexplainedFalseNegative,
        "false negative");
  return result;
}

SimTime at_ms(std::int64_t ms) { return SimTime::zero() + Duration::millis(ms); }

std::int64_t draw(Rng& rng, std::int64_t lo, std::int64_t hi) {
  return rng.uniform_int(lo, hi);
}

/// Races on a millisecond grid, nondecreasing in true_a, as scan_races
/// emits them.
std::vector<RaceEvent> random_races(Rng& rng, std::size_t count) {
  std::vector<RaceEvent> races(count);
  std::int64_t a = draw(rng, 0, 50);
  for (RaceEvent& r : races) {
    a += draw(rng, 0, 40);
    r.true_a = at_ms(a);
    r.true_b = at_ms(a + draw(rng, 0, 30));
    r.gap = r.true_b - r.true_a;
  }
  return races;
}

/// Fault spans sorted by begin, about one in eight open-ended.
std::vector<FaultSpan> random_spans(Rng& rng, std::size_t count) {
  std::vector<FaultSpan> spans(count);
  for (FaultSpan& s : spans) {
    const std::int64_t begin = draw(rng, 0, 4000);
    s.begin = at_ms(begin);
    s.end = draw(rng, 0, 7) == 0 ? SimTime::max()
                                 : at_ms(begin + draw(rng, 0, 200));
    s.reporter = static_cast<ProcessId>(draw(rng, 1, 5));
  }
  std::sort(spans.begin(), spans.end(),
            [](const FaultSpan& x, const FaultSpan& y) {
              return x.begin < y.begin;
            });
  return spans;
}

/// Error times: random ones, the audit windows' exact edges and one
/// nanosecond past each, and times before and after every interval.
std::vector<SimTime> error_times(Rng& rng, const std::vector<RaceEvent>& races,
                                 const std::vector<FaultSpan>& spans,
                                 Duration slack) {
  const Duration ns = Duration::nanos(1);
  std::vector<SimTime> times;
  for (int i = 0; i < 40; ++i) times.push_back(at_ms(draw(rng, -100, 5000)));
  for (std::size_t i = 0; i < races.size(); i += 1 + races.size() / 16) {
    const RaceEvent& r = races[i];
    for (const SimTime edge : {r.true_a - slack, r.true_b + slack}) {
      times.push_back(edge - ns);
      times.push_back(edge);
      times.push_back(edge + ns);
    }
  }
  for (std::size_t i = 0; i < spans.size(); i += 1 + spans.size() / 16) {
    const FaultSpan& s = spans[i];
    times.push_back(s.begin - slack - ns);
    times.push_back(s.begin - slack);
    if (s.end == SimTime::max()) continue;
    times.push_back(s.end + slack);
    times.push_back(s.end + slack + ns);
  }
  times.push_back(at_ms(-1000));
  times.push_back(at_ms(1'000'000));
  std::shuffle(times.begin(), times.end(), rng);
  return times;
}

void expect_same_audit(const ContractResult& got, const ContractResult& want) {
  EXPECT_EQ(got.contract, want.contract);
  EXPECT_EQ(got.pairs_checked, want.pairs_checked);
  EXPECT_EQ(got.events_checked, want.events_checked);
  EXPECT_EQ(got.violations_total, want.violations_total);
  ASSERT_EQ(got.violations.size(), want.violations.size());
  for (std::size_t i = 0; i < got.violations.size(); ++i) {
    EXPECT_EQ(got.violations[i].kind, want.violations[i].kind) << i;
    EXPECT_EQ(got.violations[i].at, want.violations[i].at) << i;
    EXPECT_EQ(got.violations[i].detail, want.violations[i].detail) << i;
  }
}

TEST(RaceAuditEquivalenceTest, MatchesTheLinearScanOnRandomInputs) {
  Rng rng(7);
  std::size_t flagged = 0;
  std::size_t explained = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::vector<RaceEvent> races =
        random_races(rng, static_cast<std::size_t>(draw(rng, 0, 120)));
    const std::vector<FaultSpan> spans =
        random_spans(rng, static_cast<std::size_t>(draw(rng, 0, 24)));
    AuditConfig cfg;
    cfg.slack = trial % 3 == 0 ? Duration::zero()
                               : Duration::millis(draw(rng, 1, 60));
    const std::vector<SimTime> fp = error_times(rng, races, spans, cfg.slack);
    const std::vector<SimTime> fn = error_times(rng, races, spans, cfg.slack);

    const ContractResult want =
        reference_audit("probe", races, spans, fp, fn, cfg);
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_same_audit(audit_detector("probe", races, spans, fp, fn, cfg), want);
    flagged += want.violations_total;
    explained += want.events_checked - want.violations_total;
  }
  // The inputs exercise both outcomes, not just one.
  EXPECT_GT(flagged, 1000u);
  EXPECT_GT(explained, 1000u);
}

TEST(RaceAuditEquivalenceTest, OpenSpanExplainsEveryLaterTime) {
  std::vector<FaultSpan> spans;
  spans.push_back({at_ms(100), at_ms(200), 1, FaultSpan::Cause::kDrop});
  spans.push_back({at_ms(300), SimTime::max(), 2, FaultSpan::Cause::kCrash});
  spans.push_back({at_ms(400), at_ms(450), 3, FaultSpan::Cause::kStale});
  AuditConfig cfg;
  cfg.slack = Duration::millis(10);
  const std::vector<SimTime> fp = {at_ms(50),  at_ms(90),  at_ms(210),
                                   at_ms(250), at_ms(290), at_ms(1'000'000)};
  const ContractResult got = audit_detector("probe", {}, spans, fp, {}, cfg);
  expect_same_audit(got, reference_audit("probe", {}, spans, fp, {}, cfg));
  // 50 and 250 fall outside every window; 90, 210 and 290 sit on the edges.
  EXPECT_EQ(got.violations_total, 2u);
}

TEST(RaceAuditTest, SummaryWitnessNamesTimeKindAndDetectorOnly) {
  // An audit witness belongs to no process, event or message, so the
  // summary prints none of those fields.
  CheckReport report;
  report.add_contract(
      audit_detector("physical-eps", {}, {}, {}, {at_ms(4659)}, {}));
  EXPECT_EQ(report.summary(),
            "psn-check verdict: violations (1 violation(s))\n"
            "  race-audit.physical-eps: 1 event(s), 1 violation(s)\n"
            "    [unexplained-false-negative] @4.659000s: physical-eps: "
            "confident false negative at t=4.659000s has no Δ-race or "
            "recorded fault within the audit window to explain it\n");
}

TEST(RaceAuditEquivalenceTest, UnsortedInputThrows) {
  std::vector<RaceEvent> races(2);
  races[0].true_a = races[0].true_b = at_ms(20);
  races[1].true_a = races[1].true_b = at_ms(10);
  EXPECT_THROW(audit_detector("probe", races, {}, {at_ms(15)}, {}, {}),
               InvariantError);

  std::vector<FaultSpan> spans;
  spans.push_back({at_ms(20), at_ms(30), 1, FaultSpan::Cause::kDrop});
  spans.push_back({at_ms(10), at_ms(15), 1, FaultSpan::Cause::kDrop});
  EXPECT_THROW(audit_detector("probe", {}, spans, {}, {at_ms(12)}, {}),
               InvariantError);

  std::reverse(races.begin(), races.end());
  std::reverse(spans.begin(), spans.end());
  EXPECT_NO_THROW(audit_detector("probe", races, spans, {at_ms(12)}, {}, {}));
}

TEST(RaceAuditTest, ErrorsPastACappedRaceScanReportTheTruncation) {
  // 448 reports from distinct sensors inside one Δ window: C(448, 2) =
  // 100,128 racing pairs, more than scan_races keeps.
  core::ObservationLog log;
  for (std::size_t i = 0; i < 448; ++i) {
    core::ReceivedUpdate u;
    u.reporter = static_cast<ProcessId>(i + 1);
    u.report.true_sense_time =
        at_ms(1000) + Duration::micros(static_cast<std::int64_t>(i));
    u.delivered_at = u.report.true_sense_time + Duration::millis(50);
    log.updates.push_back(u);
  }
  RaceScanConfig scan;
  scan.window = Duration::millis(100);
  const std::vector<RaceEvent> races = scan_races(log, scan);
  ASSERT_EQ(races.size(), kMaxRaces);

  // A confident false positive long after the cluster: only an unscanned
  // race could explain it. A false negative long before it is plainly
  // unexplained, cap or no cap.
  AuditConfig cfg;
  cfg.slack = Duration::millis(20);
  const ContractResult got =
      audit_detector("probe", races, {}, {at_ms(5000)}, {at_ms(100)}, cfg);
  EXPECT_EQ(got.events_checked, 2u);
  EXPECT_EQ(got.violations_total, 2u);
  ASSERT_EQ(got.violations.size(), 2u);
  EXPECT_EQ(got.violations[0].kind, ViolationKind::kRaceScanTruncated);
  EXPECT_EQ(got.violations[0].detail,
            "probe: confident false positive at t=5.000000s lies past the "
            "race scan, which stopped at its cap of 100000 pairs; no "
            "scanned race or recorded fault explains it");
  EXPECT_EQ(got.violations[1].kind, ViolationKind::kUnexplainedFalseNegative);

  CheckReport report;
  report.add_contract(got);
  EXPECT_FALSE(report.clean());
  EXPECT_NE(report.summary().find("[race-scan-truncated] @5.000000s"),
            std::string::npos);

  // One race fewer is a complete scan: the same error is unexplained.
  const std::vector<RaceEvent> complete(races.begin(), races.end() - 1);
  const ContractResult uncapped =
      audit_detector("probe", complete, {}, {at_ms(5000)}, {}, cfg);
  ASSERT_EQ(uncapped.violations.size(), 1u);
  EXPECT_EQ(uncapped.violations[0].kind,
            ViolationKind::kUnexplainedFalsePositive);
}

TEST(FaultSpanTest, OlderReportDeliveredLateOpensAReorderSpan) {
  // Reporter 1's "x" report sensed at 2.0 s lands first; the one sensed at
  // 1.9 s lands after it and overwrites it at the root. So does the one
  // sensed at 1.95 s, which is still older. The report sensed at 3.0 s is
  // the first delivered one at least as new as the overwritten 2.0 s one,
  // and heals the pair. Reporter 2 ends on an overwrite nothing heals, and
  // its "y" reports arrive in order.
  core::ObservationLog log;
  auto deliver = [&log](ProcessId pid, const char* attr, int sensed_ms,
                        int delivered_ms) {
    core::ReceivedUpdate u;
    u.reporter = pid;
    u.report.attribute = Name(attr);
    u.report.true_sense_time = at_ms(sensed_ms);
    u.delivered_at = at_ms(delivered_ms);
    log.updates.push_back(u);
  };
  deliver(1, "x", 1000, 1050);
  deliver(1, "x", 2000, 2010);
  deliver(1, "x", 1900, 2080);
  deliver(2, "y", 2100, 2150);
  deliver(1, "x", 1950, 2500);
  deliver(2, "x", 2600, 2610);
  deliver(2, "y", 2700, 2750);
  deliver(2, "x", 2550, 2800);
  deliver(1, "x", 3000, 3040);

  const std::vector<FaultSpan> spans =
      collect_fault_spans(/*trace=*/{}, log, FaultSpanConfig{});
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].begin, at_ms(2000));
  EXPECT_EQ(spans[0].end, at_ms(3040));
  EXPECT_EQ(spans[0].reporter, 1u);
  EXPECT_EQ(spans[0].cause, FaultSpan::Cause::kReorder);
  EXPECT_EQ(spans[1].begin, at_ms(2600));
  EXPECT_EQ(spans[1].end, SimTime::max());
  EXPECT_EQ(spans[1].reporter, 2u);
  EXPECT_EQ(spans[1].cause, FaultSpan::Cause::kReorder);
  EXPECT_STREQ(to_string(FaultSpan::Cause::kReorder), "reorder");
}

}  // namespace
}  // namespace psn::check
