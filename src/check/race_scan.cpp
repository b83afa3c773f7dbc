#include "check/race_scan.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/name.hpp"
#include "net/message.hpp"

namespace psn::check {

namespace {
/// Orders names, alone or after a reporter, by text, never by handle.
struct ByText {
  bool operator()(Name a, Name b) const { return a.str() < b.str(); }
  bool operator()(std::pair<ProcessId, Name> a,
                  std::pair<ProcessId, Name> b) const {
    return a.first != b.first ? a.first < b.first
                              : a.second.str() < b.second.str();
  }
};

/// Whether some interval [begin - slack, end + slack] of a list added in
/// nondecreasing begin holds t; an end of SimTime::max() is open and holds
/// every later time. The intervals that begin (less slack) at or before t
/// are a prefix, and one of them reaches t iff the largest end in that
/// prefix does, so each interval keeps its begin and the prefix's largest
/// end, and a query costs one binary search.
class Cover {
 public:
  Cover(Duration slack, std::size_t intervals) : slack_(slack) {
    prefix_.reserve(intervals);
  }

  void add(SimTime begin, SimTime end, const char* unsorted) {
    PSN_CHECK(prefix_.empty() || prefix_.back().first <= begin, unsorted);
    prefix_.emplace_back(
        begin, prefix_.empty() ? end : std::max(prefix_.back().second, end));
  }

  bool holds(SimTime t) const {
    const auto past = std::partition_point(
        prefix_.begin(), prefix_.end(),
        [&](const std::pair<SimTime, SimTime>& p) {
          return p.first <= t + slack_;
        });
    if (past == prefix_.begin()) return false;
    const SimTime reach = std::prev(past)->second;
    return reach == SimTime::max() || t <= reach + slack_;
  }

 private:
  Duration slack_;
  std::vector<std::pair<SimTime, SimTime>> prefix_;  ///< (begin, reach)
};
}  // namespace

std::vector<RaceEvent> scan_races(const core::ObservationLog& log,
                                  const RaceScanConfig& config) {
  std::vector<RaceEvent> races;
  if (log.updates.size() < 2 || config.window <= Duration::zero()) {
    return races;
  }

  // Sort update indices by true sense time; the sliding window then only
  // ever compares pairs that can actually race.
  std::vector<std::size_t> order(log.updates.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const SimTime ta = log.updates[a].report.true_sense_time;
    const SimTime tb = log.updates[b].report.true_sense_time;
    if (ta != tb) return ta < tb;
    return a < b;  // deterministic tie-break: delivery order
  });

  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto& ua = log.updates[order[i]];
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      const auto& ub = log.updates[order[j]];
      const Duration gap = ub.report.true_sense_time - ua.report.true_sense_time;
      if (gap >= config.window) break;
      if (ua.reporter == ub.reporter && order[j] > order[i]) {
        // Same reporter, delivered in program order: nothing raced. But a
        // non-FIFO transport can deliver one process's updates INVERTED
        // (order[j] < order[i]: the later sense sits earlier in the log) —
        // the root then applies them out of program order, which misleads
        // detectors exactly like an inter-process race and must count as
        // one. Single-reporter deployments surfaced this: every delivery
        // inversion was invisible to the audit (found by checker_fuzz).
        continue;
      }
      races.push_back(
          {ua.report.true_sense_time, ub.report.true_sense_time});
      if (races.size() >= kMaxRaces) return races;
    }
  }
  return races;
}

const char* to_string(FaultSpan::Cause c) {
  switch (c) {
    case FaultSpan::Cause::kDrop: return "drop";
    case FaultSpan::Cause::kCrash: return "crash";
    case FaultSpan::Cause::kPartition: return "partition";
    case FaultSpan::Cause::kStale: return "stale";
    case FaultSpan::Cause::kLateDelivery: return "late-delivery";
    case FaultSpan::Cause::kReorder: return "reorder";
  }
  return "?";
}

bool read_by_fault_spans(const sim::TraceRecord& r) {
  switch (r.kind) {
    case sim::TraceKind::kSense:
    case sim::TraceKind::kCrash:
    case sim::TraceKind::kRestart:
    case sim::TraceKind::kPartition:
    case sim::TraceKind::kHeal:
      return true;
    case sim::TraceKind::kDrop:
    case sim::TraceKind::kUnreachable:
      // Only the root-bound copy of a strobe matters to the detectors.
      return r.message_kind == static_cast<int>(net::MessageKind::kStrobe) &&
             r.peer == 0 && r.seq != 0;
    default:
      return false;
  }
}

std::vector<FaultSpan> collect_fault_spans(
    const std::vector<sim::TraceRecord>& trace,
    const core::ObservationLog& log, const FaultSpanConfig& config) {
  std::vector<FaultSpan> spans;

  // Index the root's log by (reporter, attribute) in delivery order: healing
  // a span means finding the first delivered report of that attribute
  // carrying information at least as new as what went missing.
  std::map<std::pair<ProcessId, Name>, std::vector<const core::ReceivedUpdate*>,
           ByText>
      by_attr;
  for (const core::ReceivedUpdate& u : log.updates) {
    by_attr[{u.reporter, u.report.attribute}].push_back(&u);
  }
  const auto healed_at = [&](ProcessId reporter, Name attr,
                             SimTime missing_since) {
    const auto it = by_attr.find({reporter, attr});
    if (it == by_attr.end()) return SimTime::max();
    for (const core::ReceivedUpdate* u : it->second) {
      if (u->report.true_sense_time >= missing_since) return u->delivered_at;
    }
    return SimTime::max();
  };

  // One pass over the (canonical) trace: index sense records by strobe seq,
  // collect each reporter's attribute set, and pair up fault windows.
  std::unordered_map<std::uint64_t, const sim::TraceRecord*> sense_by_seq;
  std::map<ProcessId, std::set<Name, ByText>> attrs_of;
  std::map<ProcessId, SimTime> open_crash;
  std::map<std::pair<ProcessId, ProcessId>, SimTime> open_cut;
  std::vector<const sim::TraceRecord*> root_drops;
  for (const sim::TraceRecord& r : trace) {
    switch (r.kind) {
      case sim::TraceKind::kSense:
        if (r.seq != 0) sense_by_seq.emplace(r.seq, &r);
        if (!r.note.empty()) attrs_of[r.pid].insert(r.note);
        break;
      case sim::TraceKind::kDrop:
      case sim::TraceKind::kUnreachable:
        if (read_by_fault_spans(r)) root_drops.push_back(&r);
        break;
      case sim::TraceKind::kCrash:
        open_crash[r.pid] = r.at;
        break;
      case sim::TraceKind::kRestart: {
        const auto it = open_crash.find(r.pid);
        if (it == open_crash.end()) break;
        // The node sensed nothing over [crash, restart): every world change
        // in the window was missed outright, and the root stays misled per
        // attribute until a strictly-newer report of it gets delivered.
        const SimTime begin = it->second;
        open_crash.erase(it);
        const auto attrs = attrs_of.find(r.pid);
        if (attrs == attrs_of.end() || attrs->second.empty()) {
          spans.push_back({begin, r.at, r.pid, FaultSpan::Cause::kCrash});
          break;
        }
        for (const Name attr : attrs->second) {
          spans.push_back({begin, healed_at(r.pid, attr, begin), r.pid,
                           FaultSpan::Cause::kCrash});
        }
        break;
      }
      case sim::TraceKind::kPartition:
        open_cut[{std::min(r.pid, r.peer), std::max(r.pid, r.peer)}] = r.at;
        break;
      case sim::TraceKind::kHeal: {
        const auto it = open_cut.find(
            {std::min(r.pid, r.peer), std::max(r.pid, r.peer)});
        if (it == open_cut.end()) break;
        // A cut can reroute, delay, or strand traffic from any reporter, so
        // the window itself is an any-reporter span; the reports it actually
        // strands show up as kUnreachable records and get their own spans.
        spans.push_back(
            {it->second, r.at, kNoProcess, FaultSpan::Cause::kPartition});
        open_cut.erase(it);
        break;
      }
      default:
        break;
    }
  }
  // Windows still open at end of trace: the run ended mid-fault.
  for (const auto& [pid, begin] : open_crash) {
    spans.push_back({begin, SimTime::max(), pid, FaultSpan::Cause::kCrash});
  }
  for (const auto& [edge, begin] : open_cut) {
    spans.push_back(
        {begin, SimTime::max(), kNoProcess, FaultSpan::Cause::kPartition});
  }

  // Root-bound drops: the root misses information dating from the sense and
  // recovers at the next delivered report of the same (reporter, attribute).
  for (const sim::TraceRecord* d : root_drops) {
    const auto it = sense_by_seq.find(d->seq);
    if (it == sense_by_seq.end()) continue;  // sense outside the window
    const sim::TraceRecord& sense = *it->second;
    spans.push_back({sense.at, healed_at(sense.pid, sense.note, sense.at),
                     sense.pid, FaultSpan::Cause::kDrop});
  }

  // Expired validity horizons: between a report's expiry and the next
  // delivery of its attribute the root holds data it must not act on.
  for (const auto& [key, updates] : by_attr) {
    for (std::size_t i = 0; i < updates.size(); ++i) {
      const core::ReceivedUpdate& u = *updates[i];
      if (!log.validity.bounded()) continue;
      const SimTime expiry = log.validity.expires_at(u.report.true_sense_time);
      const SimTime next = i + 1 < updates.size()
                               ? updates[i + 1]->delivered_at
                               : SimTime::max();
      if (expiry < next) {
        spans.push_back({expiry, next, key.first, FaultSpan::Cause::kStale});
      }
    }
  }

  // Same-sender reorders: from an overwrite until a report at least as new
  // as the overwritten one lands, the root holds that pair's older state.
  for (const auto& [key, updates] : by_attr) {
    SimTime newest = SimTime::zero();  // sense of the newest report delivered
    bool stale = false;
    for (const core::ReceivedUpdate* u : updates) {
      const SimTime sensed = u->report.true_sense_time;
      if (sensed < newest) {
        stale = true;
        continue;
      }
      if (stale) {
        spans.push_back(
            {newest, u->delivered_at, key.first, FaultSpan::Cause::kReorder});
        stale = false;
      }
      newest = sensed;
    }
    if (stale) {
      spans.push_back(
          {newest, SimTime::max(), key.first, FaultSpan::Cause::kReorder});
    }
  }

  // Deliveries beyond the Δ bound (duty-cycle deferrals held for a wake
  // window): the root is behind from the sense until the report lands.
  if (config.delta_bound != Duration::max()) {
    for (const core::ReceivedUpdate& u : log.updates) {
      if (u.delivered_at > u.report.true_sense_time + config.delta_bound) {
        spans.push_back({u.report.true_sense_time, u.delivered_at, u.reporter,
                         FaultSpan::Cause::kLateDelivery});
      }
    }
  }

  std::sort(spans.begin(), spans.end(),
            [](const FaultSpan& x, const FaultSpan& y) {
              if (x.begin != y.begin) return x.begin < y.begin;
              if (x.end != y.end) return x.end < y.end;
              if (x.reporter != y.reporter) return x.reporter < y.reporter;
              return static_cast<int>(x.cause) < static_cast<int>(y.cause);
            });
  return spans;
}

ContractResult audit_detector(const std::string& detector,
                              const std::vector<RaceEvent>& races,
                              const std::vector<FaultSpan>& fault_spans,
                              const std::vector<SimTime>& fp_cause_times,
                              const std::vector<SimTime>& fn_occurrence_times,
                              const AuditConfig& config) {
  ContractResult result;
  result.contract = "race-audit." + detector;
  result.pairs_checked = races.size();
  const Duration slack = config.slack;

  Cover race_cover(slack, races.size());
  for (const RaceEvent& r : races) {
    race_cover.add(r.true_a, r.true_b,
                   "race audit needs races sorted by true_a");
  }
  Cover fault_cover(slack, fault_spans.size());
  for (const FaultSpan& s : fault_spans) {
    fault_cover.add(s.begin, s.end,
                    "race audit needs fault spans sorted by begin");
  }

  // A scan cut at kMaxRaces left out pairs whose true_a is no earlier than
  // the last scanned one's; such a race reaches back to true_a - slack.
  const SimTime unscanned_from = races.size() >= kMaxRaces
                                     ? races.back().true_a - slack
                                     : SimTime::max();

  auto audit = [&](const std::vector<SimTime>& times, ViolationKind kind,
                   const char* label) {
    for (const SimTime t : times) {
      result.events_checked++;
      if (race_cover.holds(t) || fault_cover.holds(t)) continue;
      result.violations_total++;
      if (result.violations.size() < kMaxAuditWitnesses) {
        CheckViolation v;
        v.at = t;
        v.detail = detector + ": confident " + label + " at t=" +
                   std::to_string(t.to_seconds()) + "s ";
        if (t >= unscanned_from) {
          v.kind = ViolationKind::kRaceScanTruncated;
          v.detail += "lies past the race scan, which stopped at its cap of " +
                      std::to_string(kMaxRaces) +
                      " pairs; no scanned race or recorded fault explains it";
        } else {
          v.kind = kind;
          v.detail +=
              "has no Δ-race or recorded fault within the audit window to "
              "explain it";
        }
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

}  // namespace psn::check
