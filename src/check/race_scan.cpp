#include "check/race_scan.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

#include "clocks/timestamp.hpp"
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
      RaceEvent race;
      race.update_a = order[i];
      race.update_b = order[j];
      race.pid_a = ua.reporter;
      race.pid_b = ub.reporter;
      race.true_a = ua.report.true_sense_time;
      race.true_b = ub.report.true_sense_time;
      race.gap = gap;
      // The root sees updates in log order; the later sense arriving at a
      // smaller index means delivery inverted the true order.
      race.delivery_inverted = race.update_b < race.update_a;
      const auto& va = ua.report.strobe_vector;
      const auto& vb = ub.report.strobe_vector;
      race.strobe_concurrent = va.size() > 0 && va.size() == vb.size() &&
                               clocks::concurrent(va, vb);
      races.push_back(race);
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
      if (!u.validity.bounded()) continue;
      const SimTime expiry = u.validity.expires_at(u.report.true_sense_time);
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

  // Both interval lists are sorted by their start, so the intervals that
  // start (less slack) at or before t are a prefix, and one of them reaches
  // t iff the largest end in that prefix does. One pass builds the prefix
  // maxima; each error time then costs two binary searches. A prefix's
  // largest span end is SimTime::max() exactly when it holds an open-ended
  // span, which explains every later time without adding slack to it.
  std::vector<SimTime> race_reach(races.size());
  for (std::size_t i = 0; i < races.size(); ++i) {
    PSN_CHECK(i == 0 || races[i - 1].true_a <= races[i].true_a,
              "race audit needs races sorted by true_a");
    race_reach[i] =
        i == 0 ? races[i].true_b : std::max(race_reach[i - 1], races[i].true_b);
  }
  std::vector<SimTime> span_reach(fault_spans.size());
  for (std::size_t i = 0; i < fault_spans.size(); ++i) {
    PSN_CHECK(i == 0 || fault_spans[i - 1].begin <= fault_spans[i].begin,
              "race audit needs fault spans sorted by begin");
    span_reach[i] = i == 0 ? fault_spans[i].end
                           : std::max(span_reach[i - 1], fault_spans[i].end);
  }
  // True iff t falls inside some race span [true_a - slack, true_b + slack].
  const auto explained_by_race = [&](SimTime t) {
    const auto k = static_cast<std::size_t>(
        std::partition_point(races.begin(), races.end(),
                             [&](const RaceEvent& r) {
                               return !(r.true_a - slack > t);
                             }) -
        races.begin());
    return k > 0 && t <= race_reach[k - 1] + slack;
  };
  // True iff t falls inside some fault span [begin - slack, end + slack].
  const auto explained_by_fault = [&](SimTime t) {
    const auto k = static_cast<std::size_t>(
        std::partition_point(fault_spans.begin(), fault_spans.end(),
                             [&](const FaultSpan& s) {
                               return !(t + slack < s.begin);
                             }) -
        fault_spans.begin());
    if (k == 0) return false;
    const SimTime reach = span_reach[k - 1];
    return reach == SimTime::max() || t <= reach + slack;
  };

  // A scan cut at kMaxRaces left out pairs whose true_a is no earlier than
  // the last scanned one's; such a race reaches back to true_a - slack.
  const SimTime unscanned_from = races.size() >= kMaxRaces
                                     ? races.back().true_a - slack
                                     : SimTime::max();

  auto audit = [&](const std::vector<SimTime>& times, ViolationKind kind,
                   const char* label) {
    for (const SimTime t : times) {
      result.events_checked++;
      if (explained_by_race(t)) continue;
      if (explained_by_fault(t)) continue;
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
