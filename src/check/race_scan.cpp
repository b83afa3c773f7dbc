#include "check/race_scan.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

#include "clocks/timestamp.hpp"
#include "net/message.hpp"

namespace psn::check {

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
  }
  return "?";
}

std::vector<FaultSpan> collect_fault_spans(
    const std::vector<sim::TraceRecord>& trace,
    const core::ObservationLog& log, const FaultSpanConfig& config) {
  std::vector<FaultSpan> spans;
  constexpr int kStrobeKind = static_cast<int>(net::MessageKind::kStrobe);

  // Index the root's log by (reporter, attribute) in delivery order: healing
  // a span means finding the first delivered report of that attribute
  // carrying information at least as new as what went missing.
  std::map<std::pair<ProcessId, std::string>,
           std::vector<const core::ReceivedUpdate*>>
      by_attr;
  for (const core::ReceivedUpdate& u : log.updates) {
    by_attr[{u.reporter, u.report.attribute}].push_back(&u);
  }
  const auto healed_at = [&](ProcessId reporter, const std::string& attr,
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
  std::map<ProcessId, std::set<std::string>> attrs_of;
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
        // Only the root-bound copy of a strobe matters to the detectors.
        if (r.message_kind == kStrobeKind && r.peer == 0 && r.seq != 0) {
          root_drops.push_back(&r);
        }
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
        for (const std::string& attr : attrs->second) {
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

}  // namespace

ContractResult audit_detector(const std::string& detector,
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

}  // namespace psn::check
