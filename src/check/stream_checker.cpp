#include "check/stream_checker.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/hot.hpp"
#include "net/message.hpp"

namespace psn::check {

namespace {

constexpr int kStrobeKind = static_cast<int>(net::MessageKind::kStrobe);
constexpr int kComputationKind =
    static_cast<int>(net::MessageKind::kComputation);

}  // namespace

StreamChecker::StreamChecker(const StreamCheckerConfig& config)
    : cfg_(config), comp_sent_(&pool_), strobe_sent_(&pool_) {
  if (bound()) {
    PSN_CHECK(cfg_.executions.size() == cfg_.num_processes,
              "StreamChecker: executions must have one entry per process");
  }
  states_.resize(cfg_.num_processes);
  for (auto& s : states_) {
    s.causal_vc = clocks::VectorStamp(cfg_.num_processes);
    s.strobe_vc = clocks::VectorStamp(cfg_.num_processes);
  }
  hb_.contract = "hb-graph";
  lamport_.contract = "lamport";
  vector_.contract = "vector";
  strobe_scalar_.contract = "strobe-scalar";
  strobe_vector_.contract = "strobe-vector";
  soundness_.contract = "strobe-soundness";
  epsilon_.contract = "physical-epsilon";
  drift_.contract = "physical-drift";
  validity_.contract = "validity-horizon";
  fault_.contract = "fault-model";
  down_.resize(cfg_.num_processes, 0);
  cut_edges_.reserve(8);
}

const std::vector<core::ProcessEvent>& StreamChecker::events(
    ProcessId p) const {
  static const std::vector<core::ProcessEvent> kNone;
  const std::vector<core::ProcessEvent>* claimed = cfg_.executions[p];
  return claimed != nullptr ? *claimed : kNone;
}

void StreamChecker::add(ContractResult& c, CheckViolation v) {
  c.violations_total++;
  if (in_feed_ && !feed_violation_.has_value()) feed_violation_ = v;
  if (c.violations.size() < cfg_.options.max_recorded_violations) {
    c.violations.push_back(std::move(v));
  }
}

PSN_HOT std::optional<CheckViolation> StreamChecker::feed(
    const sim::TraceRecord& r) {
  feed_violation_.reset();
  in_feed_ = true;
  // kDetect records are appended out-of-band (batch traces rewind their
  // timestamps to the causing sense), so they neither advance the eviction
  // clock nor participate in matching.
  if (r.kind != sim::TraceKind::kDetect) evict_expired(r.at);
  if (saw_fault_records_) check_down_activity(r);

  // One dispatch for both modes: the record drives the happens-before
  // bookkeeping; bound mode then steps the claimed execution to it.
  const bool computation = r.message_kind == kComputationKind;
  switch (r.kind) {
    case sim::TraceKind::kSense: {
      if (!admit(r)) break;
      Sent* entry = r.seq != 0 ? &remember(r, /*strobe=*/true) : nullptr;
      if (bound()) advance(r, core::EventType::kSense, entry);
      break;
    }
    case sim::TraceKind::kSend: {
      if (!admit(r) || !computation) break;
      Sent* entry = r.seq != 0 ? &remember(r, /*strobe=*/false) : nullptr;
      if (bound()) advance(r, core::EventType::kSend, entry);
      break;
    }
    case sim::TraceKind::kReceive: {
      if (!computation || !admit(r)) break;
      const auto it = comp_sent_.find(r.seq);
      const bool matched = it != comp_sent_.end();
      if (!matched) {
        add(hb_, {ViolationKind::kUnmatchedReceive, r.pid, 0, r.seq, r.at,
                  "receive record has no matching send (dropped "
                  "send->receive edge)"});
      }
      if (bound()) {
        advance(r, core::EventType::kReceive, matched ? &it->second : nullptr);
      }
      // Unicast: matched once and released at once — this is what keeps
      // the working set proportional to traffic in flight.
      if (matched) comp_sent_.erase(it);
      break;
    }
    case sim::TraceKind::kDeliver: {
      if (r.message_kind != kStrobeKind || !admit(r)) break;
      const auto it = strobe_sent_.find(r.seq);
      if (it == strobe_sent_.end()) {
        add(hb_, {ViolationKind::kUnmatchedDeliver, r.pid, 0, r.seq, r.at,
                  "strobe delivery from an unknown sense broadcast"});
        break;
      }
      // Broadcast copies share the seq, so the entry stays until the
      // retention window passes it.
      check_validity(r, it->second.at);
      if (bound()) {
        // SSC2/SVC2: merge, no tick. An entry whose sense the execution
        // lacks (already flagged) has no vector to merge.
        OracleState& s = states_[r.pid];
        s.strobe_scalar = std::max(s.strobe_scalar, it->second.scalar);
        if (it->second.vector.size() == s.strobe_vc.size()) {
          s.strobe_vc.merge(it->second.vector);
        }
      }
      break;
    }
    case sim::TraceKind::kDrop:
    case sim::TraceKind::kUnreachable:
      // A dropped unicast computation message can never be received;
      // release its entry now rather than waiting out the window.
      if (computation) comp_sent_.erase(r.seq);
      break;
    case sim::TraceKind::kCrash:
    case sim::TraceKind::kRestart:
    case sim::TraceKind::kPartition:
    case sim::TraceKind::kHeal:
      on_fault_record(r);
      break;
    case sim::TraceKind::kDetect:
      break;
  }

  in_feed_ = false;
  return std::exchange(feed_violation_, std::nullopt);
}

/// Counts a record that carries a happens-before endpoint and checks its
/// pid against the declared topology (0 processes = unknown, trace-only).
bool StreamChecker::admit(const sim::TraceRecord& r) {
  hb_.events_checked++;
  const bool in_range = cfg_.num_processes == 0
                            ? !bound()
                            : r.pid < cfg_.num_processes;
  if (!in_range) {
    add(hb_, {ViolationKind::kUnmatchedSend, r.pid, 0, r.seq, r.at,
              "trace names pid out of range"});
  }
  return in_range;
}

/// Makes the entry a send or sense record leaves under its seq, queued for
/// eviction when the retention window is finite.
StreamChecker::Sent& StreamChecker::remember(const sim::TraceRecord& r,
                                             bool strobe) {
  Sent& entry = (strobe ? strobe_sent_ : comp_sent_)[r.seq];
  entry = Sent{0, clocks::VectorStamp(), r.at};
  if (cfg_.send_retention != Duration::max()) {
    pending_order_.push_back({r.at, r.seq, strobe});
  }
  return entry;
}

/// Replays one fault record into the down/cut state, flagging malformed
/// pairings: crashes must alternate with restarts per process, cuts with
/// heals per edge. A forged or re-ordered fault stream fails here instead
/// of silently excusing detector errors downstream.
void StreamChecker::on_fault_record(const sim::TraceRecord& r) {
  saw_fault_records_ = true;
  fault_.events_checked++;
  if (r.pid >= down_.size()) down_.resize(r.pid + 1, 0);
  switch (r.kind) {
    case sim::TraceKind::kCrash:
      if (down_[r.pid] != 0) {
        add(fault_, {ViolationKind::kFaultPairing, r.pid, 0, 0, r.at,
                     "crash record for a process that is already down"});
      }
      down_[r.pid] = 1;
      break;
    case sim::TraceKind::kRestart:
      if (down_[r.pid] == 0) {
        add(fault_, {ViolationKind::kFaultPairing, r.pid, 0, 0, r.at,
                     "restart record for a process that was not down"});
      }
      down_[r.pid] = 0;
      break;
    case sim::TraceKind::kPartition: {
      const std::pair<ProcessId, ProcessId> edge{std::min(r.pid, r.peer),
                                                 std::max(r.pid, r.peer)};
      const auto it = std::find(cut_edges_.begin(), cut_edges_.end(), edge);
      if (it != cut_edges_.end()) {
        add(fault_, {ViolationKind::kFaultPairing, r.pid, 0, 0, r.at,
                     "partition record for an edge that is already cut"});
      } else {
        cut_edges_.push_back(edge);
      }
      break;
    }
    case sim::TraceKind::kHeal: {
      const std::pair<ProcessId, ProcessId> edge{std::min(r.pid, r.peer),
                                                 std::max(r.pid, r.peer)};
      const auto it = std::find(cut_edges_.begin(), cut_edges_.end(), edge);
      if (it == cut_edges_.end()) {
        add(fault_, {ViolationKind::kFaultPairing, r.pid, 0, 0, r.at,
                     "heal record for an edge that was not cut"});
      } else {
        cut_edges_.erase(it);
      }
      break;
    }
    default:
      break;
  }
}

/// With the crash replay live, a down process must be silent: no sense or
/// send from it, no delivery or receive processed at it — the transport
/// contract says those are dropped. Drop/unreachable records are fine (that
/// is the fault doing its job), as are deliveries to *other* processes of a
/// message sent before the crash.
void StreamChecker::check_down_activity(const sim::TraceRecord& r) {
  const bool is_down = r.pid < down_.size() && down_[r.pid] != 0;
  if (!is_down) return;
  switch (r.kind) {
    case sim::TraceKind::kSense:
    case sim::TraceKind::kSend:
      add(fault_, {ViolationKind::kActivityWhileDown, r.pid, 0, r.seq, r.at,
                   std::string(sim::to_string(r.kind)) +
                       " record from a process inside its crash window"});
      break;
    case sim::TraceKind::kDeliver:
    case sim::TraceKind::kReceive:
      add(fault_, {ViolationKind::kActivityWhileDown, r.pid, 0, r.seq, r.at,
                   std::string(sim::to_string(r.kind)) +
                       " record at a process inside its crash window "
                       "(the transport must drop these)"});
      break;
    default:
      break;
  }
}

/// Bound mode: steps the record's process to the execution event it names,
/// (type, seq), and replays that event with the record's entry. Events
/// before it are catch-up. If no matching event remains, the record has no
/// execution event: flags kUnmatchedSend/kUnmatchedReceive and consumes
/// nothing.
void StreamChecker::advance(const sim::TraceRecord& r, core::EventType type,
                            Sent* entry) {
  const auto& claimed = events(r.pid);
  std::size_t target = states_[r.pid].cursor;
  while (target < claimed.size() && !(claimed[target].type == type &&
                                      claimed[target].message_seq == r.seq)) {
    target++;
  }
  if (target == claimed.size()) {
    const auto kind = type == core::EventType::kReceive
                          ? ViolationKind::kUnmatchedReceive
                          : ViolationKind::kUnmatchedSend;
    add(hb_, {kind, r.pid, 0, r.seq, r.at,
              std::string("trace record has no matching ") +
                  core::to_string(type) + " event in the execution"});
    return;
  }
  catch_up(r.pid, target);
  consume_one(r.pid, entry, /*synced_with_trace=*/true);
}

/// Consumes `p`'s execution events before index `end` with no record of
/// their own. Internal compute/actuate events are expected there; a
/// message-bearing one lost its record and is flagged kUntracedEvent.
void StreamChecker::catch_up(ProcessId p, std::size_t end) {
  while (states_[p].cursor < end) {
    const core::ProcessEvent& e = events(p)[states_[p].cursor];
    if (e.type != core::EventType::kCompute &&
        e.type != core::EventType::kActuate) {
      add(hb_, {ViolationKind::kUntracedEvent, p, e.local_index,
                e.message_seq, e.clocks.true_time,
                std::string(core::to_string(e.type)) +
                    " event has no record in the trace"});
    }
    consume_one(p, nullptr, /*synced_with_trace=*/false);
  }
}

/// Processes one execution event of `p` against every oracle. `entry` is
/// the entry its record made (send, sense) or matched (receive); catch-up
/// events have none. `synced_with_trace` is true when this event is being
/// consumed by its own trace record, i.e. the strobe oracle state is
/// exactly current — only then are the strobe clocks compared (catch-up
/// consumption has ambiguous ordering against strobe deliveries).
void StreamChecker::consume_one(ProcessId p, Sent* entry,
                                bool synced_with_trace) {
  OracleState& s = states_[p];
  const core::ProcessEvent& e = events(p)[s.cursor++];
  check_physical(p, e);
  check_lamport_program_order(p, e);
  lamport_.events_checked++;

  switch (e.type) {
    case core::EventType::kReceive: {
      if (entry == nullptr || entry->vector.size() != s.causal_vc.size()) {
        // No send stamps to merge — the gap is already flagged. Resync the
        // oracle to the claimed stamps so one severed edge does not
        // cascade into mismatch reports for every later event.
        if (e.clocks.causal_vector.size() == s.causal_vc.size()) {
          s.causal_vc = e.clocks.causal_vector;
        }
        s.lamport_floor = e.clocks.lamport.value;
        return;
      }
      // VC3: merge the sender's oracle stamp, then tick own component.
      s.causal_vc.merge(entry->vector);
      if (p < s.causal_vc.size()) s.causal_vc[p]++;
      // Lamport message edge: C(receive) must exceed C(send).
      if (e.clocks.lamport.value <= entry->scalar) {
        add(lamport_,
            {ViolationKind::kLamportOrder, p, e.local_index, e.message_seq,
             e.clocks.true_time,
             "C(receive)=" + std::to_string(e.clocks.lamport.value) +
                 " not greater than C(send)=" + std::to_string(entry->scalar)});
      }
      break;
    }
    case core::EventType::kSend:
      if (p < s.causal_vc.size()) s.causal_vc[p]++;  // VC2
      if (entry != nullptr) {
        entry->scalar = e.clocks.lamport.value;
        entry->vector = s.causal_vc;
      }
      break;
    case core::EventType::kSense: {
      if (p < s.causal_vc.size()) s.causal_vc[p]++;  // VC1
      // SSC1/SVC1: tick the strobe oracles and stamp the broadcast.
      s.strobe_scalar++;
      if (p < s.strobe_vc.size()) s.strobe_vc[p]++;
      if (entry != nullptr) {
        entry->scalar = s.strobe_scalar;
        entry->vector = s.strobe_vc;
      }
      if (synced_with_trace) {
        strobe_scalar_.events_checked++;
        if (e.clocks.strobe_scalar.value != s.strobe_scalar) {
          add(strobe_scalar_,
              {ViolationKind::kStrobeScalarMismatch, p, e.local_index,
               e.message_seq, e.clocks.true_time,
               "claimed " + std::to_string(e.clocks.strobe_scalar.value) +
                   " != SSC replay " + std::to_string(s.strobe_scalar)});
        }
        strobe_vector_.events_checked++;
        if (e.clocks.strobe_vector != s.strobe_vc) {
          add(strobe_vector_,
              {ViolationKind::kStrobeVectorMismatch, p, e.local_index,
               e.message_seq, e.clocks.true_time,
               "claimed " + e.clocks.strobe_vector.to_string() +
                   " != SVC replay " + s.strobe_vc.to_string()});
        }
      }
      senses_.push_back(
          {e.clocks.true_time, p, e.local_index, e.clocks.strobe_vector});
      break;
    }
    case core::EventType::kCompute:
    case core::EventType::kActuate:
      if (p < s.causal_vc.size()) s.causal_vc[p]++;  // VC1
      break;
  }

  vector_.events_checked++;
  if (e.clocks.causal_vector != s.causal_vc) {
    add(vector_, {ViolationKind::kVectorMismatch, p, e.local_index,
                  e.message_seq, e.clocks.true_time,
                  "claimed " + e.clocks.causal_vector.to_string() +
                      " != oracle " + s.causal_vc.to_string()});
  }
}

/// Lamport program-order edge: C strictly increases at every local event
/// (all five event types tick).
void StreamChecker::check_lamport_program_order(ProcessId p,
                                                const core::ProcessEvent& e) {
  OracleState& s = states_[p];
  if (e.clocks.lamport.value <= s.lamport_floor) {
    add(lamport_, {ViolationKind::kLamportOrder, p, e.local_index,
                   e.message_seq, e.clocks.true_time,
                   "C=" + std::to_string(e.clocks.lamport.value) +
                       " not greater than predecessor C=" +
                       std::to_string(s.lamport_floor)});
  }
  s.lamport_floor = e.clocks.lamport.value;
}

void StreamChecker::check_physical(ProcessId p, const core::ProcessEvent& e) {
  epsilon_.events_checked++;
  const Duration synced_err =
      (e.clocks.physical_synced - e.clocks.true_time).abs();
  if (synced_err > cfg_.sync_epsilon) {
    add(epsilon_,
        {ViolationKind::kEpsilonBound, p, e.local_index, 0,
         e.clocks.true_time,
         "|synced - true| = " + std::to_string(synced_err.to_seconds()) +
             "s exceeds epsilon = " +
             std::to_string(cfg_.sync_epsilon.to_seconds()) + "s"});
  }
  drift_.events_checked++;
  Duration local_delta = e.clocks.physical_local - e.clocks.true_time;
  if (cfg_.options.faults != nullptr) {
    // Declared clock faults are compensated exactly — subtract the injected
    // offset and hold the residual to the healthy envelope. An undeclared
    // excursion of the same size still fails.
    local_delta -= cfg_.options.faults->drift_offset(p, e.clocks.true_time);
  }
  const Duration local_err = local_delta.abs();
  const Duration envelope =
      cfg_.drifting.initial_offset.abs() + cfg_.drifting.read_jitter.abs() +
      Duration::from_seconds(std::abs(cfg_.drifting.drift_ppm) * 1e-6 *
                             e.clocks.true_time.to_seconds()) +
      Duration::nanos(1);  // rounding slack on the ppm term
  if (local_err > envelope) {
    add(drift_,
        {ViolationKind::kDriftBound, p, e.local_index, 0,
         e.clocks.true_time,
         "|local - true| = " + std::to_string(local_err.to_seconds()) +
             "s outside the drift envelope " +
             std::to_string(envelope.to_seconds()) + "s"});
  }
}

/// Kopetz-Steiner temporal validity: a strobe delivered after its
/// observation's horizon expired must not feed predicate evaluation.
void StreamChecker::check_validity(const sim::TraceRecord& r,
                                   SimTime sensed_at) {
  if (!cfg_.options.validity_horizon.bounded()) return;
  validity_.events_checked++;
  if (cfg_.options.validity_horizon.expired(sensed_at, r.at)) {
    add(validity_,
        {ViolationKind::kStaleObservation, r.pid, 0, r.seq, r.at,
         "observation sensed at " + std::to_string(sensed_at.to_seconds()) +
             "s delivered at " + std::to_string(r.at.to_seconds()) +
             "s, past its validity horizon of " +
             std::to_string(
                 cfg_.options.validity_horizon.lifetime.to_seconds()) +
             "s"});
  }
}

void StreamChecker::PendingQueue::grow() {
  std::vector<PendingEntry> bigger(std::max<std::size_t>(16, 2 * ring_.size()));
  for (std::size_t i = 0; i < size_; ++i) {
    bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
  }
  ring_ = std::move(bigger);
  head_ = 0;
}

PSN_HOT void StreamChecker::evict_expired(SimTime now) {
  if (cfg_.send_retention == Duration::max()) return;
  while (!pending_order_.empty() &&
         pending_order_.front().at + cfg_.send_retention < now) {
    const PendingEntry entry = pending_order_.front();
    pending_order_.pop_front();
    // Matched entries were already erased from the map; this is the lazy
    // skip for them and the actual eviction for expired ones.
    (entry.strobe ? strobe_sent_ : comp_sent_).erase(entry.seq);
  }
}

/// Strobe partial-order soundness: stamps can only order sense events the
/// way true time did — strobe information travels forward in time, so
/// V(a) < V(b) with true(b) < true(a) is impossible in a correct run.
void StreamChecker::scan_soundness() {
  std::vector<const SenseSample*> picked;
  picked.reserve(std::min(senses_.size(), kMaxPairwiseEvents));
  if (senses_.size() <= kMaxPairwiseEvents) {
    for (const auto& s : senses_) picked.push_back(&s);
  } else {
    const std::size_t stride =
        (senses_.size() + kMaxPairwiseEvents - 1) / kMaxPairwiseEvents;
    for (std::size_t i = 0; i < senses_.size(); i += stride) {
      picked.push_back(&senses_[i]);
    }
  }
  std::sort(picked.begin(), picked.end(),
            [](const SenseSample* a, const SenseSample* b) {
              return a->at < b->at;
            });
  for (std::size_t i = 0; i < picked.size(); ++i) {
    for (std::size_t j = i + 1; j < picked.size(); ++j) {
      if (picked[i]->at == picked[j]->at) continue;  // ties claim nothing
      if (picked[i]->strobe.size() != picked[j]->strobe.size()) continue;
      soundness_.pairs_checked++;
      if (clocks::happens_before(picked[j]->strobe, picked[i]->strobe)) {
        add(soundness_,
            {ViolationKind::kStrobeUnsoundOrder, picked[j]->pid,
             picked[j]->local_index, 0, picked[j]->at,
             "sense at " + std::to_string(picked[j]->at.to_seconds()) +
                 "s strobe-ordered before sense at " +
                 std::to_string(picked[i]->at.to_seconds()) + "s (pid " +
                 std::to_string(picked[i]->pid) + ")"});
      }
    }
  }
  soundness_.events_checked = picked.size();
}

CheckReport StreamChecker::finish() {
  if (bound()) {
    // Drain events past the last trace record (trailing compute/actuate
    // events; anything message-bearing left here was never traced).
    for (ProcessId p = 0; p < cfg_.num_processes; ++p) {
      catch_up(p, events(p).size());
    }
  }
  scan_soundness();

  CheckReport report;
  report.contracts = {std::move(hb_),            std::move(lamport_),
                      std::move(vector_),        std::move(strobe_scalar_),
                      std::move(strobe_vector_), std::move(soundness_),
                      std::move(epsilon_),       std::move(drift_)};
  // The validity contract only joins the report when a horizon is actually
  // configured — the default report stays byte-identical to the original
  // eight-contract form the golden tests pin.
  if (cfg_.options.validity_horizon.bounded()) {
    report.contracts.push_back(std::move(validity_));
  }
  // Likewise the fault-model contract: it only exists for streams that
  // carried fault records, so fault-free reports keep the pinned shape.
  if (saw_fault_records_) report.contracts.push_back(std::move(fault_));
  report.verdict = report.total_violations() > 0 ? Verdict::kViolations
                                                 : Verdict::kClean;
  return report;
}

}  // namespace psn::check
