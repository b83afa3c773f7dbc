#include "net/transport.hpp"

#include <cstdint>
#include <utility>

#include "common/error.hpp"
#include "common/hot.hpp"

namespace psn::net {

const char* to_string(MessageKind k) {
  switch (k) {
    case MessageKind::kComputation: return "computation";
    case MessageKind::kStrobe: return "strobe";
    case MessageKind::kSync: return "sync";
    case MessageKind::kActuation: return "actuation";
  }
  return "?";
}

const char* to_string(ClockMode m) {
  switch (m) {
    case ClockMode::kScalarStrobe: return "scalar";
    case ClockMode::kVectorStrobe: return "vector";
    case ClockMode::kPhysical: return "physical";
  }
  return "?";
}

namespace {
constexpr std::size_t kObjectIdBytes = 4;
constexpr std::size_t kAttrIdBytes = 4;
constexpr std::size_t kValueBytes = 8;
constexpr std::size_t kTimestampBytes = 8;
constexpr std::size_t kPidBytes = 4;

std::size_t sense_report_base() {
  return kWireHeaderBytes + kObjectIdBytes + kAttrIdBytes + kValueBytes;
}
}  // namespace

std::size_t SenseReportPayload::wire_bytes_scalar_mode() const {
  return sense_report_base() + kTimestampBytes + kPidBytes;  // scalar + pid
}

std::size_t SenseReportPayload::wire_bytes_vector_mode() const {
  return sense_report_base() + strobe_vector.wire_size() + kPidBytes;
}

std::size_t SenseReportPayload::wire_bytes_physical_mode() const {
  return sense_report_base() + kTimestampBytes;
}

std::size_t ComputationPayload::wire_bytes() const {
  return kWireHeaderBytes + clocks::ScalarStamp::wire_size() + kPidBytes +
         stamps.causal_vector.wire_size() + body_bytes;
}

std::size_t wire_bytes(const Message& msg, ClockMode mode) {
  if (msg.payload.holds<SenseReportPayload>()) {
    const SenseReportPayload& report = msg.sense_report();
    switch (mode) {
      case ClockMode::kScalarStrobe: return report.wire_bytes_scalar_mode();
      case ClockMode::kVectorStrobe: return report.wire_bytes_vector_mode();
      case ClockMode::kPhysical: return report.wire_bytes_physical_mode();
    }
  }
  if (msg.payload.holds<ComputationPayload>()) {
    return msg.computation().wire_bytes();
  }
  return kWireHeaderBytes + 16;  // actuation: command id + issue time
}

std::size_t MessageStats::StrobeModeBytes::of(ClockMode mode) const {
  switch (mode) {
    case ClockMode::kScalarStrobe: return scalar;
    case ClockMode::kVectorStrobe: return vector;
    case ClockMode::kPhysical: return physical;
  }
  return 0;
}

MessageStats::KindStats& MessageStats::KindStats::operator+=(
    const KindStats& other) {
  sent += other.sent;
  delivered += other.delivered;
  dropped += other.dropped;
  unreachable += other.unreachable;
  bytes_sent += other.bytes_sent;
  return *this;
}

MessageStats::KindStats MessageStats::total() const {
  KindStats out;
  for (const auto& k : per_kind_) out += k;
  return out;
}

MessageStats& MessageStats::operator+=(const MessageStats& other) {
  for (std::size_t i = 0; i < per_kind_.size(); ++i) {
    per_kind_[i] += other.per_kind_[i];
  }
  strobe_mode_bytes.scalar += other.strobe_mode_bytes.scalar;
  strobe_mode_bytes.vector += other.strobe_mode_bytes.vector;
  strobe_mode_bytes.physical += other.strobe_mode_bytes.physical;
  drops.loss += other.drops.loss;
  drops.crashed_dst += other.drops.crashed_dst;
  drops.partition += other.drops.partition;
  drops.duty_cycle += other.drops.duty_cycle;
  return *this;
}

Transport::Transport(sim::Simulation& sim, Overlay overlay,
                     std::unique_ptr<DelayModel> delay,
                     std::unique_ptr<LossModel> loss, Rng rng)
    : sim_(sim),
      routes_(std::move(overlay)),
      delay_(std::move(delay)),
      loss_(std::move(loss)),
      handlers_(routes_.overlay().size()),
      // One draw from the injected substream seeds every per-message Rng.
      // Shard replicas built from the same master seed get the same value,
      // so a message's delay/loss draws match wherever its sender lives.
      msg_seed_(rng()),
      per_source_next_(routes_.overlay().size(), 0),
      wake_(routes_.overlay().size()) {
  PSN_CHECK(delay_ != nullptr, "transport needs a delay model");
  PSN_CHECK(loss_ != nullptr, "transport needs a loss model");
}

void Transport::set_fault_schedule(const sim::FaultSchedule* faults) {
  faults_ = faults;
  partitions_applied_ = 0;
  if (faults_ == nullptr) return;
  // Room for every cut at once, so replaying transitions never allocates.
  routes_.reserve(faults_->plan().partitions.size());
}

PSN_HOT void Transport::apply_partition_epoch() {
  const std::size_t epoch = faults_->partition_epoch(sim_.now());
  while (partitions_applied_ < epoch) {
    const sim::PartitionTransition& t =
        faults_->partition_transitions()[partitions_applied_++];
    if (t.cut) {
      routes_.cut(t.a, t.b);
    } else {
      routes_.heal(t.a, t.b);
    }
  }
}

void Transport::set_wake_schedule(ProcessId pid, const DutyCycle& schedule) {
  PSN_CHECK(pid < wake_.size(), "pid out of range");
  PSN_CHECK(schedule.valid(), "invalid duty cycle schedule");
  wake_[pid] = schedule;
}

void Transport::register_handler(ProcessId pid, Handler handler) {
  PSN_CHECK(pid < handlers_.size(), "pid out of range");
  PSN_CHECK(static_cast<bool>(handler), "null handler");
  handlers_[pid] = std::move(handler);
}

PSN_HOT std::uint64_t Transport::next_seq_for(ProcessId src) {
  // Per-source allocation with stride |P|: source s's n-th message gets
  // n·|P| + s + 1. Ids stay run-unique and 1-based, but no longer depend on
  // the global send interleaving — shard the run any way you like and every
  // message keeps its id.
  const auto n = static_cast<std::uint64_t>(overlay().size());
  return per_source_next_[src]++ * n + src + 1;
}

PSN_HOT std::uint64_t Transport::unicast(Message msg) {
  PSN_CHECK(msg.src < overlay().size() && msg.dst < overlay().size(),
            "message endpoints out of range");
  PSN_CHECK(msg.src != msg.dst, "self-addressed message");
  msg.seq = next_seq_for(msg.src);
  const std::uint64_t seq = msg.seq;
  const std::size_t bytes = wire_bytes(msg, clock_mode_);
  transmit(std::move(msg), bytes);
  return seq;
}

PSN_HOT std::uint64_t Transport::broadcast(Message msg) {
  PSN_CHECK(msg.src < overlay().size(), "broadcast source out of range");
  msg.seq = next_seq_for(msg.src);  // one logical message; copies share it
  const std::uint64_t seq = msg.seq;
  // Every fan-out copy shares msg's immutable payload cell (one stamp
  // allocation per broadcast, not one per recipient) and — since wire size
  // is a pure function of payload, kind, and mode — the same byte price.
  const std::size_t bytes = wire_bytes(msg, clock_mode_);
  for (ProcessId p = 0; p < overlay().size(); ++p) {
    if (p == msg.src) continue;
    Message copy = msg;
    copy.dst = p;
    transmit(std::move(copy), bytes);
  }
  return seq;
}

PSN_HOT void Transport::transmit(Message msg, std::size_t bytes) {
  // Trace records carry the wire size in 32 bits.
  PSN_CHECK(bytes <= UINT32_MAX, "wire size does not fit a trace record");
  const auto wire_bytes = static_cast<std::uint32_t>(bytes);
  auto& ks = stats_.of(msg.kind);
  const auto kind_index = static_cast<int>(msg.kind);

  // Partition transitions with at <= now must be in the mask before any
  // routing decision — reachability is then a pure function of send time.
  if (faults_ != nullptr) apply_partition_epoch();

  // Reachability first: a message with no route never leaves the node, so
  // it must not inflate sent/bytes totals (partition scenarios otherwise
  // overstate radio cost). Unreachable is its own tally. With a cut window
  // active the lost route is attributed to the partition (the note feeds
  // the fault-aware audit's span builder).
  const std::size_t hops = routes_.hop_distance(msg.src, msg.dst);
  if (hops == SIZE_MAX) {
    ks.unreachable++;
    const bool partitioned = faults_ != nullptr && routes_.active() > 0;
    if (partitioned) stats_.drops.partition++;
    if (sim::TraceRecorder* tr = sim_.trace()) {
      static const Name kPartition("partition");
      tr->record({sim_.now(), sim::TraceKind::kUnreachable, msg.src, msg.dst,
                  kind_index, 0, partitioned ? kPartition : Name(),
                  msg.seq});
    }
    return;
  }

  ks.sent++;
  ks.bytes_sent += bytes;
  if (msg.kind == MessageKind::kStrobe) {
    // Shadow per-mode totals: one run answers E7 for all three options.
    const SenseReportPayload& report = msg.sense_report();
    stats_.strobe_mode_bytes.scalar += report.wire_bytes_scalar_mode();
    stats_.strobe_mode_bytes.vector += report.wire_bytes_vector_mode();
    stats_.strobe_mode_bytes.physical += report.wire_bytes_physical_mode();
  }
  msg.sent_at = sim_.now();
  if (sim::TraceRecorder* tr = sim_.trace()) {
    tr->record({sim_.now(), sim::TraceKind::kSend, msg.src, msg.dst,
                kind_index, wire_bytes, {}, msg.seq});
  }

  // A private Rng per copy, keyed by (transport seed, seq, dst): delay and
  // loss draws depend only on the message's identity, never on how sends
  // from different processes interleave globally. This is what lets shards
  // transmit concurrently yet byte-match the serial run (DESIGN.md §14).
  Rng hop_rng(mix64(msg_seed_ ^ mix64(msg.seq) ^
                    (0x9e3779b97f4a7c15ULL *
                     (static_cast<std::uint64_t>(msg.dst) + 1))));
  Duration total = Duration::zero();
  for (std::size_t h = 0; h < hops; ++h) {
    if (loss_->drop(sim_.now(), hop_rng)) {
      ks.dropped++;
      stats_.drops.loss++;
      if (sim::TraceRecorder* tr = sim_.trace()) {
        tr->record({sim_.now(), sim::TraceKind::kDrop, msg.src, msg.dst,
                    kind_index, wire_bytes, {}, msg.seq});
      }
      return;
    }
    total += delay_->sample(hop_rng);
  }
  const SimTime raw_at = sim_.now() + total;
  SimTime at = raw_at;
  // Duty cycling: an arrival during the receiver's sleep window waits at
  // the MAC until the next wake edge.
  if (wake_[msg.dst].has_value()) at = wake_[msg.dst]->next_wake(at);
  if (fifo_) {
    SimTime& last = last_delivery_[{msg.src, msg.dst}];
    if (at <= last) at = last + Duration::nanos(1);
    last = at;
  }
  // A delivery landing inside the destination's crash window is dropped —
  // decided here on the sender's side (like the duty clamp above), so the
  // outcome is a pure function of (schedule, message) at any shard layout.
  // Cause "duty-cycle" marks the arrival that would have been fine but for
  // a sleep deferral into the window; everything else is "crash".
  if (faults_ != nullptr && faults_->down(msg.dst, at)) {
    const bool deferred_into_crash =
        wake_[msg.dst].has_value() && !faults_->down(msg.dst, raw_at);
    ks.dropped++;
    if (deferred_into_crash) {
      stats_.drops.duty_cycle++;
    } else {
      stats_.drops.crashed_dst++;
    }
    if (sim::TraceRecorder* tr = sim_.trace()) {
      static const Name kDutyCycle("duty-cycle");
      static const Name kCrash("crash");
      tr->record({sim_.now(), sim::TraceKind::kDrop, msg.src, msg.dst,
                  kind_index, wire_bytes,
                  deferred_into_crash ? kDutyCycle : kCrash, msg.seq});
    }
    return;
  }
  const std::uint64_t tie = delivery_tie(msg.seq, msg.dst);
  if (remote_route_.is_remote && remote_route_.is_remote(msg.dst)) {
    remote_route_.enqueue(at, tie, std::move(msg), bytes);
    return;
  }
  // Δ = 0 (the synchronous model) delivers inline: the strobe must be merged
  // at every receiver before any later event at this instant, which is both
  // the paper's instantaneous-delivery semantics and the order the canonical
  // trace records it — deferring through the scheduler would let co-instant
  // events queued earlier run first and the checker's replay would diverge
  // from the claimed clocks.
  if (at == sim_.now()) {
    deliver_now(std::move(msg), bytes);
    return;
  }
  auto deliver = [this, msg = std::move(msg), bytes]() mutable {
    deliver_now(std::move(msg), bytes);
  };
  // The whole point of the shared payload: the per-recipient delivery
  // closure is small enough to live inside the scheduler's slab slot, so a
  // broadcast fan-out schedules N deliveries with zero heap allocations.
  static_assert(sim::Scheduler::Callback::stores_inline<decltype(deliver)>(),
                "delivery closure must fit the scheduler's inline buffer");
  sim_.scheduler().schedule_at(at, tie, std::move(deliver));
}

std::uint64_t Transport::delivery_tie(std::uint64_t seq, ProcessId dst) {
  PSN_CHECK(dst < (1u << 20), "pid too large for delivery-tie encoding");
  return (seq << 20) | dst;
}

PSN_HOT void Transport::deliver_now(Message msg, std::size_t bytes) {
  const ProcessId dst = msg.dst;
  auto& stats = stats_.of(msg.kind);
  PSN_CHECK(static_cast<bool>(handlers_[dst]),
            "no handler registered for destination process");
  msg.delivered_at = sim_.now();
  stats.delivered++;
  delivery_delay_ms_.add((msg.delivered_at - msg.sent_at).to_millis());
  if (sim::TraceRecorder* tr = sim_.trace()) {
    tr->record({sim_.now(), sim::TraceKind::kDeliver, dst, msg.src,
                static_cast<int>(msg.kind), static_cast<std::uint32_t>(bytes),
                {}, msg.seq});
  }
  handlers_[dst](msg);
}

void Transport::inject_delivery(SimTime at, std::uint64_t tie, Message msg,
                                std::size_t bytes) {
  PSN_CHECK(at >= sim_.now(), "injected delivery lands in this shard's past");
  auto deliver = [this, msg = std::move(msg), bytes]() mutable {
    deliver_now(std::move(msg), bytes);
  };
  static_assert(sim::Scheduler::Callback::stores_inline<decltype(deliver)>(),
                "delivery closure must fit the scheduler's inline buffer");
  sim_.scheduler().schedule_at(at, tie, std::move(deliver));
}

}  // namespace psn::net
