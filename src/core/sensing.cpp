#include "core/sensing.hpp"

#include "common/error.hpp"

namespace psn::core {

void SensingMap::assign(world::ObjectId object, Name attribute,
                        ProcessId sensor) {
  PSN_CHECK(sensor != kNoProcess, "invalid sensor pid");
  PSN_CHECK(object != world::kNoObject, "invalid world object id");
  PSN_CHECK(sensor_of(object, attribute) == kNoProcess,
            "(object, attribute) already assigned to a sensor");
  if (object >= by_object_.size()) by_object_.resize(object + std::size_t{1});
  by_object_[object].emplace_back(attribute, sensor);
}

ProcessId SensingMap::sensor_of(world::ObjectId object, Name attribute) const {
  if (object >= by_object_.size()) return kNoProcess;
  for (const auto& [name, sensor] : by_object_[object]) {
    if (name == attribute) return sensor;
  }
  return kNoProcess;
}

SensorNode::SensorNode(ProcessId pid, std::size_t n, sim::Simulation& sim,
                       net::Transport& transport,
                       clocks::ClockBundleConfig clock_config, Rng rng)
    : pid_(pid),
      sim_(sim),
      transport_(transport),
      bundle_(pid, n, clock_config, rng) {}

void SensorNode::record_event(EventType type, Name attribute, double value,
                              world::WorldEventIndex world_event,
                              std::uint64_t message_seq) {
  ProcessEvent ev;
  ev.pid = pid_;
  ev.type = type;
  ev.local_index = events_.size() + 1;
  ev.clocks = bundle_.snapshot(sim_.now());
  if (faults_ != nullptr) {
    ev.clocks.physical_local += faults_->drift_offset(pid_, sim_.now());
  }
  ev.attribute = attribute;
  ev.value = value;
  ev.world_event = world_event;
  ev.message_seq = message_seq;
  events_.push_back(std::move(ev));
}

void SensorNode::enable_observation_log(std::size_t n, Duration delta_bound,
                                        ValidityHorizon validity) {
  observing_ = true;
  local_log_.num_processes = n;
  local_log_.delta_bound = delta_bound;
  local_log_.validity = validity;
}

void SensorNode::sense(const world::WorldEvent& ev) {
  // A crashed node's sensor is dark: no n event, no strobe, no sequence id
  // consumed (seq allocation is per-source-strided, so skipping here leaves
  // every other message's id untouched — shard layouts stay byte-identical).
  if (faults_ != nullptr && faults_->down(pid_, sim_.now())) return;

  // SSC1/SVC1 (and SC1/VC1 for the causal clocks) fire before the snapshot,
  // so the recorded stamp is the post-tick value — the one broadcast.
  const clocks::StrobeOut strobes = bundle_.on_sense_event();

  const SimTime now = sim_.now();
  net::Message msg;
  msg.src = pid_;
  msg.kind = net::MessageKind::kStrobe;
  net::SenseReportPayload payload;
  payload.object = ev.object;
  payload.attribute = ev.attribute;
  payload.value = ev.value;
  payload.strobe_scalar = strobes.scalar;
  payload.strobe_vector = strobes.vector;
  payload.synced_timestamp = bundle_.synced().read(now);
  payload.local_timestamp = bundle_.drifting().read(now);
  if (faults_ != nullptr) {
    // Declared clock faults shift the hardware reading deterministically;
    // the checker compensates with the same pure function of (pid, t).
    payload.local_timestamp += faults_->drift_offset(pid_, now);
  }
  payload.true_sense_time = now;
  payload.world_event = ev.index;
  if (observing_) {
    // The sensor observes its own sense instantly (zero-delay self-report).
    ReceivedUpdate u;
    u.delivered_at = now;
    u.reporter = pid_;
    u.report = payload;
    u.validity = local_log_.validity;
    local_log_.updates.push_back(std::move(u));
  }
  msg.payload = std::move(payload);
  // Broadcast before recording so the n event can carry the strobe's seq
  // (the transport assigns it). Deliveries are scheduler events, so the
  // recorded order is still broadcast sends, this sense, then deliveries.
  std::uint64_t seq = 0;
  if (report_target_ == kNoProcess) {
    seq = transport_.broadcast(std::move(msg));
  } else {
    // Report-to-root deployment (city scale): one unicast up the star
    // instead of an O(n) system-wide strobe fan-out per sense.
    msg.dst = report_target_;
    seq = transport_.unicast(std::move(msg));
  }

  record_event(EventType::kSense, ev.attribute, ev.value.numeric(), ev.index,
               seq);
  if (sim::TraceRecorder* tr = sim_.trace()) {
    tr->record({now, sim::TraceKind::kSense, pid_, kNoProcess, -1, 0,
                ev.attribute, seq});
  }
}

void SensorNode::send_computation(ProcessId dst, const std::string& tag) {
  const clocks::PiggybackStamps stamps = bundle_.on_send();
  net::Message msg;
  msg.src = pid_;
  msg.dst = dst;
  msg.kind = net::MessageKind::kComputation;
  net::ComputationPayload payload;
  payload.stamps = stamps;
  payload.tag = tag;
  msg.payload = std::move(payload);
  const std::uint64_t seq = transport_.unicast(std::move(msg));
  record_event(EventType::kSend, {}, 0.0, world::kNoWorldEvent, seq);
}

void SensorNode::compute() {
  bundle_.on_internal_event();
  record_event(EventType::kCompute);
}

void SensorNode::actuate(world::WorldModel& world, world::ObjectId object,
                         Name attribute, world::AttributeValue value) {
  bundle_.on_internal_event();
  record_event(EventType::kActuate);
  world.emit(object, attribute, value);
}

void SensorNode::on_message(const net::Message& msg) {
  switch (msg.kind) {
    case net::MessageKind::kStrobe: {
      // SSC2/SVC2: merge, no tick, and the causal clocks are untouched —
      // strobes are control messages (paper §4.2.3).
      const auto& report = msg.sense_report();
      bundle_.on_strobe(report.strobe_scalar, report.strobe_vector);
      if (observing_) {
        ReceivedUpdate u;
        u.delivered_at = sim_.now();
        u.reporter = msg.src;
        u.report = report;
        u.validity = local_log_.validity;
        u.seq = msg.seq;
        local_log_.updates.push_back(std::move(u));
      }
      break;
    }
    case net::MessageKind::kComputation: {
      bundle_.on_receive(msg.computation().stamps);  // SC3/VC3
      record_event(EventType::kReceive, {}, 0.0, world::kNoWorldEvent,
                   msg.seq);
      if (sim::TraceRecorder* tr = sim_.trace()) {
        tr->record({sim_.now(), sim::TraceKind::kReceive, pid_, msg.src,
                    static_cast<int>(msg.kind), 0, {}, msg.seq});
      }
      break;
    }
    case net::MessageKind::kActuation: {
      // Apply the command to the world plane as an a-event. Requires the
      // world to have been bound (ShardedPervasiveSystem::world() does this).
      const auto& cmd = msg.actuation();
      PSN_CHECK(world_ != nullptr,
                "actuation command received but no world bound");
      actuate(*world_, cmd.object, cmd.attribute, cmd.value);
      break;
    }
    case net::MessageKind::kSync:
      // Sync traffic is modeled analytically (clocks/sync_protocols).
      break;
  }
}

RootMonitor::RootMonitor(ProcessId pid, std::size_t n, sim::Simulation& sim)
    : pid_(pid), sim_(sim) {
  log_.num_processes = n;
}

void RootMonitor::on_message(const net::Message& msg) {
  if (msg.kind != net::MessageKind::kStrobe) return;
  const auto& report = msg.sense_report();
  ReceivedUpdate u;
  u.delivered_at = sim_.now();
  u.reporter = msg.src;
  u.report = report;
  u.validity = log_.validity;
  u.seq = msg.seq;
  log_.updates.push_back(std::move(u));
  const std::size_t index = log_.updates.size() - 1;
  for (const auto& observer : observers_) {
    observer(log_.updates[index], index);
  }
}

}  // namespace psn::core
