#include "core/sharded_system.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "net/transport.hpp"
#include "sim/scheduler.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"

namespace psn::core {

/// One space partition: a complete Simulation + Transport stack, the shard's
/// range of sensors, and a replica of the root monitor P_0.
struct ShardedPervasiveSystem::Shard {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<net::Transport> transport;
  std::unique_ptr<RootMonitor> root;
  std::vector<std::unique_ptr<SensorNode>> sensors;  ///< owned pids only
  ProcessId sensor_base = 1;                         ///< pid of sensors[0]
  /// The ring SimConfig::trace_capacity asks for: what an export keeps of
  /// the records drained from the sim's trace buffer (nullptr = none).
  std::unique_ptr<sim::TraceRecorder> kept;

  SensorNode& sensor(ProcessId pid) const {
    return *sensors[pid - sensor_base];
  }
};

/// Replays one sensor's subsequence of the pre-rolled world timeline as a
/// self-rescheduling timer chain inside the owner shard. Chaining (instead
/// of scheduling the whole subsequence up front) keeps the calendar small
/// and gives every pid the same schedule-on-execute pattern at every K.
struct ShardedPervasiveSystem::ReplayCursor {
  SensorNode* node = nullptr;
  sim::Scheduler* scheduler = nullptr;
  const std::vector<world::WorldEvent>* timeline = nullptr;
  std::vector<std::uint32_t> events;  ///< indices into *timeline, ascending
  std::size_t next = 0;

  void schedule_next() {
    auto fire_cb = [this] { fire(); };
    static_assert(sim::Scheduler::Callback::stores_inline<decltype(fire_cb)>(),
                  "replay timer must not allocate");
    // Tie 0: sense timers run before any same-instant delivery, the same
    // canonical policy the serial scheduler applies.
    scheduler->schedule_at((*timeline)[events[next]].when, /*tie=*/0,
                           std::move(fire_cb));
  }
  void fire() {
    node->sense((*timeline)[events[next]]);
    ++next;
    if (next < events.size()) schedule_next();
  }
};

namespace {

/// Records a K = 1 traced run buffers before it drains them: 160 KB.
constexpr std::size_t kStreamBatch = std::size_t{1} << 12;

/// The share of `total` one of `shards` shards pre-sizes a buffer for:
/// contiguous partitioning keeps it near total/K, padded 25% for imbalance.
std::size_t per_shard_share(std::size_t total, std::size_t shards) {
  return total / shards + total / (4 * shards) + 64;
}

[[noreturn]] void reject(const std::string& why) {
  throw ConfigError("system config: " + why);
}

bool is_probability(double p) { return p >= 0.0 && p <= 1.0; }

ShardedSystemConfig admitted(ShardedSystemConfig config) {
  validate(config);
  return config;
}

}  // namespace

void validate(const ShardedSystemConfig& config) {
  const SystemConfig& base = config.base;
  const std::size_t n = base.num_sensors + 1;
  if (base.num_sensors == 0) reject("need at least one sensor process");
  if (base.sim.horizon <= SimTime::zero()) {
    reject("the horizon must be positive");
  }
  if (base.delta < Duration::zero()) {
    reject("delta must be >= 0, got " + base.delta.to_string());
  }
  if (base.delta == Duration::zero() &&
      (base.delay_kind == DelayKind::kUniformBounded ||
       base.delay_kind == DelayKind::kExponential)) {
    reject(
        "delta must be positive under the uniform and exponential delay "
        "kinds (use the synchronous kind for the Delta = 0 model)");
  }
  if (base.clock_config.sync_epsilon < Duration::zero()) {
    reject("sync epsilon must be >= 0, got " +
           base.clock_config.sync_epsilon.to_string());
  }
  if (!is_probability(base.loss_probability)) {
    reject("the loss probability must be in [0, 1]");
  }
  if (base.gilbert_elliott) {
    const auto& ge = *base.gilbert_elliott;
    for (const double p : {ge.p_good_to_bad, ge.p_bad_to_good, ge.loss_in_good,
                           ge.loss_in_bad}) {
      if (!is_probability(p)) {
        reject("Gilbert-Elliott parameters must be in [0, 1]");
      }
    }
  }
  if (base.duty_cycle && !base.duty_cycle->valid()) {
    reject("a duty cycle needs 0 < window <= period and 0 <= phase < period");
  }
  if (config.shards == 0 || config.shards > n) {
    reject("shards must be in [1, n] (got " + std::to_string(config.shards) +
           " for n = " + std::to_string(n) +
           " processes); pick a shard count in that range");
  }
  if (config.pool_threads == 0) reject("pool threads must be >= 1");
  if (config.shards > 1) {
    // Conservative lookahead: the window W must be covered by the minimum
    // one-hop delay, or a send inside a window could land inside the same
    // window on another shard.
    if (make_delay_model(base)->min_delay() <= Duration::zero()) {
      reject(
          "sharded execution needs a positive minimum one-hop delay and this "
          "delay model's is zero; use the uniform or fixed delay with a "
          "positive delta, or run one shard");
    }
    if (base.fifo_channels) {
      reject("FIFO/causal delivery is unsupported with shards; drop FIFO "
             "channels or run one shard");
    }
    if (base.gilbert_elliott) {
      reject(
          "Gilbert-Elliott loss advances per transmission and is not "
          "shard-stable; use loss windows or run one shard");
    }
  }
  // The fault plan: its pids name processes, sim::FaultSchedule's own rules
  // hold, and every cut edge exists in the topology the system will build.
  const sim::FaultPlan& plan = base.faults;
  const auto check_pid = [n](ProcessId pid) {
    if (pid >= n) {
      throw ConfigError("fault plan: pid " + std::to_string(pid) +
                        " is not a process (n = " + std::to_string(n) +
                        "); name a pid below n");
    }
  };
  for (const sim::CrashWindow& w : plan.crashes) check_pid(w.pid);
  for (const sim::ClockFaultWindow& w : plan.clock_faults) check_pid(w.pid);
  for (const sim::PartitionWindow& w : plan.partitions) {
    check_pid(w.a);
    check_pid(w.b);
  }
  const sim::FaultSchedule compiled(plan);  // throws on the plan's own rules
  for (const sim::PartitionWindow& w : plan.partitions) {
    if (!net::Overlay::has_edge(base.topology, n, w.a, w.b)) {
      throw ConfigError("fault plan: cut edge " + std::to_string(w.a) + "-" +
                        std::to_string(w.b) +
                        " is not in the configured topology; cut an overlay "
                        "edge");
    }
  }
}

ShardedPervasiveSystem::ShardedPervasiveSystem(ShardedSystemConfig config)
    : config_(admitted(std::move(config))),
      n_(config_.base.num_sensors + 1),
      topology_(net::Overlay::build(config_.base.topology, n_)),
      faults_(config_.base.faults.empty()
                  ? nullptr
                  : std::make_unique<sim::FaultSchedule>(config_.base.faults)),
      shard_map_(net::ShardMap::partition(topology_, config_.shards)) {
  const std::unique_ptr<net::DelayModel> delay = make_delay_model(config_.base);
  const Duration hop = delay->bound();
  if (hop != Duration::max()) {
    delta_bound_ = hop * static_cast<std::int64_t>(topology_.diameter());
  }
  // The window W is the minimum one-hop delay, positive at K > 1.
  if (config_.shards > 1) window_ = delay->min_delay();
  outboxes_.resize(config_.shards);
  for (auto& row : outboxes_) row.resize(config_.shards);
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shards_.push_back(build_shard(s));
  }
}

ShardedPervasiveSystem::~ShardedPervasiveSystem() = default;

std::unique_ptr<ShardedPervasiveSystem::Shard>
ShardedPervasiveSystem::build_shard(std::size_t s) {
  const SystemConfig& base = config_.base;
  auto sh = std::make_unique<Shard>();
  // Every shard's Simulation is seeded from the same SimConfig, so named
  // RNG substreams (transport, clock-per-pid, duty_phase) draw identical
  // values in every shard — replicated state is bit-identical by build.
  sh->sim = std::make_unique<sim::Simulation>(base.sim);
  sh->transport = std::make_unique<net::Transport>(
      *sh->sim, topology_,
      make_delay_model(base), make_loss_model(base),
      sh->sim->rng_for("transport"));
  sh->transport->set_clock_mode(base.clock_mode);
  sh->transport->set_fifo_channels(base.fifo_channels);
  // Every shard installs the shared fault schedule: crash/partition drops
  // are decided in the *sender's* shard (like the wake-schedule clamp), so
  // each transport must know the full plan, not just its own pids' slice.
  if (faults_ != nullptr) sh->transport->set_fault_schedule(faults_.get());

  // The root P_0 is replicated into every shard: a delivery to the root
  // executes locally in the *sender's* shard against the local replica (the
  // root only folds observations, it never sends), and the per-shard logs
  // merge into the serial delivery order after the run.
  sh->root = std::make_unique<RootMonitor>(0, n_, *sh->sim);
  sh->root->log().delta_bound = delta_bound_;
  sh->root->log().validity = base.validity_horizon;
  RootMonitor* root = sh->root.get();
  sh->transport->register_handler(
      0, [root](const net::Message& msg) { root->on_message(msg); });

  const ProcessId end = shard_map_.end(s);
  sh->sensor_base = std::max<ProcessId>(1, shard_map_.begin(s));
  sh->sensors.reserve(end - sh->sensor_base);
  for (ProcessId pid = sh->sensor_base; pid < end; ++pid) {
    sh->sensors.push_back(std::make_unique<SensorNode>(
        pid, n_, *sh->sim, *sh->transport, base.clock_config,
        sh->sim->rng_for("clock", pid)));
    SensorNode* node = sh->sensors.back().get();
    if (faults_ != nullptr) node->set_fault_schedule(faults_.get());
    if (config_.unicast_reports) node->set_report_target(0);
    sh->transport->register_handler(
        pid, [node](const net::Message& msg) { node->on_message(msg); });
  }

  // Duty phases: every shard runs the full assignment loop with its own
  // "duty_phase" substream (identical draws — same master seed) and
  // installs wake schedules for *all* pids, not just its own: the arrival
  // adjustment happens in the sender's shard, which must know the wake
  // schedule of any destination.
  if (base.duty_cycle.has_value()) {
    Rng phase_rng = sh->sim->rng_for("duty_phase");
    for (ProcessId pid = 1; pid < n_; ++pid) {
      net::DutyCycle dc = *base.duty_cycle;
      if (!base.duty_phases_aligned) {
        dc.phase = phase_rng.uniform_duration(Duration::zero(),
                                              dc.period - Duration::nanos(1));
      }
      sh->transport->set_wake_schedule(pid, dc);
    }
  }

  if (config_.shards > 1) {
    net::RemoteRoute route;
    route.is_remote = [this, s](ProcessId dst) {
      // The root is never remote — every shard delivers to its own replica.
      return dst != 0 && shard_map_.shard_of(dst) != s;
    };
    route.enqueue = [this, s](SimTime at, std::uint64_t tie, net::Message msg,
                              std::size_t bytes) {
      outboxes_[s][shard_map_.shard_of(msg.dst)].push_back(
          {at, tie, std::move(msg), bytes});
    };
    sh->transport->set_remote_route(std::move(route));
  }
  return sh;
}

void ShardedPervasiveSystem::assign(world::ObjectId object, Name attribute,
                                    ProcessId sensor) {
  PSN_CHECK(sensor >= 1 && sensor < n_,
            "sensing must be assigned to a sensor process (1..n)");
  sensing_.assign(object, attribute, sensor);
}

void ShardedPervasiveSystem::set_world_events(
    std::vector<world::WorldEvent> events) {
  PSN_CHECK(!ran_, "world events must be installed before run()");
  PSN_CHECK(world_ == nullptr,
            "a run replays set_world_events() or drives world(), not both");
  for (std::size_t i = 1; i < events.size(); ++i) {
    PSN_CHECK(events[i - 1].when <= events[i].when,
              "world timeline must be in true-time order");
  }
  timeline_ = std::move(events);
}

void ShardedPervasiveSystem::reserve_root_logs(std::size_t expected_updates) {
  // Each replica sees only its own shard's reports.
  const std::size_t per_shard =
      per_shard_share(expected_updates, shards_.size());
  for (const auto& sh : shards_) sh->root->log().updates.reserve(per_shard);
}

void ShardedPervasiveSystem::reserve_trace_rings() {
  if (shards_[0]->kept == nullptr) return;
  std::size_t senses = 0;
  for (const auto& cur : cursors_) senses += cur->events.size();
  if (senses == 0) return;
  // A sense records itself, then one send and one delivery (or drop) per
  // copy of its report: n-1 copies of a strobe broadcast, one unicast.
  const std::size_t fan_out = config_.unicast_reports ? 1 : n_ - 1;
  const std::size_t per_shard =
      per_shard_share(senses * (1 + 2 * fan_out), shards_.size());
  for (const auto& sh : shards_) sh->kept->reserve(per_shard);
}

ShardedPervasiveSystem::Shard& ShardedPervasiveSystem::single_shard() {
  PSN_CHECK(shards_.size() == 1,
            "the live world, sim, transport and root need shards == 1");
  return *shards_[0];
}

world::WorldModel& ShardedPervasiveSystem::world() {
  Shard& sh = single_shard();
  if (world_ == nullptr) {
    PSN_CHECK(!ran_, "the live world must be built before run()");
    PSN_CHECK(timeline_.empty(), "a replayed run has no live world");
    world_ = std::make_unique<world::WorldModel>(*sh.sim);
    for (const auto& node : sh.sensors) node->bind_world(world_.get());
    // Route assigned world events to their sensors the instant they happen.
    world_->add_sink([this](const world::WorldEvent& ev) {
      const ProcessId pid = sensing_.sensor_of(ev.object, ev.attribute);
      if (pid != kNoProcess) sensor(pid).sense(ev);
    });
  }
  return *world_;
}

sim::Simulation& ShardedPervasiveSystem::sim() { return *single_shard().sim; }

net::Transport& ShardedPervasiveSystem::transport() {
  return *single_shard().transport;
}

RootMonitor& ShardedPervasiveSystem::root() { return *single_shard().root; }

SensorNode& ShardedPervasiveSystem::sensor(ProcessId pid) {
  PSN_CHECK(pid >= 1 && pid < n_, "not a sensor pid");
  return shards_[shard_map_.shard_of(pid)]->sensor(pid);
}

const SensorNode& ShardedPervasiveSystem::sensor(ProcessId pid) const {
  PSN_CHECK(pid >= 1 && pid < n_, "not a sensor pid");
  return shards_[shard_map_.shard_of(pid)]->sensor(pid);
}

void ShardedPervasiveSystem::install_cursors() {
  // Group the timeline by owning sensor pid, preserving timeline order, so
  // each pid replays exactly its subsequence — event counts and instants
  // per pid are independent of the shard count by construction.
  std::vector<std::vector<std::uint32_t>> per_pid(n_);
  for (std::size_t i = 0; i < timeline_.size(); ++i) {
    const world::WorldEvent& ev = timeline_[i];
    const ProcessId pid = sensing_.sensor_of(ev.object, ev.attribute);
    if (pid == kNoProcess) continue;  // unassigned variables are unobserved
    per_pid[pid].push_back(static_cast<std::uint32_t>(i));
  }
  cursors_.reserve(n_);
  for (ProcessId pid = 1; pid < n_; ++pid) {
    if (per_pid[pid].empty()) continue;
    Shard& sh = *shards_[shard_map_.shard_of(pid)];
    auto cur = std::make_unique<ReplayCursor>();
    cur->node = &sh.sensor(pid);
    cur->scheduler = &sh.sim->scheduler();
    cur->timeline = &timeline_;
    cur->events = std::move(per_pid[pid]);
    cur->schedule_next();
    cursors_.push_back(std::move(cur));
  }
}

std::size_t ShardedPervasiveSystem::exchange_outboxes() {
  std::size_t moved = 0;
  const std::size_t k = shards_.size();
  for (std::size_t d = 0; d < k; ++d) {
    exchange_scratch_.clear();
    for (std::size_t s = 0; s < k; ++s) {
      auto& box = outboxes_[s][d];
      for (auto& pd : box) exchange_scratch_.push_back(std::move(pd));
      box.clear();  // keeps capacity — no steady-state allocation
    }
    if (exchange_scratch_.empty()) continue;
    // (at, tie) pairs are unique (the tie embeds the run-unique message
    // seq), so this sort yields one canonical injection order no matter
    // which shards the deliveries came from.
    std::sort(exchange_scratch_.begin(), exchange_scratch_.end(),
              [](const net::PendingDelivery& a, const net::PendingDelivery& b) {
                return a.at != b.at ? a.at < b.at : a.tie < b.tie;
              });
    net::Transport& transport = *shards_[d]->transport;
    for (auto& pd : exchange_scratch_) {
      transport.inject_delivery(pd.at, pd.tie, std::move(pd.msg), pd.bytes);
    }
    moved += exchange_scratch_.size();
  }
  return moved;
}

void ShardedPervasiveSystem::stream_trace(TraceSink sink) {
  PSN_CHECK(!ran_, "stream_trace() must be called before run()");
  PSN_CHECK(!trace_sink_, "stream_trace() may only be called once");
  PSN_CHECK(static_cast<bool>(sink), "null trace sink");
  trace_sink_ = std::move(sink);
}

void ShardedPervasiveSystem::install_trace_buffers() {
  // The sim's own recorder, if SimConfig::trace_capacity made one, becomes
  // the kept ring; the sim records into a buffer that drains into it.
  tracing_ = trace_sink_ || shards_[0]->sim->trace() != nullptr;
  if (!tracing_) return;
  // K > 1 drains at every barrier, so its buffers only ever hold one
  // window; K = 1 has no barrier and drains its buffer when it fills.
  const bool serial = shards_.size() == 1;
  for (const auto& sh : shards_) {
    sh->kept = sh->sim->replace_trace(std::make_unique<sim::TraceRecorder>(
        serial ? kStreamBatch : SIZE_MAX));
  }
  if (serial) {
    sim::Simulation& sim = *shards_[0]->sim;
    sim.trace()->reserve(kStreamBatch);
    sim.trace()->drain_when_full([this, &sim] { drain_trace(sim.now()); });
  }
}

std::size_t ShardedPervasiveSystem::run() {
  PSN_CHECK(!ran_, "run() may only be called once");
  ran_ = true;
  install_cursors();
  install_trace_buffers();
  reserve_trace_rings();

  std::size_t total = 0;
  if (shards_.size() == 1) {
    // One shard: the plain serial run, no window machinery, so every delay
    // kind works at K = 1.
    total = shards_[0]->sim->run();
    truncated_ = shards_[0]->sim->truncated();
  } else {
    sim::ShardedSimulation::Config dcfg;
    dcfg.window = window_;
    dcfg.horizon = config_.base.sim.horizon;
    dcfg.pool_threads = config_.pool_threads;
    std::vector<sim::Simulation*> sims;
    sims.reserve(shards_.size());
    for (const auto& sh : shards_) sims.push_back(sh->sim.get());
    sim::ShardedSimulation driver(std::move(sims), dcfg);
    total = driver.run([this](SimTime fence) {
      // Every shard ran all its events before the fence: its records so
      // far are final, and cross-shard deliveries land at or after it.
      if (tracing_) drain_trace(fence);
      return exchange_outboxes();
    });
    truncated_ = driver.truncated();
    windows_ = driver.windows();
    if (truncated_) {
      log_warning(
          "sharded run hit max_events before horizon; results are truncated");
    }
  }
  if (tracing_) drain_trace(SimTime::max());
  merge_root_logs();
  return total;
}

void ShardedPervasiveSystem::drain_trace(SimTime cut) {
  trace_batch_.clear();
  for (const auto& sh : shards_) {
    const std::size_t first = trace_batch_.size();
    sh->sim->trace()->drain_before(cut, trace_batch_);
    if (sh->kept != nullptr) {
      for (std::size_t i = first; i < trace_batch_.size(); ++i) {
        sh->kept->record(trace_batch_[i]);
      }
    }
  }
  if (!trace_sink_) return;
  if (faults_ != nullptr) {
    faults_->append_trace_records(trace_batch_, streamed_until_,
                                  std::min(cut, end_of_run()));
  }
  streamed_until_ = cut;
  if (trace_batch_.empty()) return;
  sim::canonical_trace_order(trace_batch_);
  trace_sink_(trace_batch_);
}

SimTime ShardedPervasiveSystem::end_of_run() const {
  return config_.base.sim.horizon + Duration::nanos(1);
}

const ObservationLog& ShardedPervasiveSystem::log() const {
  return shards_.size() == 1 ? shards_[0]->root->log() : merged_log_;
}

void ShardedPervasiveSystem::merge_root_logs() {
  // One root's log is already in (delivered_at, seq) order: deliveries at
  // one instant fire in tie order, which for the root is seq order, and a
  // live run's log is the serial delivery order by definition.
  if (shards_.size() == 1) return;
  merged_log_ = ObservationLog{};
  merged_log_.num_processes = n_;
  merged_log_.delta_bound = delta_bound_;
  merged_log_.validity = config_.base.validity_horizon;
  std::size_t total = 0;
  for (const auto& sh : shards_) total += sh->root->log().updates.size();
  merged_log_.updates.reserve(total);
  for (const auto& sh : shards_) {
    const auto& updates = sh->root->log().updates;
    merged_log_.updates.insert(merged_log_.updates.end(), updates.begin(),
                               updates.end());
  }
  // Delivery instants can collide across shards; the strobe's run-unique
  // message seq breaks the tie exactly as the serial scheduler does (the
  // delivery tie at one instant is seq order).
  std::stable_sort(merged_log_.updates.begin(), merged_log_.updates.end(),
                   [](const ReceivedUpdate& a, const ReceivedUpdate& b) {
                     return a.delivered_at != b.delivered_at
                                ? a.delivered_at < b.delivered_at
                                : a.seq < b.seq;
                   });
}

net::MessageStats ShardedPervasiveSystem::message_stats() const {
  net::MessageStats out;
  for (const auto& sh : shards_) out += sh->transport->stats();
  return out;
}

MetricsSnapshot ShardedPervasiveSystem::metrics_snapshot() const {
  MetricsSnapshot out;

  // sim.*: the schedulers' own tallies, summed over shards.
  std::uint64_t executed = 0;
  std::uint64_t scheduled = 0;
  std::size_t pending = 0;
  for (const auto& sh : shards_) {
    const sim::Scheduler& sch = sh->sim->scheduler();
    executed += sch.total_executed();
    scheduled += sch.total_scheduled();
    pending += sch.pending();
  }
  out.counters["sim.events_executed"] = executed;
  out.counters["sim.events_scheduled"] = scheduled;
  out.gauges["sim.simulated_s"] = config_.base.sim.horizon.to_seconds();
  out.gauges["sim.pending_at_end"] = static_cast<double>(pending);
  if (truncated_) out.counters["sim.truncated_runs"] = 1;

  // net.*: the merged transport ledger.
  const net::MessageStats stats = message_stats();
  Histogram delay_ms = shards_[0]->transport->delivery_delay_ms();
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    delay_ms.merge(shards_[s]->transport->delivery_delay_ms());
  }
  out.histograms.emplace("net.delivery_delay_ms", std::move(delay_ms));
  for (const net::MessageKind kind :
       {net::MessageKind::kComputation, net::MessageKind::kStrobe,
        net::MessageKind::kSync, net::MessageKind::kActuation}) {
    const auto& ks = stats.of(kind);
    if (ks.sent == 0 && ks.unreachable == 0) continue;
    const std::string prefix = std::string("net.") + net::to_string(kind);
    out.counters[prefix + ".sent"] = ks.sent;
    out.counters[prefix + ".delivered"] = ks.delivered;
    out.counters[prefix + ".dropped"] = ks.dropped;
    out.counters[prefix + ".unreachable"] = ks.unreachable;
    out.counters[prefix + ".bytes_sent"] = ks.bytes_sent;
  }
  const net::MessageStats::KindStats all = stats.total();
  out.counters["net.sent"] = all.sent;
  out.counters["net.bytes_sent"] = all.bytes_sent;
  out.counters["net.delivered"] = all.delivered;
  out.counters["net.dropped"] = all.dropped;
  out.counters["net.unreachable"] = all.unreachable;
  out.counters["net.strobe.bytes_scalar_mode"] = stats.strobe_mode_bytes.scalar;
  out.counters["net.strobe.bytes_vector_mode"] = stats.strobe_mode_bytes.vector;
  out.counters["net.strobe.bytes_physical_mode"] =
      stats.strobe_mode_bytes.physical;
  if (faults_ != nullptr) {
    out.counters["net.drops.loss"] = stats.drops.loss;
    out.counters["net.drops.crashed_dst"] = stats.drops.crashed_dst;
    out.counters["net.drops.partition"] = stats.drops.partition;
    out.counters["net.drops.duty_cycle"] = stats.drops.duty_cycle;
  }
  return out;
}

std::vector<sim::TraceRecord> ShardedPervasiveSystem::trace_records() {
  PSN_CHECK(!trace_taken_, "trace_records() drains the rings; call it once");
  trace_taken_ = true;
  std::size_t total = 0;
  for (const auto& sh : shards_) {
    if (sh->kept != nullptr) total += sh->kept->size();
  }
  std::vector<sim::TraceRecord> out;
  for (const auto& sh : shards_) {
    if (sh->kept == nullptr) continue;
    std::vector<sim::TraceRecord> ring = sh->kept->take();
    if (out.empty()) {
      out = std::move(ring);
      out.reserve(total);
    } else {
      out.insert(out.end(), std::make_move_iterator(ring.begin()),
                 std::make_move_iterator(ring.end()));
    }
  }
  // Fault-plan transitions are synthesized from the schedule exactly once,
  // post-run — live emission would duplicate them per shard and could evict
  // real records from a full ring.
  if (faults_ != nullptr) {
    faults_->append_trace_records(out, SimTime::zero(), end_of_run());
  }
  sim::canonical_trace_order(out);
  return out;
}

std::size_t ShardedPervasiveSystem::trace_evicted() const {
  std::size_t evicted = 0;
  for (const auto& sh : shards_) {
    if (sh->kept != nullptr) evicted += sh->kept->evicted();
  }
  return evicted;
}

std::vector<const std::vector<ProcessEvent>*>
ShardedPervasiveSystem::sensor_executions() const {
  std::vector<const std::vector<ProcessEvent>*> out;
  out.reserve(n_ - 1);
  for (ProcessId pid = 1; pid < n_; ++pid) {
    out.push_back(&sensor(pid).events());
  }
  return out;
}

}  // namespace psn::core
