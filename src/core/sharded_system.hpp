#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "core/sensing.hpp"
#include "core/system.hpp"
#include "net/shard_map.hpp"
#include "sim/trace.hpp"
#include "world/event.hpp"
#include "world/world_model.hpp"

namespace psn::core {

/// Configuration of a ShardedPervasiveSystem (DESIGN.md §14).
struct ShardedSystemConfig {
  /// The system being replicated per shard. Every shard is constructed from
  /// this exact config (same master seed, same models), which is what makes
  /// the per-shard RNG substreams — transport message seed, duty phases,
  /// clock noise — agree across shard counts.
  SystemConfig base;
  /// Number of space partitions K (1 <= K <= num_sensors + 1). K = 1 runs
  /// the whole system in one shard with no window machinery and supports
  /// every delay kind; validate() states what K > 1 needs.
  std::size_t shards = 1;
  /// Threads that run shard turns, the caller included (K > 1 only;
  /// capped at K). 1 = run shard turns inline on the caller. Determinism is
  /// independent of this value; only wall-clock time changes.
  std::size_t pool_threads = 1;
  /// Route every sense report as one unicast to the root P_0 instead of the
  /// system-wide strobe broadcast (the city-scale star deployment).
  bool unicast_reports = false;
};

/// Admission: the one place that decides whether a system can run
/// `config`, called by ShardedPervasiveSystem's constructor before it builds
/// anything. Throws ConfigError, with a one-line remedy, on a value no
/// model accepts, on what K > 1 cannot run (a zero minimum one-hop delay,
/// FIFO channels, Gilbert–Elliott loss), or on a fault plan naming a pid
/// or cut edge the configured system lacks (DESIGN.md §14, §15).
void validate(const ShardedSystemConfig& config);

/// The assembled ⟨P, L, O, C⟩ system — the repo's one system type: world
/// plane ⟨O, C⟩, network plane ⟨P, L⟩ with the root monitor P_0 and sensor
/// processes P_1..P_n, wired so that every assigned world event is sensed,
/// stamped under every clock model, and strobed system-wide. After run(),
/// the root's ObservationLog and the world timeline feed the detectors and
/// the oracle respectively. Executes in space partitions (DESIGN.md §14).
///
/// The process space is cut into K contiguous shards (net::ShardMap); each
/// shard owns a full Simulation + Transport + its range of SensorNodes, and
/// all shards advance in lockstep Δ-windows (sim::ShardedSimulation). Three
/// mechanisms make the run *byte-identical* at every K:
///
///  - identity: per-source strided message seqs and per-message keyed RNG
///    (net::Transport) give every message the same seq, delay draws, and
///    loss draws no matter which shard sends it;
///  - routing: a cross-shard send is finalized (arrival instant + canonical
///    tie) in the sender's shard, parked in a per-(src,dst-shard) outbox,
///    and injected verbatim into the owner's calendar at the window barrier
///    in (at, tie) order;
///  - observation: P_0 is replicated into every shard — deliveries to the
///    root execute locally against the replica, and the per-shard logs merge
///    by (delivered_at, seq) into exactly the serial delivery order. Traces
///    merge under sim::canonical_trace_order; registries merge by summation
///    in shard order, and the sim.*/net.* metrics are built from tallies
///    summed over shards.
///
/// The world plane enters in one of two ways, decided by whether
/// set_world_events() was called:
///
///  - replay (any K): the caller pre-rolls the world timeline once
///    (scenarios are autonomous — they draw only from their own RNG
///    substream) and hands it to set_world_events(); each sensor's event
///    subsequence is replayed by a per-pid timer chain inside its owner
///    shard. A 1-shard replay is the golden reference for every K.
///  - live (K = 1 only): world() is a WorldModel bound to the one shard's
///    Simulation, built on first use. Its events are sensed the instant
///    they are emitted, and actuation commands apply to it, so closed-loop
///    runs and scripted emits work. The root's log is the single shard's
///    delivery order, unsorted.
///
/// The constructor admits its config through validate() first, so a
/// config no layout can honour is a ConfigError before any shard exists.
class ShardedPervasiveSystem {
 public:
  explicit ShardedPervasiveSystem(ShardedSystemConfig config);
  ~ShardedPervasiveSystem();

  /// Routes (object, attribute) world events to `sensor`.
  void assign(world::ObjectId object, Name attribute, ProcessId sensor);
  const SensingMap& sensing() const { return sensing_; }

  /// Installs the pre-rolled ground-truth timeline to replay (`when`
  /// non-decreasing, indices assigned). Call once, before run(), and never
  /// together with world().
  void set_world_events(std::vector<world::WorldEvent> events);

  // --- The live single-shard system. Each of these PSN_CHECKs K == 1.
  /// The live world plane, built on first call (before run()); its sensors
  /// are bound to it for actuation. Not available once set_world_events()
  /// was called.
  world::WorldModel& world();
  sim::Simulation& sim();
  net::Transport& transport();
  RootMonitor& root();

  SensorNode& sensor(ProcessId pid);
  const SensorNode& sensor(ProcessId pid) const;

  /// Pre-sizes every per-shard root log (city-scale runs append millions of
  /// updates; growing the logs inside the window loop would allocate).
  void reserve_root_logs(std::size_t expected_updates);

  std::size_t num_processes() const { return n_; }
  std::size_t num_shards() const { return shard_map_.num_shards(); }
  const net::ShardMap& shard_map() const { return shard_map_; }
  /// End-to-end Δ bound (hop bound × the topology's closed-form diameter,
  /// computed once at construction), or Duration::max() if the delay model
  /// is unbounded.
  Duration delta_bound() const { return delta_bound_; }

  /// Receives a streamed run's canonical trace, one batch at a time.
  using TraceSink = std::function<void(std::span<const sim::TraceRecord>)>;

  /// Hands the run's canonical trace to `sink` while run() executes instead
  /// of keeping it. The batches, concatenated, are exactly what
  /// trace_records() returns: every record, the fault plan's included.
  /// A batch holds only final records, those stamped before a cut no
  /// later record can precede: at K > 1 the cut is each window's fence,
  /// drained at its barrier; at K = 1 it is the current instant, drained
  /// whenever the shard's buffer fills; the rest goes at the end of run().
  /// Each batch is in sim::canonical_trace_order, whose key leads with
  /// `at`, so batch order is whole-run order (DESIGN.md §14). The sink runs
  /// on the thread driving the run, while no shard executes.
  ///
  /// A streamed run records its trace whatever SimConfig::trace_capacity
  /// says. Every traced run, streamed or not, records into per-shard
  /// buffers drained at those same cuts; records are kept only in the
  /// rings that capacity asks for, which trace_records() and
  /// trace_evicted() read. Call once, before run().
  void stream_trace(TraceSink sink);

  /// Runs all shards to the horizon; returns total events executed. Call
  /// once.
  std::size_t run();
  bool truncated() const { return truncated_; }
  /// Δ-windows executed (0 when K = 1 — no window machinery ran).
  std::size_t windows() const { return windows_; }

  // --- Merged run artifacts. Valid after run(); each is bit-identical to
  // --- the corresponding serial artifact at every K.
  const ObservationLog& log() const;
  net::MessageStats message_stats() const;
  /// The system's metrics, built here and nowhere else from the
  /// components' own tallies summed over shards: sim.* from the schedulers,
  /// net.* (aggregates, per kind, per strobe mode, and — under a fault
  /// schedule — per drop cause) from message_stats(), and the
  /// net.delivery_delay_ms histogram from the transports.
  MetricsSnapshot metrics_snapshot() const;
  /// All shards' trace rings plus the fault plan's records, merged under
  /// sim::canonical_trace_order. Drains the rings (no record is copied), so
  /// call it once per run; a second call PSN_CHECKs. trace_evicted() stays
  /// valid afterwards.
  std::vector<sim::TraceRecord> trace_records();
  std::size_t trace_evicted() const;
  /// Recorded local executions of the sensors (index 0 = P_1), pid order.
  std::vector<const std::vector<ProcessEvent>*> sensor_executions() const;

  const ShardedSystemConfig& config() const { return config_; }

  /// The compiled fault schedule, or nullptr when the config has no faults.
  /// One schedule is shared by every shard — fault decisions are pure
  /// functions of (pid/edge, time), never of the shard layout.
  const sim::FaultSchedule* faults() const { return faults_.get(); }

 private:
  struct Shard;
  struct ReplayCursor;

  std::unique_ptr<Shard> build_shard(std::size_t s);
  /// The one shard of a K = 1 system (PSN_CHECKs K == 1).
  Shard& single_shard();
  void install_cursors();
  /// Moves each shard's trace ring aside as its kept ring and gives the sim
  /// a drained buffer instead, if the run traces or streams.
  void install_trace_buffers();
  /// Pre-sizes each shard's trace ring from the replay timeline.
  void reserve_trace_rings();
  std::size_t exchange_outboxes();
  /// Moves every record stamped before `cut` from the shards' buffers into
  /// their kept rings and, with the fault plan's records up to `cut`, to
  /// the trace sink as one canonical batch.
  void drain_trace(SimTime cut);
  /// One tick past the horizon: the run executes events at the horizon.
  SimTime end_of_run() const;
  void merge_root_logs();

  ShardedSystemConfig config_;
  std::size_t n_ = 0;              ///< processes incl. the root
  /// The one topology: the shard map and every shard's transport read this
  /// adjacency.
  net::Overlay topology_;
  std::unique_ptr<sim::FaultSchedule> faults_;
  Duration delta_bound_ = Duration::max();
  /// Window width W used by the K > 1 drive loop (zero when K = 1).
  Duration window_ = Duration::zero();
  net::ShardMap shard_map_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// outboxes_[src_shard][dst_shard]; cleared (capacity kept) per window.
  std::vector<std::vector<std::vector<net::PendingDelivery>>> outboxes_;
  std::vector<net::PendingDelivery> exchange_scratch_;
  std::vector<world::WorldEvent> timeline_;
  std::unique_ptr<world::WorldModel> world_;  ///< live world, built by world()
  std::vector<std::unique_ptr<ReplayCursor>> cursors_;
  SensingMap sensing_;
  ObservationLog merged_log_;
  bool truncated_ = false;
  std::size_t windows_ = 0;
  bool ran_ = false;
  bool trace_taken_ = false;  ///< trace_records() drained the rings
  TraceSink trace_sink_;      ///< set by stream_trace()
  bool tracing_ = false;      ///< run() records into drained buffers
  std::vector<sim::TraceRecord> trace_batch_;  ///< reused per drain
  /// Fault-plan records before this instant have been streamed.
  SimTime streamed_until_ = SimTime::zero();
};

}  // namespace psn::core
