#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "net/delay_model.hpp"
#include "net/duty_cycle.hpp"
#include "net/loss_model.hpp"
#include "net/message.hpp"
#include "net/overlay.hpp"
#include "sim/fault.hpp"
#include "sim/simulation.hpp"

namespace psn::net {

/// Per-kind traffic accounting — experiment E7's raw data ("this service is
/// not for free": the cost of each time-model option is messages and bytes).
///
/// `sent`/`bytes_sent` count only messages that actually left the node:
/// destinations with no overlay path are tallied under `unreachable` and
/// charge no radio bytes (the radio never keys up without a route).
///
/// With Transport::delivery_delay_ms() this is the network plane's only
/// ledger: the `net.*` metrics are built from the two
/// (core::ShardedPervasiveSystem::metrics_snapshot), never counted a second
/// time.
struct MessageStats {
  struct KindStats {
    std::size_t sent = 0;        ///< transmissions attempted (per destination)
    std::size_t delivered = 0;
    std::size_t dropped = 0;     ///< lost to the loss model
    std::size_t unreachable = 0; ///< no path in the overlay; not in `sent`
    std::size_t bytes_sent = 0;  ///< priced at the transport's clock mode
    KindStats& operator+=(const KindStats& other);
  };

  /// What `bytes_sent` of the strobe kind *would have been* under each clock
  /// mode. All three are accumulated on every strobe transmission, so one
  /// simulated run yields the full E7 per-mode comparison without replaying.
  struct StrobeModeBytes {
    std::size_t scalar = 0;
    std::size_t vector = 0;
    std::size_t physical = 0;
    std::size_t of(ClockMode mode) const;
  };

  KindStats& of(MessageKind k) { return per_kind_[static_cast<std::size_t>(k)]; }
  const KindStats& of(MessageKind k) const {
    return per_kind_[static_cast<std::size_t>(k)];
  }
  /// Losses by cause, across kinds. `loss` and `crashed_dst`/`duty_cycle`
  /// split `dropped`; `partition` counts the `unreachable` sends a fault
  /// cut caused. Reported (net.drops.*) only under a fault schedule.
  struct DropCauses {
    std::size_t loss = 0;         ///< the loss model fired on a hop
    std::size_t crashed_dst = 0;  ///< arrival inside the dst's crash window
    std::size_t partition = 0;    ///< no route while a cut is active
    std::size_t duty_cycle = 0;   ///< a sleep deferral landed in a crash
  };

  /// Every kind's tallies summed.
  KindStats total() const;

  /// Accumulates `other` field by field (how shards' ledgers merge).
  MessageStats& operator+=(const MessageStats& other);

  StrobeModeBytes strobe_mode_bytes;
  DropCauses drops;

 private:
  std::array<KindStats, 4> per_kind_{};
};

/// Hook the sharded driver installs to divert deliveries addressed to a
/// process owned by another shard (DESIGN.md §14). `transmit` computes the
/// delivery instant and canonical tie exactly as it would locally, then
/// hands the ready-to-fire delivery to `enqueue` instead of its own
/// calendar; the window barrier later replays it into the owner shard via
/// `inject_delivery`. Unset (the default) = everything is local.
struct RemoteRoute {
  std::function<bool(ProcessId dst)> is_remote;
  std::function<void(SimTime at, std::uint64_t tie, Message msg,
                     std::size_t bytes)>
      enqueue;
};

/// Asynchronous message-passing transport over the overlay L.
///
/// Unicasts follow the shortest path, accumulating one delay sample and one
/// loss trial per hop. Broadcasts ("System-wide_Broadcast" of the strobe
/// rules) fan out to every other process as independent unicasts — delays
/// differ per receiver, which is precisely what creates the race conditions
/// the paper analyzes.
///
/// Determinism contract (what makes sharded execution byte-exact, §14):
/// sequence ids are allocated per *source* with stride |P| (`seq =
/// n_src·|P| + src + 1`), and every per-copy delay/loss draw comes from a
/// private Rng keyed by (transport seed, seq, dst) — so both ids and
/// arrival times are pure functions of the message's identity, independent
/// of how transmissions from different processes interleave, and therefore
/// identical at any shard count.
class Transport {
 public:
  Transport(sim::Simulation& sim, Overlay overlay,
            std::unique_ptr<DelayModel> delay, std::unique_ptr<LossModel> loss,
            Rng rng);

  /// Sets the clock mode used to price strobe payloads on the wire (see
  /// ClockMode). Default is kVectorStrobe — the fattest option and the one
  /// the simulated broadcast actually carries. Scalar/physical deployments
  /// must set their mode or byte accounting overstates their cost.
  void set_clock_mode(ClockMode mode) { clock_mode_ = mode; }

  /// When enabled, deliveries between each ordered (src, dst) pair never
  /// overtake one another: a message's delivery time is clamped to be after
  /// the pair's previous delivery. Off by default (radio links reorder);
  /// `psn_cli run --fifo` enables it.
  void set_fifo_channels(bool fifo) { fifo_ = fifo; }

  /// Installs the run's fault schedule (sim/fault, DESIGN.md §15). The
  /// transport then (a) replays partition transitions into its cut mask
  /// lazily before routing, so routes change exactly at window boundaries
  /// and the shared overlay is never edited; (b) drops deliveries landing
  /// inside the destination's crash windows, sender-side, so the decision is
  /// a pure function of the message and identical at every shard layout;
  /// (c) tallies unreachable sends under an active cut as
  /// MessageStats::drops.partition. The other drop causes are tallied with
  /// or without a schedule; the system reports net.drops.* only when one is
  /// installed, so fault-free runs keep their exact metric set. The schedule
  /// must outlive the transport; pass nullptr to detach. Crash-caused kDrop
  /// records carry note "crash" (or "duty-cycle" when a sleep deferral
  /// pushed the arrival into the window); loss drops keep an empty note;
  /// partition kUnreachable records gain note "partition" while a cut is
  /// active.
  void set_fault_schedule(const sim::FaultSchedule* faults);

  /// Installs a duty-cycle wake schedule for `pid`'s receiver: arrivals
  /// while asleep are held by the MAC and delivered at the next wake edge
  /// (paper §5, duty-cycled habitat monitoring). No schedule = always on.
  void set_wake_schedule(ProcessId pid, const DutyCycle& schedule);

  using Handler = std::function<void(const Message&)>;
  /// Installs the delivery callback for process `pid`. Must be set before
  /// any message addressed to `pid` is delivered.
  void register_handler(ProcessId pid, Handler handler);

  /// Sends `msg` (src/dst/kind/payload filled in by the caller). Returns the
  /// run-unique sequence id assigned to the message (see Message::seq).
  std::uint64_t unicast(Message msg);
  /// Delivers independently to every process except `msg.src`. All fan-out
  /// copies share one sequence id, which is returned.
  std::uint64_t broadcast(Message msg);

  /// Diverts deliveries whose destination `route.is_remote(dst)` into
  /// `route.enqueue` instead of the local calendar (sharded driver only).
  void set_remote_route(RemoteRoute route) { remote_route_ = std::move(route); }

  /// Canonical same-instant rank of a delivery: (seq << 20) | dst. Strictly
  /// positive (seq >= 1), so timers (tie 0) run before co-instant
  /// deliveries; unique per copy, so co-instant deliveries fire in (seq,
  /// dst) order in *every* shard layout. 20 bits caps pids at ~10^6 (city
  /// scale is 10^5) and leaves 44 bits of seq — ample, seqs grow by |P| per
  /// source message.
  static std::uint64_t delivery_tie(std::uint64_t seq, ProcessId dst);

  /// Executes a delivery at the current instant: delivered accounting,
  /// kDeliver trace, handler dispatch. Public so a peer shard's buffered
  /// delivery replays through the owner's transport.
  void deliver_now(Message msg, std::size_t bytes);

  /// Schedules a delivery whose time/tie were computed by a peer shard's
  /// transmit() (the sender's side of the outbox exchange).
  void inject_delivery(SimTime at, std::uint64_t tie, Message msg,
                       std::size_t bytes);

  const Overlay& overlay() const { return routes_.overlay(); }
  const MessageStats& stats() const { return stats_; }
  /// Every delivery's delay (delivered_at − sent_at) in ms, 50 bins over
  /// [0, 1000); reported as net.delivery_delay_ms.
  const Histogram& delivery_delay_ms() const { return delivery_delay_ms_; }

 private:
  /// Allocates the next per-source-strided sequence id for `src`.
  std::uint64_t next_seq_for(ProcessId src);
  /// Replays fault-plan partition transitions with at <= now into the cut
  /// mask. Time is monotonic within a shard, so the replay cursor only moves
  /// forward; each transition cuts or heals one edge.
  void apply_partition_epoch();
  /// `bytes` is the wire price of the message under the active clock mode,
  /// computed once per logical message (unicast: per message; broadcast:
  /// once for the whole fan-out — all copies share payload, kind, and mode).
  void transmit(Message msg, std::size_t bytes);

  sim::Simulation& sim_;
  /// The shared overlay and the partition cuts active on it.
  CutMask routes_;
  std::unique_ptr<DelayModel> delay_;
  std::unique_ptr<LossModel> loss_;
  std::vector<Handler> handlers_;
  MessageStats stats_;
  std::uint64_t msg_seed_;  ///< keys every per-message delay/loss stream
  std::vector<std::uint64_t> per_source_next_;  ///< messages sent per source
  RemoteRoute remote_route_;
  ClockMode clock_mode_ = ClockMode::kVectorStrobe;
  Histogram delivery_delay_ms_{0.0, 1000.0, 50};
  const sim::FaultSchedule* faults_ = nullptr;
  std::size_t partitions_applied_ = 0;  ///< transitions replayed so far
  bool fifo_ = false;
  /// Last scheduled delivery time per (src, dst), for FIFO clamping.
  std::map<std::pair<ProcessId, ProcessId>, SimTime> last_delivery_;
  /// Receiver wake schedules; nullopt = always-on radio.
  std::vector<std::optional<DutyCycle>> wake_;
};

}  // namespace psn::net
