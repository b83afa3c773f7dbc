// Alloc-guard regression suite (`ctest -L lint`, DESIGN.md §13).
//
// The dynamic half of the PSN_HOT contract: every function annotated
// PSN_HOT claims an allocation-free steady state, the static lint check
// (tools/lint) bans the obvious allocating calls from its body, and this
// suite pins the claim end to end by running each hot path under the
// counting operator new/delete replacements (common/alloc_guard) and
// asserting ZERO allocations per event after warmup. A reintroduced
// per-event malloc — a fattened capture that spills InlineFn's buffer, a
// container that stopped recycling, a std::string born in a loop — fails
// here immediately, on the exact path that regressed.
//
// Pinned paths (one test each, plus an 8-thread repeat of all five):
//   1. Scheduler schedule→pop round trip (slab slots + monotone run reuse).
//   2. Transport broadcast fan-out: delivery executes allocation-free and
//      the schedule phase's allocation count is independent of fan-out N
//      (the SharedPayload is allocated once per logical message, never per
//      copy).
//   3. OnlineDetector::feed of every detector kind, including feeds that
//      flip the predicate (transitions must not build a vector to return one
//      detection); and the root-side GlobalState::set + Predicate::holds of
//      sum(a) - sum(b) + max(a) - min(b) - a[2] > c on a state bound to it.
//   4. StreamChecker::feed in trace-only mode — the soak server's always-on
//      mode — with a bounded retention window (the checker's std::pmr
//      pool recycles the matching working set). Bound mode is NOT pinned:
//      replaying claimed executions retains a full VectorStamp per send
//      entry by design.
//   5. The Δ-windowed shard driver (DESIGN.md §14): window loop, outbox
//      traffic, and fence exchange recycle everything once warm.
//   6. The fault layer (DESIGN.md §15): FaultSchedule's per-message queries,
//      the stream checker's fault-record replay, and unicast and broadcast
//      transmits routed around an active partition cut.
//   7. The trace hand-off (DESIGN.md §14): trace_records() moves the ring
//      out and orders it in place, so it allocates far less than one copy
//      of the trace. Not a zero pin: the run index and the per-instant sort
//      may allocate a little.
//   8. Wire ingest (DESIGN.md §12): Session::on_data over 64 KiB chunks of
//      exporter lines parses each line in place, and parse_trace_line
//      builds nothing for a line whose note has no escapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/export.hpp"
#include "check/stream_checker.hpp"
#include "clocks/timestamp.hpp"
#include "common/alloc_guard.hpp"
#include "common/name.hpp"
#include "common/sim_time.hpp"
#include "core/detectors.hpp"
#include "core/sharded_system.hpp"
#include "core/observation.hpp"
#include "core/predicate_parser.hpp"
#include "net/delay_model.hpp"
#include "net/loss_model.hpp"
#include "net/message.hpp"
#include "net/overlay.hpp"
#include "net/transport.hpp"
#include "serve/session.hpp"
#include "serve/trace_feed.hpp"
#include "sim/fault.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"
#include "sim/trace.hpp"
#include "world/generators.hpp"

namespace psn {
namespace {

using alloc_guard::Scope;

TEST(AllocGuard, HooksAreInstalledAndCount) {
  ASSERT_TRUE(alloc_guard::hooks_installed())
      << "psn_alloc_guard must be linked into this binary";
  Scope scope;
  auto p = std::make_unique<std::uint64_t>(42);
  EXPECT_GE(scope.allocations(), 1u);
  EXPECT_GE(scope.bytes(), sizeof(std::uint64_t));
  p.reset();
  EXPECT_GE(scope.deallocations(), 1u);
}

// --- 1. slab scheduler -----------------------------------------------------

std::uint64_t scheduler_steady_allocs(std::size_t rounds) {
  sim::Scheduler sched;
  std::uint64_t fired = 0;
  const auto enqueue = [&](Duration dt) {
    sched.schedule_after(dt, sim::Scheduler::Callback([&fired] { fired++; }));
  };
  // Warmup: reach peak calendar occupancy, then drain — slab blocks, the
  // monotone run vector, and the free list all hit their steady capacity.
  for (int i = 0; i < 512; i++) enqueue(Duration::millis(i % 7));
  sched.run();
  std::uint64_t baseline = fired;

  Scope scope;
  for (std::size_t i = 0; i < rounds; i++) {
    enqueue(Duration::millis(1));
    enqueue(Duration::millis(2));
    sched.step();
    sched.step();
  }
  EXPECT_EQ(fired, baseline + 2 * rounds);
  return scope.allocations();
}

TEST(AllocGuard, SchedulerScheduleAndPopIsAllocationFree) {
  EXPECT_EQ(scheduler_steady_allocs(10'000), 0u);
}

// --- 2. broadcast fan-out --------------------------------------------------

struct BroadcastAllocs {
  std::uint64_t schedule = 0;  ///< broadcast() call itself
  std::uint64_t deliver = 0;   ///< executing every delivery event
};

BroadcastAllocs broadcast_allocs(std::size_t n, std::size_t rounds) {
  sim::SimConfig cfg;
  cfg.horizon = SimTime::from_seconds(3600.0);
  sim::Simulation sim(cfg);
  net::Transport transport(sim, net::Overlay::complete(n),
                           std::make_unique<net::FixedDelay>(
                               Duration::millis(5)),
                           std::make_unique<net::NoLoss>(),
                           sim.rng_for("transport"));
  std::uint64_t delivered = 0;
  for (ProcessId p = 0; p < n; p++) {
    transport.register_handler(p,
                               [&delivered](const net::Message&) { delivered++; });
  }
  // The logical message: one SharedPayload, allocated here, outside any
  // measured scope. Fan-out copies only bump its refcount.
  net::SenseReportPayload report;
  report.attribute = "x";
  report.strobe_vector = clocks::VectorStamp(n);
  net::Message proto;
  proto.src = 1;
  proto.kind = net::MessageKind::kStrobe;
  proto.payload = net::SharedPayload(report);

  // Warmup: one full fan-out grows the calendar to its peak.
  transport.broadcast(proto);
  sim.scheduler().run();

  BroadcastAllocs out;
  for (std::size_t r = 0; r < rounds; r++) {
    Scope schedule_scope;
    transport.broadcast(proto);
    out.schedule += schedule_scope.allocations();
    Scope deliver_scope;
    sim.scheduler().run();
    out.deliver += deliver_scope.allocations();
  }
  EXPECT_EQ(delivered, (rounds + 1) * (n - 1));
  return out;
}

TEST(AllocGuard, BroadcastDeliveryIsAllocationFree) {
  const BroadcastAllocs a = broadcast_allocs(8, 64);
  EXPECT_EQ(a.deliver, 0u);
}

TEST(AllocGuard, BroadcastScheduleCostIsIndependentOfFanOut) {
  // The shared-payload design means scheduling a broadcast to 31 receivers
  // allocates exactly as much as to 7 (in steady state: nothing — every
  // delivery closure fits InlineFn's buffer and slots are recycled).
  const BroadcastAllocs small = broadcast_allocs(8, 64);
  const BroadcastAllocs large = broadcast_allocs(32, 64);
  EXPECT_EQ(small.schedule, large.schedule);
  EXPECT_EQ(small.schedule, 0u);
}

// --- 3. online detectors ---------------------------------------------------

std::uint64_t detector_feed_allocs(core::DetectorKind kind, std::size_t rounds,
                                   std::uint64_t* transitions_out) {
  const std::size_t kProcs = 5;
  core::OnlineDetector det(kind,
                           core::parse_predicate("load", "sum(x) > 100"));

  // Pre-built update stream: reporters 1..4 alternate high/low values so the
  // sum crosses the threshold repeatedly — transitions are the interesting
  // case (they used to build a std::vector per feed). Stamps and synced
  // timestamps advance, so nothing is discarded as stale and delivery order
  // is every kind's consumption order.
  std::vector<core::ReceivedUpdate> updates;
  std::uint64_t tick = 1;
  for (std::size_t r = 0; r < rounds; r++) {
    for (ProcessId p = 1; p < kProcs; p++) {
      core::ReceivedUpdate u;
      u.delivered_at = SimTime::zero() + Duration::millis(static_cast<std::int64_t>(tick));
      u.reporter = p;
      u.report.attribute = "x";
      u.report.value = (r % 2 == 0) ? 50.0 : 0.0;
      u.report.strobe_vector = clocks::VectorStamp(kProcs);
      u.report.strobe_vector[p] = tick;
      u.report.strobe_scalar = {tick, p};
      u.report.synced_timestamp = u.delivered_at;
      tick++;
      updates.push_back(std::move(u));
    }
  }
  // Warmup: the first quarter sizes the detector's per-variable tables and
  // the state's columns.
  const std::size_t warmup = updates.size() / 4;
  std::uint64_t transitions = 0;
  for (std::size_t i = 0; i < warmup; i++) {
    if (det.feed(updates[i], i)) transitions++;
  }
  Scope scope;
  for (std::size_t i = warmup; i < updates.size(); i++) {
    if (det.feed(updates[i], i)) transitions++;
  }
  if (transitions_out != nullptr) *transitions_out = transitions;
  return scope.allocations();
}

TEST(AllocGuard, DetectorFeedIsAllocationFreeIncludingTransitions) {
  for (const core::Detector* d : core::all_online_detectors()) {
    std::uint64_t transitions = 0;
    const std::uint64_t allocs =
        detector_feed_allocs(d->kind(), 512, &transitions);
    // The workload must actually exercise the transition branch, at scale.
    EXPECT_GT(transitions, 100u) << d->name();
    EXPECT_EQ(allocs, 0u) << d->name();
  }
}

// Root-side evaluation of the exhibition-hall predicate, plus min, max and
// a variable named outright, on a state bound to it, in steady state:
// overwriting an existing variable keeps the per-name running totals up to
// date in place, sum/count read them, and min/max fold the column without
// building anything.
TEST(AllocGuard, AggregateSetAndHoldsIsAllocationFree) {
  const core::Predicate phi = core::parse_predicate(
      "hall", "sum(a) - sum(b) + max(a) - min(b) - a[2] > 40");
  core::GlobalState state(phi);
  const std::vector<core::VarRef> vars = {
      {1, "a"}, {2, "a"}, {3, "a"}, {1, "b"}, {2, "b"}, {3, "b"}};
  for (const core::VarRef& v : vars) {
    state.set(*state.column(v.name), v.pid, 0.0);
  }

  std::uint64_t holds = 0;
  Scope scope;
  for (std::size_t i = 0; i < 4096; i++) {
    const core::VarRef& v = vars[i % vars.size()];
    state.set(*state.column(v.name), v.pid,
              static_cast<double>((i * 7) % 31));
    if (phi.holds(state)) holds++;
  }
  EXPECT_EQ(scope.allocations(), 0u);
  EXPECT_GT(holds, 0u);
  EXPECT_LT(holds, 4096u);
}

// --- 4. stream checker (trace-only mode) -----------------------------------

std::uint64_t stream_checker_feed_allocs(std::size_t rounds,
                                         std::size_t* violations_out) {
  check::StreamCheckerConfig cfg;
  cfg.num_processes = 8;
  cfg.send_retention = Duration::from_seconds(2.0);
  check::StreamChecker checker(cfg);

  // One logical second of traffic per round: every process strobes (sense +
  // 7 deliveries) and unicasts one computation message to the root. The
  // in-flight window is constant, so after warmup the checker's pool recycles
  // every map node, its eviction ring has room, and feed never touches the
  // global allocator.
  std::uint64_t seq = 1;
  sim::TraceRecord rec;  // notes stay empty — feed never reads them
  const auto run_round = [&](std::uint64_t round) {
    const SimTime base =
        SimTime::zero() + Duration::millis(static_cast<std::int64_t>(round) * 10);
    for (ProcessId p = 1; p < cfg.num_processes; p++) {
      const std::uint64_t strobe_seq = seq++;
      rec.at = base;
      rec.kind = sim::TraceKind::kSense;
      rec.pid = p;
      rec.message_kind = static_cast<int>(net::MessageKind::kStrobe);
      rec.seq = strobe_seq;
      checker.feed(rec);
      for (ProcessId q = 0; q < cfg.num_processes; q++) {
        if (q == p) continue;
        rec.at = base + Duration::millis(1);
        rec.kind = sim::TraceKind::kDeliver;
        rec.pid = q;
        rec.seq = strobe_seq;
        checker.feed(rec);
      }
      const std::uint64_t comp_seq = seq++;
      rec.at = base + Duration::millis(2);
      rec.kind = sim::TraceKind::kSend;
      rec.pid = p;
      rec.message_kind = static_cast<int>(net::MessageKind::kComputation);
      rec.seq = comp_seq;
      checker.feed(rec);
      rec.at = base + Duration::millis(3);
      rec.kind = sim::TraceKind::kReceive;
      rec.pid = 0;
      rec.seq = comp_seq;
      checker.feed(rec);
    }
  };

  // Warmup: enough rounds that the retention window has filled AND drained —
  // peak working set reached, eviction path exercised.
  const std::uint64_t warmup_rounds = 512;
  for (std::uint64_t r = 0; r < warmup_rounds; r++) run_round(r);

  Scope scope;
  for (std::uint64_t r = 0; r < rounds; r++) run_round(warmup_rounds + r);
  const std::uint64_t allocs = scope.allocations();
  if (violations_out != nullptr) {
    *violations_out = checker.finish().total_violations();
  }
  return allocs;
}

TEST(AllocGuard, StreamCheckerTraceOnlyFeedIsAllocationFree) {
  std::size_t violations = 0;
  const std::uint64_t allocs = stream_checker_feed_allocs(2048, &violations);
  EXPECT_EQ(violations, 0u) << "workload must be a clean stream";
  EXPECT_EQ(allocs, 0u);
}

// The stream-checker ladder row's workload: the exporter trace of a faulty
// 8-door run at serve's default retention. Once one pass has filled and
// drained the window, a second pass, shifted past the first so the stream
// never rewinds, allocates nothing.
TEST(AllocGuard, StreamCheckerSecondExporterPassIsAllocationFree) {
  analysis::OccupancyConfig run;
  run.doors = 8;
  run.horizon = Duration::seconds(60);
  run.loss_probability = 0.05;
  run.faults = sim::parse_fault_plan("crash:2@5+4;cut:1-3@20+10");
  run.trace_capacity = std::size_t{1} << 22;
  const std::string wire =
      analysis::trace_jsonl(analysis::run_occupancy_experiment(run).trace);
  std::vector<sim::TraceRecord> records;
  for (std::size_t i = 0; i < wire.size();) {
    const std::size_t nl = wire.find('\n', i);
    records.push_back(
        serve::parse_trace_line(std::string_view(wire).substr(i, nl - i))
            .record);
    i = nl + 1;
  }
  SimTime last = SimTime::zero();
  std::uint64_t max_seq = 0;
  for (const sim::TraceRecord& r : records) {
    last = std::max(last, r.at);
    max_seq = std::max(max_seq, r.seq);
  }
  const Duration shift = (last - SimTime::zero()) + Duration::seconds(1);

  check::StreamCheckerConfig cfg;
  cfg.num_processes = run.doors + 1;
  cfg.send_retention = serve::SoakServerConfig{}.send_retention;
  check::StreamChecker checker(cfg);
  const auto feed_pass = [&] {
    for (sim::TraceRecord& r : records) {
      r.at = r.at + shift;
      if (r.seq != 0) r.seq += max_seq;
      checker.feed(r);
    }
  };
  feed_pass();
  Scope scope;
  feed_pass();
  EXPECT_EQ(scope.allocations(), 0u);
  EXPECT_TRUE(checker.finish().clean());
}

// --- 5. sharded window driver ----------------------------------------------

// The Δ-windowed shard machinery (DESIGN.md §14) in steady state: per-shard
// timer chains that emit cross-shard traffic into outboxes, drained at every
// fence by the exchange hook. Once the schedulers' slabs and the outbox
// vectors reach their peak capacity, a whole measured run — schedule, fire,
// outbox push, exchange, inject — must never touch the allocator. It runs
// inline (pool_threads = 1) and on a crew of two: the window hand-off, the
// barrier and the driver thread's own share of shard turns allocate
// nothing per window either. The counters are thread-local, so the crew
// case counts the driver thread only; a helper's allocations are not
// counted (the crew is started by the constructor, outside the scope). The
// transport delivery path the exchange replays is pinned separately by the
// broadcast tests above.

struct WindowChain {
  sim::Scheduler* sched = nullptr;
  std::vector<std::pair<SimTime, std::uint64_t>>* outbox = nullptr;
  std::size_t remaining = 0;
  std::uint64_t fired = 0;
  std::uint64_t received = 0;

  void arm() {
    if (remaining == 0) return;
    --remaining;
    sched->schedule_after(
        Duration::millis(1), sim::Scheduler::Callback([this] {
          ++fired;
          outbox->push_back({sched->now() + Duration::millis(5), fired});
          arm();
        }));
  }
};

std::uint64_t sharded_window_allocs(std::size_t ticks, std::size_t pool_threads,
                                    std::uint64_t* fired_out) {
  constexpr std::size_t kShards = 4;
  std::vector<std::unique_ptr<sim::Simulation>> sims;
  std::vector<sim::Simulation*> raw;
  std::vector<std::vector<std::pair<SimTime, std::uint64_t>>> outboxes(kShards);
  std::vector<WindowChain> chains(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    sim::SimConfig cfg;
    sims.push_back(std::make_unique<sim::Simulation>(cfg));
    raw.push_back(sims.back().get());
    chains[s].sched = &sims.back()->scheduler();
    chains[s].outbox = &outboxes[s];
  }
  const auto exchange = [&](SimTime) -> std::size_t {
    std::size_t moved = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      WindowChain& dst = chains[(s + 1) % kShards];
      for (const auto& [at, payload] : outboxes[s]) {
        dst.sched->schedule_at(
            at, payload, sim::Scheduler::Callback([&dst] { ++dst.received; }));
        ++moved;
      }
      outboxes[s].clear();
    }
    return moved;
  };
  const auto drive = [&](std::size_t n) {
    for (std::size_t s = 0; s < kShards; ++s) {
      chains[s].remaining = n;
      chains[s].arm();
    }
    sim::ShardedSimulation::Config cfg;
    cfg.window = Duration::millis(5);
    cfg.horizon = chains[0].sched->now() +
                  Duration::millis(static_cast<std::int64_t>(n) + 16);
    cfg.pool_threads = pool_threads;
    return sim::ShardedSimulation(raw, cfg);
  };

  // Warmup: one full drive reaches peak calendar + outbox capacity.
  {
    sim::ShardedSimulation warm = drive(256);
    warm.run(exchange);
  }
  sim::ShardedSimulation driver = drive(ticks);
  Scope scope;
  driver.run(exchange);
  std::uint64_t fired = 0;
  for (const WindowChain& c : chains) fired += c.fired;
  if (fired_out != nullptr) *fired_out = fired;
  return scope.allocations();
}

TEST(AllocGuard, ShardedWindowSteadyStateIsAllocationFree) {
  for (const std::size_t pool_threads : {std::size_t{1}, std::size_t{2}}) {
    std::uint64_t fired = 0;
    const std::uint64_t allocs =
        sharded_window_allocs(2'000, pool_threads, &fired);
    // warmup + measured, all shards
    EXPECT_EQ(fired, 4u * (256 + 2'000)) << pool_threads << " threads";
    EXPECT_EQ(allocs, 0u) << pool_threads << " threads";
  }
}

// --- 6. fault layer --------------------------------------------------------

// The fault schedule's steady-state queries — down(), drift_offset(),
// partition_epoch() — sit on the transport's per-message hot path when a
// plan is installed (DESIGN.md §15), and the checker's fault-record feed is
// part of the soak server's always-on loop. Both must be allocation-free
// once warm: the schedule is immutable pure data, and the checker's
// down/cut replay state is sized at construction (cut_edges_ reserved).

std::uint64_t fault_schedule_query_allocs(std::size_t queries) {
  const sim::FaultSchedule sched(sim::parse_fault_plan(
      "crash:1@1+2;crash:2@5+1;cut:1-2@2+2;cut:1-3@6+3;drift:1@0+4:100"));
  // Warmup (nothing to warm — the schedule never mutates — but keep the
  // shape uniform with the other pinned paths).
  std::uint64_t sink = 0;
  const auto probe = [&](std::size_t i) {
    const SimTime t = SimTime::zero() +
                      Duration::millis(static_cast<std::int64_t>(i % 9000));
    const ProcessId pid = static_cast<ProcessId>(1 + i % 3);
    sink += sched.down(pid, t) ? 1u : 0u;
    sink += static_cast<std::uint64_t>(
        sched.drift_offset(pid, t).count_nanos());
    sink += sched.partition_epoch(t);
  };
  for (std::size_t i = 0; i < 64; ++i) probe(i);
  Scope scope;
  for (std::size_t i = 0; i < queries; ++i) probe(i);
  // Defeat optimizing the loop away.
  EXPECT_GT(sink, 0u);
  return scope.allocations();
}

std::uint64_t checker_fault_feed_allocs(std::uint64_t rounds) {
  check::StreamCheckerConfig cfg;
  cfg.num_processes = 4;
  cfg.send_retention = Duration::seconds(1);
  check::StreamChecker checker(cfg);
  sim::TraceRecord rec;
  rec.seq = 0;
  const auto run_round = [&](std::uint64_t round) {
    const SimTime base =
        SimTime::zero() +
        Duration::millis(static_cast<std::int64_t>(round) * 10);
    const auto fault = [&](Duration off, sim::TraceKind kind, ProcessId pid,
                           ProcessId peer) {
      rec.at = base + off;
      rec.kind = kind;
      rec.pid = pid;
      rec.peer = peer;
      checker.feed(rec);
    };
    fault(Duration::zero(), sim::TraceKind::kCrash, 2, kNoProcess);
    fault(Duration::millis(1), sim::TraceKind::kPartition, 1, 3);
    fault(Duration::millis(4), sim::TraceKind::kRestart, 2, kNoProcess);
    fault(Duration::millis(5), sim::TraceKind::kHeal, 1, 3);
  };
  const std::uint64_t warmup_rounds = 256;
  for (std::uint64_t r = 0; r < warmup_rounds; r++) run_round(r);
  Scope scope;
  for (std::uint64_t r = 0; r < rounds; r++) run_round(warmup_rounds + r);
  const std::uint64_t allocs = scope.allocations();
  EXPECT_EQ(checker.finish().total_violations(), 0u)
      << "workload must be clean";
  return allocs;
}

TEST(AllocGuard, FaultScheduleQueriesAreAllocationFree) {
  EXPECT_EQ(fault_schedule_query_allocs(10'000), 0u);
}

TEST(AllocGuard, StreamCheckerFaultFeedIsAllocationFree) {
  EXPECT_EQ(checker_fault_feed_allocs(2'000), 0u);
}

// With a cut active the transport routes through its cut mask, whose
// breadth-first row is recomputed on every change of source. The row and
// its queue are sized when the transport is built, so once the calendar is
// warm neither kind of transmit allocates.
std::uint64_t cut_transmit_allocs(std::size_t rounds) {
  constexpr std::size_t kProcs = 8;
  sim::SimConfig cfg;
  cfg.horizon = SimTime::from_seconds(3600.0);
  sim::Simulation sim(cfg);
  net::Transport transport(sim, net::Overlay::ring(kProcs),
                           std::make_unique<net::FixedDelay>(
                               Duration::millis(5)),
                           std::make_unique<net::NoLoss>(),
                           sim.rng_for("transport"));
  const sim::FaultSchedule faults(sim::parse_fault_plan("cut:0-1@0+3600"));
  transport.set_fault_schedule(&faults);
  std::uint64_t delivered = 0;
  for (ProcessId p = 0; p < kProcs; p++) {
    transport.register_handler(
        p, [&delivered](const net::Message&) { delivered++; });
  }
  net::SenseReportPayload report;
  report.attribute = "x";
  report.strobe_vector = clocks::VectorStamp(kProcs);
  net::Message proto;
  proto.kind = net::MessageKind::kStrobe;
  proto.payload = net::SharedPayload(report);
  const auto round = [&](std::size_t r) {
    net::Message msg = proto;
    msg.src = static_cast<ProcessId>(r % kProcs);
    transport.broadcast(msg);
    for (ProcessId src = 0; src < kProcs; src++) {
      msg.src = src;
      msg.dst = static_cast<ProcessId>((src + 3) % kProcs);
      transport.unicast(msg);
    }
    sim.scheduler().run();
  };
  // Warmup: one round per broadcast source grows the calendar to its peak.
  for (std::size_t r = 0; r < kProcs; r++) round(r);
  Scope scope;
  for (std::size_t r = 0; r < rounds; r++) round(r);
  const std::uint64_t allocs = scope.allocations();
  // Every copy arrived, the ones across the cut the long way round.
  EXPECT_EQ(delivered, (rounds + kProcs) * (2 * kProcs - 1));
  return allocs;
}

TEST(AllocGuard, TransmitAroundAnActiveCutIsAllocationFree) {
  EXPECT_EQ(cut_transmit_allocs(256), 0u);
}

// --- 7. trace hand-off ------------------------------------------------------

// A K = 1 traced run whose ring kept everything. Copying the trace, or a
// stable sort's N/2-record buffer, would cost at least half the trace's
// bytes; the hand-off must stay under a quarter.
TEST(AllocGuard, TraceHandOffCopiesNoRecords) {
  core::ShardedSystemConfig config;
  config.base.num_sensors = 6;
  config.base.sim.seed = 11;
  config.base.sim.horizon = SimTime::zero() + Duration::seconds(20);
  config.base.sim.trace_capacity = 1 << 20;
  core::ShardedPervasiveSystem system(config);
  std::vector<std::unique_ptr<world::AttributeDriver>> drivers;
  for (ProcessId pid = 1; pid <= 6; ++pid) {
    // Built with += : GCC 12's -Wrestrict false-fires on `"o" + <rvalue
    // string>` under -O3.
    std::string name = "o";
    name += std::to_string(pid);
    const auto obj = system.world().create_object(name);
    system.world().object(obj).set_attribute("count", std::int64_t{0});
    system.assign(obj, "count", pid);
    drivers.push_back(std::make_unique<world::AttributeDriver>(
        system.world(), obj, "count",
        std::make_unique<world::PoissonArrivals>(20.0),
        std::make_unique<world::CounterValue>(),
        system.sim().rng_for("d", pid)));
    drivers.back()->start();
  }
  system.run();
  ASSERT_EQ(system.trace_evicted(), 0u);

  Scope scope;
  const std::vector<sim::TraceRecord> trace = system.trace_records();
  const std::uint64_t bytes = scope.bytes();
  ASSERT_GT(trace.size(), 10'000u);
  EXPECT_LT(bytes, sizeof(sim::TraceRecord) * trace.size() / 4)
      << bytes << " bytes allocated handing off " << trace.size()
      << " records";
}

// --- 8. wire ingest --------------------------------------------------------

/// Exporter lines of `rounds` clean 10 ms rounds from round `first` on, in
/// time order: every process senses (a strobe the other processes deliver)
/// and sends one computation message the root receives.
std::string wire_rounds(std::uint64_t first, std::uint64_t rounds) {
  constexpr ProcessId kProcesses = 8;
  std::string out;
  sim::TraceRecord rec;
  const Name entered("entered");
  for (std::uint64_t round = first; round < first + rounds; round++) {
    SimTime at = SimTime::zero() +
                 Duration::millis(static_cast<std::int64_t>(round) * 10);
    const auto emit = [&](sim::TraceKind kind, ProcessId pid, ProcessId peer,
                          net::MessageKind msg, std::uint64_t seq) {
      at += Duration::micros(10);
      rec.at = at;
      rec.kind = kind;
      rec.pid = pid;
      rec.peer = peer;
      rec.message_kind = static_cast<int>(msg);
      rec.bytes = kind == sim::TraceKind::kSense ? 0 : 57;
      rec.seq = seq;
      rec.note = kind == sim::TraceKind::kSense ? entered : Name();
      analysis::append_trace_line(out, rec);
    };
    for (ProcessId p = 1; p < kProcesses; p++) {
      const std::uint64_t seq = 2 * (round * kProcesses + p);
      emit(sim::TraceKind::kSense, p, kNoProcess, net::MessageKind::kStrobe,
           seq);
      for (ProcessId q = 0; q < kProcesses; q++) {
        if (q == p) continue;
        emit(sim::TraceKind::kDeliver, q, p, net::MessageKind::kStrobe, seq);
      }
      emit(sim::TraceKind::kSend, p, 0, net::MessageKind::kComputation,
           seq + 1);
      emit(sim::TraceKind::kReceive, 0, p, net::MessageKind::kComputation,
           seq + 1);
    }
  }
  return out;
}

std::uint64_t wire_ingest_allocs(std::uint64_t rounds) {
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  constexpr std::uint64_t kWarmupRounds = 512;
  const std::string warmup = wire_rounds(0, kWarmupRounds);
  const std::string measured = wire_rounds(kWarmupRounds, rounds);
  serve::SessionConfig cfg;
  cfg.soak.num_processes = 8;
  cfg.soak.send_retention = Duration::seconds(2);
  cfg.soak.metrics_every = 0;
  std::size_t written = 0;
  serve::Session session(cfg, [&written](std::string_view chunk) {
    written += chunk.size();
    return true;
  });
  const auto feed = [&session](std::string_view wire) {
    for (std::size_t i = 0; i < wire.size(); i += kChunk) {
      session.on_data(wire.substr(i, kChunk));
    }
  };
  // Warmup: past the retention window, so the checker's working set and
  // the reassembly buffer have reached their peak.
  feed(warmup);
  Scope scope;
  feed(measured);
  const std::uint64_t allocs = scope.allocations();
  EXPECT_EQ(written, 0u) << "workload must emit no events before eof";
  const serve::SoakReport& report = session.finish();
  EXPECT_EQ(report.exit_code, 0);
  EXPECT_EQ(report.records_fed, (kWarmupRounds + rounds) * 7 * 10);
  return allocs;
}

TEST(AllocGuard, WireIngestIsAllocationFree) {
  EXPECT_EQ(wire_ingest_allocs(512), 0u);

  // A note without escapes is a view into the line: no line allocates.
  const std::string lines = wire_rounds(0, 1);
  std::vector<std::string_view> all;
  for (std::size_t i = 0; i < lines.size();) {
    const std::size_t nl = lines.find('\n', i);
    all.emplace_back(lines.data() + i, nl - i);
    i = nl + 1;
  }
  Scope scope;
  std::size_t parsed = 0;
  std::size_t noted = 0;
  for (const std::string_view line : all) {
    const serve::ParsedRecord record = serve::parse_trace_line(line);
    parsed += record.ok() ? 1u : 0u;
    noted += record.note() == "entered" ? 1u : 0u;
  }
  EXPECT_EQ(scope.allocations(), 0u);
  EXPECT_EQ(parsed, all.size());
  EXPECT_EQ(noted, 7u);
}

// --- 8-thread repeat -------------------------------------------------------

// Counters are thread-local, so each thread independently asserts zero for
// its own workload; the pinned paths run concurrently to shake out any
// hidden shared-state allocation (there must be none — these paths are all
// per-run/per-session state by design).
TEST(AllocGuard, AllPinnedPathsStayAllocationFreeOn8Threads) {
  constexpr int kThreads = 8;
  std::vector<std::uint64_t> allocs(kThreads, ~0ull);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([t, &allocs] {
      std::uint64_t total = 0;
      switch (t % 8) {
        case 0:
          total = scheduler_steady_allocs(2'000);
          break;
        case 1:
          total = broadcast_allocs(8, 16).deliver;
          break;
        case 2:
          for (const core::Detector* d : core::all_online_detectors()) {
            total += detector_feed_allocs(d->kind(), 128, nullptr);
          }
          break;
        case 3:
          total = stream_checker_feed_allocs(256, nullptr);
          break;
        case 4:
          total = sharded_window_allocs(512, 1, nullptr);
          break;
        case 5:
          total = fault_schedule_query_allocs(2'000);
          break;
        case 6:
          total = checker_fault_feed_allocs(512);
          break;
        case 7:
          total = wire_ingest_allocs(64);
          break;
      }
      allocs[static_cast<std::size_t>(t)] = total;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; t++) {
    EXPECT_EQ(allocs[static_cast<std::size_t>(t)], 0u) << "thread " << t;
  }
}

}  // namespace
}  // namespace psn
