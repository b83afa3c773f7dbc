// Micro-benchmarks of the simulation substrate: event-calendar throughput,
// strobe broadcast fan-out through the transport, end-to-end system steps,
// detector and oracle evaluation, trace recording and ordering, wire ingest,
// stream checking, the race audit, and lattice enumeration cost.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/export.hpp"
#include "check/race_scan.hpp"
#include "check/stream_checker.hpp"
#include "common/alloc_guard.hpp"
#include "core/detectors.hpp"
#include "core/execution_view.hpp"
#include "core/lattice.hpp"
#include "core/oracle.hpp"
#include "core/predicate_parser.hpp"
#include "core/sharded_system.hpp"
#include "serve/session.hpp"
#include "serve/trace_feed.hpp"
#include "sim/fault.hpp"
#include "sim/trace.hpp"
#include "world/generators.hpp"
#include "world/scenarios.hpp"

namespace {

using namespace psn;

void BM_SchedulerScheduleAndRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler sched;
    for (std::size_t i = 0; i < n; ++i) {
      sched.schedule_at(SimTime(static_cast<std::int64_t>(i)), [] {});
    }
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchedulerScheduleAndRun)->Range(1 << 10, 1 << 16);

/// n self-rearming timers, each re-armed at now() plus a uniform delay in
/// [0.1 ms, 1 ms]: the calendar shape random network delays give.
struct RandomDelayTimers {
  sim::Scheduler sched;
  Rng rng{1};
  void arm() {
    sched.schedule_after(Duration::nanos(rng.uniform_int(100'000, 1'000'000)),
                         [this] { arm(); });
  }
};

void BM_SchedulerRandomDelay(benchmark::State& state) {
  // Random-delay scheduler row: a re-armed timer lands before the monotone
  // run's tail almost always, so this row prices the overflow heap at n
  // pending events (DESIGN.md §11). Each iteration runs a fixed number of
  // events on the warm calendar.
  constexpr std::size_t kEvents = std::size_t{1} << 16;
  const auto n = static_cast<std::size_t>(state.range(0));
  RandomDelayTimers timers;
  for (std::size_t i = 0; i < n; ++i) timers.arm();
  for (auto _ : state) benchmark::DoNotOptimize(timers.sched.run(kEvents));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kEvents));
}
BENCHMARK(BM_SchedulerRandomDelay)->Range(1 << 10, 1 << 16);

void BM_TransportBroadcast(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::SimConfig cfg;
  cfg.horizon = SimTime::max();
  sim::Simulation sim(cfg);
  net::Transport transport(sim, net::Overlay::complete(n),
                           std::make_unique<net::FixedDelay>(Duration::millis(1)),
                           std::make_unique<net::NoLoss>(), Rng(1));
  for (ProcessId p = 0; p < n; ++p) {
    transport.register_handler(p, [](const net::Message&) {});
  }
  net::Message msg;
  msg.src = 0;
  msg.kind = net::MessageKind::kStrobe;
  net::SenseReportPayload payload;
  payload.strobe_vector = clocks::VectorStamp(n);
  msg.payload = payload;
  for (auto _ : state) {
    transport.broadcast(msg);
    sim.scheduler().run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n - 1));
}
BENCHMARK(BM_TransportBroadcast)->RangeMultiplier(4)->Range(4, 64);

void BM_FullOccupancySecond(benchmark::State& state) {
  // Cost of one simulated second of the standard occupancy system,
  // including sensing, stamping, broadcast, and logging.
  const auto doors = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    core::ShardedSystemConfig config;
    core::SystemConfig& sys = config.base;
    sys.num_sensors = doors;
    sys.sim.seed = 1;
    sys.sim.horizon = SimTime::zero() + Duration::seconds(1);
    sys.delta = Duration::millis(50);
    core::ShardedPervasiveSystem system(config);
    std::vector<std::unique_ptr<world::AttributeDriver>> drivers;
    for (ProcessId pid = 1; pid <= doors; ++pid) {
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
    benchmark::DoNotOptimize(system.run());
  }
}
BENCHMARK(BM_FullOccupancySecond)->RangeMultiplier(2)->Range(2, 16);

void BM_DetectorThroughput(benchmark::State& state) {
  // Updates/second each online detector can process, on a prebuilt log.
  core::ShardedSystemConfig config;
  core::SystemConfig& sys = config.base;
  sys.num_sensors = 4;
  sys.sim.seed = 3;
  sys.sim.horizon = SimTime::zero() + Duration::seconds(30);
  sys.delta = Duration::millis(50);
  core::ShardedPervasiveSystem system(config);
  std::vector<std::unique_ptr<world::AttributeDriver>> drivers;
  for (ProcessId pid = 1; pid <= 4; ++pid) {
    std::string name = "o";
    name += std::to_string(pid);
    const auto obj = system.world().create_object(name);
    system.world().object(obj).set_attribute("count", std::int64_t{0});
    system.assign(obj, "count", pid);
    drivers.push_back(std::make_unique<world::AttributeDriver>(
        system.world(), obj, "count",
        std::make_unique<world::PoissonArrivals>(50.0),
        std::make_unique<world::CounterValue>(),
        system.sim().rng_for("d", pid)));
    drivers.back()->start();
  }
  system.run();
  const auto phi = core::parse_predicate("p", "sum(count) > 1000");
  const auto detectors = core::all_online_detectors();
  const auto& detector = detectors[static_cast<std::size_t>(state.range(0))];
  state.SetLabel(detector->name());
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector->run(system.log(), phi));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(system.log().updates.size()));
}
BENCHMARK(BM_DetectorThroughput)->DenseRange(0, 3);

void BM_AggregateEvaluate(benchmark::State& state) {
  // Detector-evaluation ladder row: one steady-state update of the
  // exhibition-hall predicate over n doors (2·n variables), i.e. what the
  // oracle and every detector do per delivered report: find the update's
  // column in the state bound to φ, set the variable, evaluate φ.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto phi =
      core::parse_predicate("hall", "sum(entered) - sum(exited) > 0");
  core::GlobalState global(phi);
  std::vector<core::VarRef> vars;
  for (ProcessId pid = 1; pid <= n; ++pid) {
    vars.push_back({pid, "entered"});
    vars.push_back({pid, "exited"});
  }
  std::vector<double> counts(vars.size(), 0.0);
  for (const core::VarRef& v : vars) {
    global.set(*global.column(v.name), v.pid, 0.0);
  }
  std::size_t next = 0;
  std::uint64_t allocs = 0;  // counted per update, so the harness's own
                             // start/stop allocations are not charged
  for (auto _ : state) {
    const std::uint64_t before = alloc_guard::thread_allocations();
    const core::VarRef& v = vars[next];
    global.set(*global.column(v.name), v.pid, ++counts[next]);
    benchmark::DoNotOptimize(phi.holds(global));
    allocs += alloc_guard::thread_allocations() - before;
    if (++next == vars.size()) next = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["allocs_per_update"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_AggregateEvaluate)->Arg(32)->Arg(3000)->Arg(100000);

void BM_OracleEvaluate(benchmark::State& state) {
  // Oracle ladder row: GroundTruthOracle::evaluate over a pre-rolled city
  // timeline (psn_cli's city preset at n doors, 2 s, seed 1), reported per
  // world event.
  const auto doors = static_cast<int>(state.range(0));
  sim::SimConfig sim_cfg;
  sim_cfg.seed = 1;
  sim_cfg.horizon = SimTime::zero() + Duration::seconds(2);
  sim::Simulation sim(sim_cfg);
  world::WorldModel world(sim);
  world::ExhibitionHallConfig hall_cfg;
  hall_cfg.doors = doors;
  hall_cfg.capacity = doors / 2;
  hall_cfg.movement_rate = 2000.0;
  hall_cfg.target_occupancy = static_cast<double>(hall_cfg.capacity);
  hall_cfg.initial_occupancy = hall_cfg.capacity - 10;
  world::ExhibitionHall hall(world, hall_cfg, sim.rng_for("hall"));
  hall.start();
  sim.run();
  core::SensingMap sensing;
  for (int k = 0; k < doors; ++k) {
    const auto pid = static_cast<ProcessId>(k + 1);
    sensing.assign(hall.door_object(k), "entered", pid);
    sensing.assign(hall.door_object(k), "exited", pid);
  }
  std::string phi = "sum(entered) - sum(exited) > ";
  phi += std::to_string(hall_cfg.capacity);
  const core::GroundTruthOracle oracle(core::parse_predicate("hall", phi),
                                       sensing);
  const auto events = static_cast<double>(world.timeline().size());
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = alloc_guard::thread_allocations();
    benchmark::DoNotOptimize(
        oracle.evaluate(world.timeline(), sim_cfg.horizon));
    allocs += alloc_guard::thread_allocations() - before;
  }
  // Inverted iteration-invariant rate: elapsed / (iterations · events · 1e-9)
  // is nanoseconds per world event.
  state.counters["ns_per_world_event"] = benchmark::Counter(
      events * 1e-9, benchmark::Counter::kIsIterationInvariantRate |
                         benchmark::Counter::kInvert);
  state.counters["allocs_per_world_event"] =
      static_cast<double>(allocs) /
      (static_cast<double>(state.iterations()) * events);
}
BENCHMARK(BM_OracleEvaluate)->Arg(3000)->Arg(100000);

void BM_TraceMerge(benchmark::State& state) {
  // Trace-recording ladder row: canonical_trace_order over one batch of a
  // 4-shard run — four shards' drained records, each nondecreasing in `at`
  // with a strobe's co-instant send fan-out and sense, then the fault
  // plan's unsorted tail.
  constexpr std::size_t kRecords = std::size_t{1} << 18;
  constexpr std::size_t kRings = 4;
  constexpr std::size_t kFaults = 16;
  Rng rng(42);
  std::vector<sim::TraceRecord> input;
  input.reserve(kRecords);
  std::uint64_t seq = 1;
  for (std::size_t ring = 0; ring < kRings; ++ring) {
    SimTime t = SimTime::zero();
    const std::size_t end = (ring + 1) * (kRecords - kFaults) / kRings;
    while (input.size() < end) {
      t = t + Duration::micros(rng.uniform_int(1, 2000));
      const auto pid = static_cast<ProcessId>(rng.uniform_int(1, 32));
      switch (rng.uniform_int(0, 2)) {
        case 0:  // a sense and its strobe fan-out
          for (ProcessId peer = 0; peer < 4 && input.size() < end; ++peer) {
            input.push_back({t, sim::TraceKind::kSend, pid, peer, 1, 57, {},
                             seq});
          }
          if (input.size() < end) {
            input.push_back({t, sim::TraceKind::kSense, pid, kNoProcess, -1, 0,
                             "entered", seq});
          }
          ++seq;
          break;
        case 1:
          input.push_back({t, sim::TraceKind::kDeliver, pid, 0, 1, 57, {},
                           seq - 1});
          break;
        default:
          input.push_back({t, sim::TraceKind::kReceive, pid, 0, 0, 0, {},
                           seq - 1});
          break;
      }
    }
  }
  while (input.size() < kRecords) {
    const SimTime at =
        SimTime::zero() + Duration::millis(rng.uniform_int(0, 60'000));
    input.push_back({at, sim::TraceKind::kCrash,
                     static_cast<ProcessId>(rng.uniform_int(1, 32)), kNoProcess,
                     -1, 0, {}, 0});
  }
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
  std::vector<sim::TraceRecord> records;
  for (auto _ : state) {
    state.PauseTiming();
    records = input;
    state.ResumeTiming();
    const std::uint64_t allocs_before = alloc_guard::thread_allocations();
    const std::uint64_t bytes_before = alloc_guard::thread_bytes();
    sim::canonical_trace_order(records);
    allocs += alloc_guard::thread_allocations() - allocs_before;
    bytes += alloc_guard::thread_bytes() - bytes_before;
    benchmark::DoNotOptimize(records.data());
  }
  const auto processed =
      static_cast<double>(state.iterations()) * static_cast<double>(kRecords);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRecords));
  state.counters["allocs_per_update"] = static_cast<double>(allocs) / processed;
  state.counters["bytes_per_record"] = static_cast<double>(bytes) / processed;
}
BENCHMARK(BM_TraceMerge);

void BM_TraceRecord(benchmark::State& state) {
  // Trace-recording ladder row: TraceRecorder::record per record, in the
  // pattern a broadcast run writes (a sense, then a send and a delivery per
  // copy of its strobe). Arg 1 pre-sizes the buffer as an export does;
  // arg 0 grows it by doubling.
  constexpr std::size_t kRecords = std::size_t{1} << 16;
  constexpr ProcessId kFanOut = 8;
  const bool presized = state.range(0) != 0;
  // Resolved once, as a sensor node resolves each attribute's note.
  const Name entered("entered");
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto recorder = std::make_unique<sim::TraceRecorder>(kRecords);
    state.ResumeTiming();
    const std::uint64_t allocs_before = alloc_guard::thread_allocations();
    if (presized) recorder->reserve(kRecords);
    SimTime t = SimTime::zero();
    std::uint64_t seq = 1;
    for (std::size_t n = 0; n < kRecords; ++seq) {
      t = t + Duration::micros(50);
      const auto pid = static_cast<ProcessId>(seq % 32 + 1);
      recorder->record({t, sim::TraceKind::kSense, pid, kNoProcess, -1, 0,
                        entered, seq});
      ++n;
      for (ProcessId peer = 0; peer < kFanOut && n < kRecords; ++peer, ++n) {
        recorder->record({t, sim::TraceKind::kSend, pid, peer, 1, 57, {}, seq});
      }
      for (ProcessId peer = 0; peer < kFanOut && n < kRecords; ++peer, ++n) {
        recorder->record(
            {t, sim::TraceKind::kDeliver, peer, pid, 1, 57, {}, seq});
      }
    }
    allocs += alloc_guard::thread_allocations() - allocs_before;
    benchmark::DoNotOptimize(recorder->size());
    state.PauseTiming();
    recorder.reset();
    state.ResumeTiming();
  }
  const auto processed =
      static_cast<double>(state.iterations()) * static_cast<double>(kRecords);
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
  state.counters["allocs_per_op"] = static_cast<double>(allocs) / processed;
  state.counters["record_bytes"] =
      static_cast<double>(sizeof(sim::TraceRecord));
}
BENCHMARK(BM_TraceRecord)->ArgName("presized")->Arg(0)->Arg(1);

/// The exporter's JSONL for one faulty 8-door occupancy run: every record
/// kind, detect lines and notes included, about 90 bytes a line.
const std::string& exporter_trace() {
  static const std::string wire = [] {
    analysis::OccupancyConfig cfg;
    cfg.doors = 8;
    cfg.horizon = Duration::seconds(60);
    cfg.loss_probability = 0.05;
    cfg.faults = sim::parse_fault_plan("crash:2@5+4;cut:1-3@20+10");
    cfg.trace_capacity = std::size_t{1} << 22;
    return analysis::trace_jsonl(
        analysis::run_occupancy_experiment(cfg).trace);
  }();
  return wire;
}

/// exporter_trace() split into its lines, newlines dropped.
std::vector<std::string_view> exporter_lines() {
  std::vector<std::string_view> lines;
  const std::string& wire = exporter_trace();
  for (std::size_t i = 0, nl; i < wire.size(); i = nl + 1) {
    nl = wire.find('\n', i);
    lines.emplace_back(wire.data() + i, nl - i);
  }
  return lines;
}

void BM_TraceFeedParse(benchmark::State& state) {
  // trace_feed ladder row: serve::parse_trace_line over every line of an
  // exporter trace, the record dropped as the Session drops it.
  const std::vector<std::string_view> lines = exporter_lines();
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t allocs_before = alloc_guard::thread_allocations();
    for (const std::string_view line : lines) {
      const serve::ParsedRecord parsed = serve::parse_trace_line(line);
      benchmark::DoNotOptimize(parsed.record.at);
    }
    allocs += alloc_guard::thread_allocations() - allocs_before;
  }
  const auto processed = static_cast<double>(state.iterations()) *
                         static_cast<double>(lines.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
  state.counters["allocs_per_line"] = static_cast<double>(allocs) / processed;
}
BENCHMARK(BM_TraceFeedParse);

void BM_SessionOnData(benchmark::State& state) {
  // serve::Session ladder row: a fresh stdin-mode session fed the exporter
  // trace in 64 KiB chunks, as `psn_cli serve` reads it, through finish().
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  const std::string& wire = exporter_trace();
  serve::SessionConfig cfg;
  cfg.soak.num_processes = 9;
  std::size_t records = 0;
  for (auto _ : state) {
    std::size_t written = 0;
    serve::Session session(cfg, [&written](std::string_view chunk) {
      written += chunk.size();
      return true;
    });
    for (std::size_t i = 0; i < wire.size(); i += kChunk) {
      session.on_data(std::string_view(wire).substr(i, kChunk));
    }
    const serve::SoakReport& report = session.finish();
    if (report.exit_code != 0) state.SkipWithError("trace did not verify");
    records += report.records_fed;
    benchmark::DoNotOptimize(written);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_SessionOnData);

void BM_StreamCheckerFeed(benchmark::State& state) {
  // StreamChecker::feed ladder row: trace-only mode at serve's default
  // retention, over the exporter trace's records. Every pass shifts them
  // past the previous pass in time and seq, so the stream never rewinds and
  // the checker stays warm; one untimed pass first fills and drains the
  // retention window. Items = records fed.
  std::vector<sim::TraceRecord> records;
  for (const std::string_view line : exporter_lines()) {
    records.push_back(serve::parse_trace_line(line).record);
  }
  SimTime last = SimTime::zero();
  std::uint64_t max_seq = 0;
  for (const sim::TraceRecord& r : records) {
    last = std::max(last, r.at);
    max_seq = std::max(max_seq, r.seq);
  }
  const Duration time_shift = (last - SimTime::zero()) + Duration::seconds(1);

  check::StreamCheckerConfig cfg;
  cfg.num_processes = 9;
  cfg.send_retention = serve::SoakServerConfig{}.send_retention;
  check::StreamChecker checker(cfg);
  const auto feed_pass = [&] {
    for (sim::TraceRecord& r : records) {
      r.at = r.at + time_shift;
      if (r.seq != 0) r.seq += max_seq;
      checker.feed(r);
    }
  };
  feed_pass();
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t allocs_before = alloc_guard::thread_allocations();
    feed_pass();
    allocs += alloc_guard::thread_allocations() - allocs_before;
  }
  if (!checker.finish().clean()) state.SkipWithError("stream did not verify");
  const auto processed = static_cast<double>(state.iterations()) *
                         static_cast<double>(records.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
  state.counters["allocs_per_record"] = static_cast<double>(allocs) / processed;
}
BENCHMARK(BM_StreamCheckerFeed);

void BM_LatticeCount(benchmark::State& state) {
  // Consistent-cut counting cost on a strobe execution of growing size.
  const auto events_per_proc = static_cast<double>(state.range(0));
  core::ShardedSystemConfig config;
  core::SystemConfig& sys = config.base;
  sys.num_sensors = 4;
  sys.sim.seed = 9;
  sys.sim.horizon = SimTime::zero() + Duration::seconds(4);
  sys.delta = Duration::millis(100);
  core::ShardedPervasiveSystem system(config);
  std::vector<std::unique_ptr<world::AttributeDriver>> drivers;
  for (ProcessId pid = 1; pid <= 4; ++pid) {
    std::string name = "o";
    name += std::to_string(pid);
    const auto obj = system.world().create_object(name);
    system.world().object(obj).set_attribute("count", std::int64_t{0});
    system.assign(obj, "count", pid);
    drivers.push_back(std::make_unique<world::AttributeDriver>(
        system.world(), obj, "count",
        std::make_unique<world::PoissonArrivals>(events_per_proc / 4.0),
        std::make_unique<world::CounterValue>(),
        system.sim().rng_for("d", pid)));
    drivers.back()->start();
  }
  system.run();
  const auto view = core::ExecutionView::from_strobe_stamps(system);
  std::uint64_t cuts = 0;
  for (auto _ : state) {
    const auto stats = core::lattice::count_consistent_cuts(view);
    benchmark::DoNotOptimize(stats);
    cuts = stats.consistent_cuts;
  }
  // Items are consistent cuts, so the row reads per cut whatever the
  // simulated execution's size; the counters pin that size.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cuts));
  state.counters["events"] = static_cast<double>(view.total_events());
  state.counters["cuts"] = static_cast<double>(cuts);
}
BENCHMARK(BM_LatticeCount)->DenseRange(4, 20, 8);

void BM_RaceAudit(benchmark::State& state) {
  // Race-audit ladder row: check::audit_detector over 2^15 races and a few
  // fault spans, 2^10 error times (half false positives, half false
  // negatives), items = error times audited.
  constexpr std::size_t kRaces = std::size_t{1} << 15;
  constexpr std::size_t kTimes = std::size_t{1} << 10;
  constexpr std::size_t kSpans = 64;
  Rng rng(5);
  const auto ms = [](std::int64_t v) {
    return SimTime::zero() + Duration::millis(v);
  };
  std::vector<check::RaceEvent> races(kRaces);
  std::int64_t a = 0;
  for (check::RaceEvent& r : races) {
    a += rng.uniform_int(0, 30);
    r.true_a = ms(a);
    r.true_b = ms(a + rng.uniform_int(0, 99));
  }
  std::vector<check::FaultSpan> spans(kSpans);
  for (check::FaultSpan& s : spans) {
    const std::int64_t begin = rng.uniform_int(0, a);
    s.begin = ms(begin);
    s.end = ms(begin + rng.uniform_int(0, 5000));
  }
  std::sort(spans.begin(), spans.end(),
            [](const check::FaultSpan& x, const check::FaultSpan& y) {
              return x.begin < y.begin;
            });
  std::vector<SimTime> fp(kTimes / 2);
  std::vector<SimTime> fn(kTimes / 2);
  for (SimTime& t : fp) t = ms(rng.uniform_int(0, a));
  for (SimTime& t : fn) t = ms(rng.uniform_int(0, a));
  std::sort(fp.begin(), fp.end());
  std::sort(fn.begin(), fn.end());
  check::AuditConfig cfg;
  cfg.slack = Duration::millis(20);
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t allocs_before = alloc_guard::thread_allocations();
    const check::ContractResult result =
        check::audit_detector("probe", races, spans, fp, fn, cfg);
    allocs += alloc_guard::thread_allocations() - allocs_before;
    benchmark::DoNotOptimize(result.violations_total);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTimes));
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_RaceAudit);

}  // namespace
