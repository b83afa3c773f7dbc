// psn_bench_layers — the traced half of the benchmark suite (README.md in
// this directory). It repeats one psn_cli workload in-process through the
// same public calls psn_cli reaches and records a span around each call, so
// an end-to-end number of the suite can be traced to the layer that moved.
//
//   psn_bench_layers --spans FILE [--run ID] -- <psn_cli run|check args>
//   psn_bench_layers --spans FILE [--run ID] --serve TRACE --procs N
//   psn_bench_layers --setup-reps K -- <psn_cli run|check args>
//   psn_bench_layers --ladder
//
// Stdout is one JSON object: the counters psn_cli itself prints for the same
// workload (so the suite can prove that the traced run did the black-box
// run's work), the set-up durations, or the ladder rows. Spans stay in
// memory and are written to FILE, one JSON object per line, at exit.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/export.hpp"
#include "analysis/scoring.hpp"
#include "check/race_scan.hpp"
#include "check/stream_checker.hpp"
#include "common/alloc_guard.hpp"
#include "core/detectors.hpp"
#include "core/oracle.hpp"
#include "core/predicate_parser.hpp"
#include "core/sharded_system.hpp"
#include "serve/session.hpp"
#include "serve/trace_feed.hpp"
#include "sim/fault.hpp"
#include "world/world_model.hpp"

namespace {

using namespace psn;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder. Names are views: callers pass literals or
/// names from intern(). Each span records the allocations made on the
/// calling thread between its open and close.
class SpanLog {
 public:
  struct Span {
    std::string_view name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;
    std::uint64_t items = 0;
    std::uint64_t allocs = 0;
  };

  class Scope {
   public:
    Scope(SpanLog& log, std::string_view name)
        : log_(log), index_(log.open(name)) {}
    ~Scope() { log_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void items(std::uint64_t n) { log_.spans_[index_].items = n; }

   private:
    SpanLog& log_;
    std::size_t index_;
  };

  // Reserved up front so growing the log never allocates inside a span.
  SpanLog() {
    spans_.reserve(std::size_t{1} << 14);
    open_.reserve(64);
  }

  /// A span name that lives as long as the log.
  std::string_view intern(std::string name) {
    return names_.emplace_back(std::move(name));
  }

  void write(const std::string& path, long long run) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"run\":" << run
          << ",\"items\":" << s.items << ",\"allocs\":" << s.allocs << "}\n";
    }
    if (!out) throw std::runtime_error("cannot write spans to " + path);
  }

 private:
  std::size_t open(std::string_view name) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    spans_.push_back(s);
    open_.push_back(spans_.size() - 1);
    // Counters last on open and first on close: the span covers only the
    // caller's work, not its own bookkeeping.
    spans_.back().allocs = alloc_guard::thread_allocations();
    spans_.back().start_ns = now_ns();
    return spans_.size() - 1;
  }
  void close(std::size_t index) {
    Span& s = spans_[index];
    s.end_ns = now_ns();
    s.allocs = alloc_guard::thread_allocations() - s.allocs;
    open_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::deque<std::string> names_;  // deque: growth never moves a name
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "psn_bench_layers: %s\n", why.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Workload config: the subset of psn_cli's flags the suite's run and check
// workloads use, mapped onto OccupancyConfig exactly as psn_cli's
// occupancy_config_of maps them. An unknown flag is an error, so a workload
// the suite adds without teaching this parser fails loudly instead of being
// attributed to a different configuration.

analysis::OccupancyConfig parse_workload(const std::vector<std::string>& args) {
  if (args.empty() || (args[0] != "run" && args[0] != "check")) {
    usage("expected psn_cli `run` or `check` arguments after --");
  }
  analysis::OccupancyConfig cfg;
  // psn_cli's defaults where they differ from OccupancyConfig's.
  cfg.doors = 4;
  std::string scenario = "hall";
  std::size_t trace_cap = 1000000;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& flag = args[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) usage("missing value for " + flag);
      return args[++i];
    };
    if (flag == "--scenario") {
      scenario = value();
    } else if (flag == "--doors") {
      cfg.doors = std::stoul(value());
    } else if (flag == "--seconds") {
      cfg.horizon = Duration::seconds(std::stoll(value()));
    } else if (flag == "--seed") {
      cfg.seed = std::stoull(value());
    } else if (flag == "--loss") {
      cfg.loss_probability = std::stod(value());
    } else if (flag == "--faults") {
      cfg.faults = sim::parse_fault_plan(value());
    } else if (flag == "--ge") {
      const std::string spec = value();
      double v[4];
      std::size_t pos = 0;
      for (double& p : v) {
        std::size_t used = 0;
        p = std::stod(spec.substr(pos), &used);
        pos += used + 1;
      }
      cfg.gilbert_elliott = core::SystemConfig::GilbertElliottParams{
          v[0], v[1], v[2], v[3]};
    } else if (flag == "--shards") {
      cfg.shards = std::stoul(value());
    } else if (flag == "--shard-threads") {
      cfg.shard_threads = std::stoul(value());
    } else if (flag == "--trace-cap") {
      trace_cap = std::stoul(value());
    } else if (flag == "--threads" || flag == "--csv") {
      value();  // sweep pool size and output path: no effect on one run
    } else if (flag != "--metrics") {
      usage("unsupported psn_cli flag " + flag);
    }
  }
  if (scenario == "city") {
    cfg.capacity = static_cast<int>(cfg.doors / 2);
    cfg.movement_rate = std::max(cfg.movement_rate, 2000.0);
    cfg.topology = core::TopologyKind::kStar;
    cfg.clock_mode = net::ClockMode::kPhysical;
    cfg.lean_clocks = true;
    cfg.unicast_reports = true;
  } else if (scenario != "hall") {
    usage("unsupported scenario " + scenario);
  }
  if (args[0] == "check") {
    cfg.check = true;
    cfg.trace_capacity = trace_cap;
  }
  analysis::validate(cfg);
  return cfg;
}

// ---------------------------------------------------------------------------
// The stages of analysis::run_occupancy_experiment, called one by one.

core::ShardedSystemConfig system_config(const analysis::OccupancyConfig& c) {
  core::ShardedSystemConfig scfg;
  core::SystemConfig& sys = scfg.base;
  sys.num_sensors = c.doors;
  sys.sim.seed = c.seed;
  sys.sim.horizon = SimTime::zero() + c.horizon;
  sys.sim.trace_capacity = c.trace_capacity;
  sys.delay_kind = c.delay_kind;
  sys.delta = c.delta;
  sys.clock_mode = c.clock_mode;
  sys.clock_config.sync_epsilon = c.sync_epsilon;
  sys.clock_config.track_vectors = !c.lean_clocks;
  sys.topology = c.topology;
  sys.loss_probability = c.loss_probability;
  sys.loss_windows = c.loss_windows;
  sys.gilbert_elliott = c.gilbert_elliott;
  sys.faults = c.faults;
  sys.duty_cycle = c.duty_cycle;
  sys.duty_phases_aligned = c.duty_phases_aligned;
  sys.fifo_channels = c.fifo_channels;
  sys.validity_horizon = c.validity_horizon;
  scfg.shards = c.shards;
  scfg.pool_threads = c.shard_threads;
  scfg.unicast_reports = c.unicast_reports;
  return scfg;
}

/// The pre-rolled world plane: a throwaway simulation whose ground-truth
/// timeline the system replays.
struct Preroll {
  static sim::SimConfig sim_config(const analysis::OccupancyConfig& c) {
    sim::SimConfig cfg;
    cfg.seed = c.seed;
    cfg.horizon = SimTime::zero() + c.horizon;
    return cfg;
  }
  static world::ExhibitionHallConfig hall_config(
      const analysis::OccupancyConfig& c) {
    world::ExhibitionHallConfig cfg;
    cfg.doors = static_cast<int>(c.doors);
    cfg.capacity = c.capacity;
    cfg.movement_rate = c.movement_rate;
    cfg.target_occupancy = static_cast<double>(c.capacity);
    cfg.initial_occupancy = c.capacity > 10 ? c.capacity - 10 : 0;
    return cfg;
  }

  explicit Preroll(const analysis::OccupancyConfig& c)
      : sim(sim_config(c)),
        world(sim),
        hall(world, hall_config(c), sim.rng_for("hall")) {
    hall.start();
    sim.run();
  }

  sim::Simulation sim;
  world::WorldModel world;
  world::ExhibitionHall hall;
};

std::unique_ptr<core::ShardedPervasiveSystem> build_system(
    const analysis::OccupancyConfig& c, const Preroll& pre) {
  auto system =
      std::make_unique<core::ShardedPervasiveSystem>(system_config(c));
  for (int k = 0; k < pre.hall.doors(); ++k) {
    const auto pid = static_cast<ProcessId>(k + 1);
    system->assign(pre.hall.door_object(k), "entered", pid);
    system->assign(pre.hall.door_object(k), "exited", pid);
  }
  system->set_world_events(pre.world.timeline().events());
  system->reserve_root_logs(
      static_cast<std::size_t>(c.movement_rate * c.horizon.to_seconds()) + 1);
  return system;
}

/// Writes `key: value` pairs as one JSON object on stdout.
class JsonOut {
 public:
  JsonOut& num(const std::string& key, double v) {
    field(key) += analysis::json_general(v, 17);
    return *this;
  }
  JsonOut& str(const std::string& key, const std::string& v) {
    field(key) += "\"" + analysis::json_escape(v) + "\"";
    return *this;
  }
  JsonOut& raw(const std::string& key, const std::string& json) {
    field(key) += json;
    return *this;
  }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  std::string& field(const std::string& key) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + analysis::json_escape(key) + "\":";
    return body_;
  }
  std::string body_;
};

/// One traced pass of a run/check workload, in run_occupancy_experiment's
/// order. Prints the counters psn_cli reports for the same configuration.
void traced_run(const analysis::OccupancyConfig& config, SpanLog& spans) {
  const auto detectors = core::all_online_detectors();
  std::vector<std::string_view> detector_spans;
  for (const auto& d : detectors) {
    detector_spans.push_back(spans.intern("core.detector." + d->name()));
  }
  const core::Predicate predicate = core::parse_predicate(
      "overcrowded",
      "sum(entered) - sum(exited) > " + std::to_string(config.capacity));
  analysis::ScoreConfig score_cfg;
  score_cfg.tolerance = config.effective_tolerance();
  const SimTime horizon = SimTime::zero() + config.horizon;

  std::optional<Preroll> pre;
  std::unique_ptr<core::ShardedPervasiveSystem> system;
  core::OracleResult oracle;
  std::vector<sim::TraceRecord> trace;
  std::optional<check::CheckReport> report;
  std::vector<analysis::DetectorOutcome> outcomes;
  std::size_t race_pairs_max = 0;
  {
    SpanLog::Scope root(spans, "pipeline");
    {
      SpanLog::Scope s(spans, "world.preroll");
      pre.emplace(config);
      s.items(pre->world.timeline().size());
    }
    {
      SpanLog::Scope s(spans, "core.system_build");
      system = build_system(config, *pre);
      s.items(system->num_processes());
    }
    {
      SpanLog::Scope s(spans, "core.system_run");
      s.items(system->run());
    }
    {
      SpanLog::Scope s(spans, "core.oracle");
      core::GroundTruthOracle o(predicate, system->sensing());
      oracle = o.evaluate(pre->world.timeline(), horizon);
      s.items(pre->world.timeline().size());
    }
    if (config.trace_capacity > 0) {
      SpanLog::Scope s(spans, "sim.trace_merge");
      trace = system->trace_records();
      s.items(trace.size());
    }
    if (config.check) {
      check::RunInputs inputs;
      {
        SpanLog::Scope s(spans, "check.inputs");
        inputs.num_processes = system->num_processes();
        inputs.sync_epsilon = config.sync_epsilon;
        inputs.drifting = system->config().base.clock_config.drifting;
        inputs.executions.resize(inputs.num_processes);
        const auto executions = system->sensor_executions();
        for (ProcessId p = 1; p < inputs.num_processes; ++p) {
          inputs.executions[p] = *executions[p - 1];
        }
        inputs.trace = trace;
        inputs.trace_evicted = system->trace_evicted();
      }
      check::CheckOptions options;
      options.validity_horizon = config.validity_horizon;
      options.faults = system->faults();
      SpanLog::Scope s(spans, "check.check_run");
      report = check::check_run(inputs, options);
      s.items(inputs.trace.size());
    }
    for (std::size_t i = 0; i < detectors.size(); ++i) {
      const auto& detector = detectors[i];
      if (config.lean_clocks && detector->name() == "strobe-vector") continue;
      analysis::DetectorOutcome out;
      out.detector = detector->name();
      {
        SpanLog::Scope s(spans, detector_spans[i]);
        out.detections = detector->run(system->log(), predicate);
        s.items(system->log().updates.size());
      }
      {
        SpanLog::Scope s(spans, "analysis.score");
        out.score = analysis::score_detections(oracle, out.detections, score_cfg);
        out.belief_accuracy =
            analysis::belief_accuracy(oracle, out.detections, horizon);
        s.items(out.detections.size());
      }
      if (config.trace_capacity > 0) {
        for (const core::Detection& d : out.detections) {
          trace.push_back({d.detected_at, sim::TraceKind::kDetect, 0,
                           kNoProcess, -1, 0,
                           out.detector + (d.to_true ? ":true" : ":false")});
        }
      }
      outcomes.push_back(std::move(out));
    }
    if (report && config.delay_kind == core::DelayKind::kUniformBounded &&
        report->trace_evicted == 0) {
      std::vector<check::RaceEvent> delta_races, eps_races;
      {
        SpanLog::Scope s(spans, "check.race_scan");
        check::RaceScanConfig delta_scan;
        delta_scan.window = system->delta_bound();
        delta_races = check::scan_races(system->log(), delta_scan);
        check::RaceScanConfig eps_scan;
        eps_scan.window = config.sync_epsilon * 2;
        eps_races = check::scan_races(system->log(), eps_scan);
        s.items(system->log().updates.size());
      }
      std::vector<check::FaultSpan> fault_spans;
      {
        SpanLog::Scope s(spans, "check.fault_spans");
        check::FaultSpanConfig span_cfg;
        span_cfg.delta_bound = system->delta_bound();
        fault_spans = check::collect_fault_spans(trace, system->log(), span_cfg);
        s.items(trace.size());
      }
      SpanLog::Scope s(spans, "check.audit");
      check::AuditConfig audit;
      audit.slack = score_cfg.tolerance;
      for (const analysis::DetectorOutcome& out : outcomes) {
        const bool physical = out.detector == "physical-eps";
        report->add_contract(check::audit_detector(
            out.detector, physical ? eps_races : delta_races, fault_spans,
            out.score.fp_cause_times, out.score.fn_occurrence_times, audit));
        race_pairs_max =
            std::max(race_pairs_max, report->contracts.back().pairs_checked);
      }
      s.items(outcomes.size());
    }
  }

  const MetricsSnapshot snapshot = system->metrics_snapshot();
  std::string counters = "{";
  auto counter = [&](const std::string& name, std::uint64_t v) {
    if (counters.size() > 1) counters += ",";
    counters += "\"" + name + "\":" + std::to_string(v);
  };
  counter("sim.events_executed", snapshot.counters.at("sim.events_executed"));
  counter("world.events", pre->world.timeline().size());
  for (const analysis::DetectorOutcome& out : outcomes) {
    const std::string p = "detector." + out.detector;
    counter(p + ".detections", out.detections.size());
    counter(p + ".true_positives", out.score.true_positives);
    counter(p + ".false_positives", out.score.false_positives);
    counter(p + ".false_negatives", out.score.false_negatives);
  }
  counters += "}";
  JsonOut out;
  out.raw("counters", counters);
  out.num("race_pairs_max", static_cast<double>(race_pairs_max));
  if (report) out.str("check_summary", report->summary());
  out.print();
}

/// Set-up only — world pre-roll plus system construction, the two spans a
/// traced run opens before the system runs — repeated `reps` times. Each
/// repetition is timed with two clock reads and torn down untimed.
void setup_reps(const analysis::OccupancyConfig& config, int reps) {
  std::string samples = "[";
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    auto pre = std::make_unique<Preroll>(config);
    auto system = build_system(config, *pre);
    const std::int64_t t1 = now_ns();
    if (r > 0) samples += ",";
    samples += analysis::json_general(static_cast<double>(t1 - t0) * 1e-9, 17);
  }
  JsonOut().raw("setup_s", samples + "]").print();
}

// ---------------------------------------------------------------------------
// serve: passes over the trace's lines held in memory — the wire parser,
// the trace-only stream checker, and the whole Session — in batches of 2^14
// lines, one span per batch.

constexpr std::size_t kServeBatch = std::size_t{1} << 14;

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

serve::SessionConfig session_config(std::size_t procs) {
  serve::SessionConfig cfg;
  cfg.soak.num_processes = procs;
  return cfg;
}

/// A span when `spans` is set, nothing otherwise.
class OptionalScope {
 public:
  OptionalScope(SpanLog* spans, std::string_view name, std::size_t items = 0) {
    if (spans) scope_.emplace(*spans, name).items(items);
  }

 private:
  std::optional<SpanLog::Scope> scope_;
};

/// Feeds every line through a fresh Session exactly as SoakServer::run
/// does, with the event output collected in memory.
serve::SoakReport session_pass(const std::vector<std::string>& lines,
                               std::size_t procs, SpanLog* spans) {
  std::string output;
  std::optional<serve::Session> session;
  {
    OptionalScope s(spans, "serve.session_setup");
    session.emplace(session_config(procs), [&output](std::string_view chunk) {
      output.append(chunk);
      return true;
    });
  }
  for (std::size_t b = 0; b < lines.size() && !session->stopped();
       b += kServeBatch) {
    const std::size_t end = std::min(lines.size(), b + kServeBatch);
    OptionalScope s(spans, "serve.session", end - b);
    for (std::size_t i = b; i < end && !session->stopped(); ++i) {
      session->feed_line(lines[i]);
    }
  }
  OptionalScope s(spans, "serve.session_finish");
  return session->finish();
}

void traced_serve(const std::string& path, std::size_t procs, SpanLog& spans) {
  std::vector<std::string> lines;
  serve::SoakReport report;
  {
    SpanLog::Scope root(spans, "pipeline");
    {
      SpanLog::Scope s(spans, "serve.load");
      lines = read_lines(path);
      s.items(lines.size());
    }
    // Parsing alone, each record dropped as the Session drops it.
    for (std::size_t b = 0; b < lines.size(); b += kServeBatch) {
      const std::size_t end = std::min(lines.size(), b + kServeBatch);
      OptionalScope s(&spans, "serve.parse", end - b);
      for (std::size_t i = b; i < end; ++i) {
        const serve::ParsedRecord parsed = serve::parse_trace_line(lines[i]);
        if (!parsed.ok()) {
          usage("line " + std::to_string(i + 1) + ": " + parsed.error);
        }
      }
    }
    // The records the checker pass feeds, parsed again outside its spans.
    std::vector<sim::TraceRecord> records;
    {
      SpanLog::Scope s(spans, "serve.materialize");
      records.reserve(lines.size());
      for (const std::string& line : lines) {
        records.push_back(serve::parse_trace_line(line).record);
      }
    }
    {
      const serve::SoakServerConfig soak = session_config(procs).soak;
      check::StreamCheckerConfig cfg;
      cfg.num_processes = soak.num_processes;
      cfg.send_retention = soak.send_retention;
      cfg.options.validity_horizon = soak.validity_horizon;
      cfg.options.max_recorded_violations = soak.max_recorded_violations;
      check::StreamChecker checker(cfg);
      for (std::size_t b = 0; b < records.size(); b += kServeBatch) {
        const std::size_t end = std::min(records.size(), b + kServeBatch);
        OptionalScope s(&spans, "check.stream_feed", end - b);
        for (std::size_t i = b; i < end; ++i) checker.feed(records[i]);
      }
      SpanLog::Scope s(spans, "check.stream_finish");
      checker.finish();
    }
    report = session_pass(lines, procs, &spans);
  }
  // The same Session pass once more without spans: the tracing overhead.
  const std::int64_t t0 = now_ns();
  session_pass(lines, procs, nullptr);
  const std::int64_t untraced_ns = now_ns() - t0;

  JsonOut()
      .raw("counters",
           "{\"records\":" + std::to_string(report.records_fed) +
               ",\"violations\":" + std::to_string(report.violations) +
               ",\"peak_pending\":" +
               std::to_string(report.peak_pending_sends) + ",\"rejected\":" +
               std::to_string(report.malformed_lines +
                              report.out_of_order_lines +
                              report.overlong_lines) +
               "}")
      .num("session_untraced_s", static_cast<double>(untraced_ns) * 1e-9)
      .print();
}

// ---------------------------------------------------------------------------
// The ladder: four substrate rows that split core.system_run. Each is timed
// over a fixed item count, repeated, and reported as its median.

constexpr int kLadderReps = 7;

double median_of(const std::function<double()>& sample) {
  std::vector<double> v;
  for (int r = 0; r < kLadderReps; ++r) v.push_back(sample());
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Calendar throughput: schedule 2^16 timers in time order, run them all.
double scheduler_ns_per_event() {
  return median_of([] {
    constexpr std::int64_t kEvents = 1 << 16;
    sim::Scheduler sched;
    const std::int64_t t0 = now_ns();
    for (std::int64_t i = 0; i < kEvents; ++i) {
      sched.schedule_at(SimTime(i), [] {});
    }
    const std::size_t ran = sched.run();
    return static_cast<double>(now_ns() - t0) / static_cast<double>(ran);
  });
}

/// A transport over `overlay` with 1 ms fixed delay, no loss, and a no-op
/// handler on every process.
struct TransportRig {
  explicit TransportRig(net::Overlay overlay)
      : sim(config()),
        transport(sim, std::move(overlay),
                  std::make_unique<net::FixedDelay>(Duration::millis(1)),
                  std::make_unique<net::NoLoss>(), Rng(1)) {
    for (ProcessId p = 0; p < transport.overlay().size(); ++p) {
      transport.register_handler(p, [](const net::Message&) {});
    }
  }
  static sim::SimConfig config() {
    sim::SimConfig cfg;
    cfg.horizon = SimTime::max();
    return cfg;
  }
  /// Runs `step` `iters` times (calendar drained after each) and returns
  /// the wall time per step in ns.
  double ns_per_step(std::size_t iters, const std::function<void(std::size_t)>&
                                            step) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < iters; ++i) {
      step(i);
      sim.scheduler().run();
    }
    return static_cast<double>(now_ns() - t0) / static_cast<double>(iters);
  }

  sim::Simulation sim;
  net::Transport transport;
};

net::Message strobe_message(ProcessId src, std::size_t n) {
  net::Message msg;
  msg.src = src;
  msg.kind = net::MessageKind::kStrobe;
  net::SenseReportPayload payload;
  payload.strobe_vector = clocks::VectorStamp(n);
  msg.payload = payload;
  return msg;
}

/// Strobe broadcast fan-out on the hall's complete overlay (n = 33).
double broadcast_ns_per_copy() {
  constexpr std::size_t n = 33;
  TransportRig rig(net::Overlay::complete(n));
  const net::Message msg = strobe_message(0, n);
  return median_of([&] {
    return rig.ns_per_step(4000, [&](std::size_t) {
             rig.transport.broadcast(msg);
           }) /
           static_cast<double>(n - 1);
  });
}

/// A sense report unicast from a leaf to the hub of the city's star
/// (n = 10 001), sources cycling over every leaf.
double unicast_ns_per_message() {
  constexpr std::size_t n = 10001;
  TransportRig rig(net::Overlay::star(n));
  net::Message msg = strobe_message(1, 1);
  msg.dst = 0;
  return median_of([&] {
    return rig.ns_per_step(50000, [&](std::size_t i) {
      msg.src = static_cast<ProcessId>(1 + i % (n - 1));
      rig.transport.unicast(msg);
    });
  });
}

/// SensorNode::sense at the hall's n = 33: tick, stamp, record, broadcast,
/// and the 32 deliveries drained from the calendar.
double sense_ns_per_report() {
  constexpr std::size_t n = 33;
  world::WorldEvent ev;
  ev.object = 0;
  ev.attribute = "entered";
  ev.value = std::int64_t{1};
  return median_of([&] {
    TransportRig rig(net::Overlay::complete(n));
    core::SensorNode node(1, n, rig.sim, rig.transport,
                          clocks::ClockBundleConfig{}, Rng(2));
    return rig.ns_per_step(4000, [&](std::size_t i) {
      ev.index = i;
      node.sense(ev);
    });
  });
}

void ladder() {
  JsonOut()
      .num("sim.scheduler_ns_per_event", scheduler_ns_per_event())
      .num("net.broadcast_ns_per_copy", broadcast_ns_per_copy())
      .num("net.unicast_ns_per_message", unicast_ns_per_message())
      .num("core.sense_ns_per_report", sense_ns_per_report())
      .print();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string spans_path, serve_path;
  long long run_id = 0;
  int setup = 0;
  std::size_t procs = 0;
  bool want_ladder = false;
  std::vector<std::string> cli;
  for (std::size_t i = 0; i < args.size(); ++i) {
    auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) usage("missing value for " + args[i]);
      return args[++i];
    };
    if (args[i] == "--") {
      cli.assign(args.begin() + static_cast<std::ptrdiff_t>(i) + 1, args.end());
      break;
    } else if (args[i] == "--spans") {
      spans_path = value();
    } else if (args[i] == "--run") {
      run_id = std::stoll(value());
    } else if (args[i] == "--setup-reps") {
      setup = std::stoi(value());
    } else if (args[i] == "--serve") {
      serve_path = value();
    } else if (args[i] == "--procs") {
      procs = std::stoul(value());
    } else if (args[i] == "--ladder") {
      want_ladder = true;
    } else {
      usage("unknown flag " + args[i]);
    }
  }
  try {
    if (want_ladder) {
      ladder();
    } else if (setup > 0) {
      setup_reps(parse_workload(cli), setup);
    } else if (!spans_path.empty()) {
      SpanLog spans;
      if (!serve_path.empty()) {
        traced_serve(serve_path, procs, spans);
      } else {
        traced_run(parse_workload(cli), spans);
      }
      spans.write(spans_path, run_id);
    } else {
      usage("one of --ladder, --setup-reps K, or --spans FILE is required");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psn_bench_layers: %s\n", e.what());
    return 1;
  }
  return 0;
}
