// psn_cli — command-line driver for the simulation testbed, as subcommands:
//
//   psn_cli run    [options]   simulate a scenario, print the detector
//                              scorecard (optionally CSV / metrics / trace)
//   psn_cli check  [options]   one traced run through the causality &
//                              clock-contract checker and the Δ-race audit
//   psn_cli serve  [options]   soak server: verify JSONL trace streams
//                              incrementally with bounded memory — from
//                              stdin, or many at once via --listen
//
// A missing or unknown subcommand prints usage and exits 2.
//
// Shared scenario options (run / check):
//     --scenario hall|office|hospital|city   (default hall)
//     --doors N          door/sensor count for hall        (default 4)
//     --capacity N       hall capacity threshold           (default 200)
//     --rate R           world events per second           (default 20)
//     --delta MS         delay bound Delta in ms           (default 100)
//     --delay uniform|fixed|exp|sync    delay model        (default uniform)
//     --eps US           sync-clock epsilon in us          (default 100)
//     --loss P           per-transmission loss prob        (default 0)
//     --seconds S        horizon                           (default 60)
//     --seed N           RNG seed                          (default 1)
//     --mode scalar|vector|physical     wire clock mode    (default vector)
//     --validity MS      observation validity horizon, 0 = unbounded
//     --shards K         space partitions, run in lockstep Δ-windows
//                        (default 1; results byte-identical at every K)
//     --shard-threads N  worker threads for the shard fan-out (default 1)
//     --topology complete|star|ring|line    overlay        (default complete)
//     --lean-clocks      drop O(n) vector clocks (city scale)
//     --unicast          sense reports unicast to the root, not broadcast
//     --fifo             per-channel FIFO delivery (unsharded only)
//     --faults SPEC      deterministic fault plan: `;`-separated clauses
//                          crash:<pid>@<begin_s>+<dur_s>
//                          cut:<a>-<b>@<begin_s>+<dur_s>
//                          drift:<pid>@<begin_s>+<dur_s>:<ppm>
//                        e.g. --faults 'crash:2@10+5;cut:1-3@20+4'
//     --ge A,B,C,D       Gilbert–Elliott burst loss (unsharded only):
//                        P(good→bad), P(bad→good), loss in good, loss in bad
//
// run-only:  --reps N --threads N --csv PATH --metrics --trace PATH
//            --trace-cap N
// check-only: --trace-cap N
// serve-only: --procs N --retention MS --metrics-every N --lenient
//             --listen PORT|UNIX-PATH --max-streams N --max-buffer BYTES
//             --idle-timeout SECS
//             (--max-buffer caps one line, on stdin and on every socket)
//
// Exit codes: 0 ok · 1 violations · 2 usage/config error or missing/unknown
// subcommand · 3 stream input rejected (serve) · 4 trace ring truncated
// under check. Multi-stream serve aggregates across sessions: 3 beats 1
// beats 0.
//
// Exit 2 covers every option combination the sharded driver cannot honor,
// each rejected with a one-line remedy before anything runs:
//   --shards K>1 with --delay sync|exp   (zero minimum one-hop delay — no
//                                         conservative window exists)
//   --shards K>1 with --fifo             (delivery-state coupling)
//   --shards K > doors+1                 (more shards than processes)
//   --lean-clocks with `check`           (the checker replays vector stamps)
//
// Examples:
//   psn_cli run --scenario hall --doors 8 --delta 250 --reps 10
//   psn_cli run --delay sync --delta 0       # the Δ=0 collapse
//   psn_cli run --trace /tmp/run.jsonl       # sense/send/deliver/... log
//   psn_cli check --mode scalar              # clock-contract replay, CI-style
//   psn_cli run --trace /dev/stdout --trace-cap 200000 | psn_cli serve
//   psn_cli serve --listen 7070 --max-streams 16   # socket soak server

#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/export.hpp"
#include "analysis/sweep.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "serve/listener.hpp"
#include "serve/session.hpp"
#include "sim/fault.hpp"

namespace {

using namespace psn;

enum class Command { kRun, kCheck };

struct CliOptions {
  std::string scenario = "hall";
  std::size_t doors = 4;
  int capacity = 200;
  double rate = 20.0;
  std::int64_t delta_ms = 100;
  std::string delay = "uniform";
  std::int64_t eps_us = 100;
  double loss = 0.0;
  std::int64_t seconds = 60;
  std::uint64_t seed = 1;
  std::size_t reps = 1;
  unsigned threads = 0;  // 0 = one worker per hardware thread
  std::string csv;
  std::string mode = "vector";
  bool metrics = false;
  std::string trace;
  std::size_t trace_cap = 1000000;
  std::int64_t validity_ms = 0;  // 0 = unbounded
  std::size_t shards = 1;
  std::size_t shard_threads = 1;
  std::string topology;  // empty = scenario default
  bool lean_clocks = false;
  bool unicast = false;
  bool fifo = false;
  std::string faults;  // fault-plan spec (sim::parse_fault_plan grammar)
  std::string ge;      // Gilbert–Elliott params "g2b,b2g,loss_good,loss_bad"
};

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr, "psn_cli: %s (run with --help for usage)\n",
               why.c_str());
  std::exit(2);
}

void print_shared_usage() {
  std::printf(
      "  shared options:\n"
      "    [--scenario hall|office|hospital|city] [--doors N] [--capacity N]\n"
      "    [--rate R] [--delta MS] [--delay uniform|fixed|exp|sync]\n"
      "    [--eps US] [--loss P] [--seconds S] [--seed N]\n"
      "    [--mode scalar|vector|physical] [--validity MS]\n"
      "    [--shards K] [--shard-threads N]\n"
      "    [--topology complete|star|ring|line]\n"
      "    [--lean-clocks] [--unicast] [--fifo]\n"
      "    [--faults 'crash:<pid>@<s>+<s>;cut:<a>-<b>@<s>+<s>;"
      "drift:<pid>@<s>+<s>:<ppm>']\n"
      "    [--ge g2b,b2g,loss_good,loss_bad]\n");
}

[[noreturn]] void print_usage_and_exit() {
  std::printf(
      "usage: psn_cli <run|check|serve> [options]\n\n"
      "  run    simulate and print the detector scorecard\n"
      "         [--reps N] [--threads N] [--csv PATH] [--metrics]\n"
      "         [--trace PATH] [--trace-cap N]\n"
      "  check  replay one traced run through the clock-contract checker\n"
      "         and the Delta-race audit; exit 1 on violations, 4 if the\n"
      "         trace ring truncated\n"
      "         [--trace-cap N]\n"
      "  serve  verify JSONL trace streams incrementally: stdin by\n"
      "         default, or a multi-stream socket server via --listen\n"
      "         (all-digit spec = TCP port on 127.0.0.1, 0 = ephemeral;\n"
      "         anything else = unix socket path). SIGINT/SIGTERM drain\n"
      "         every session and emit its eof verdict.\n"
      "         [--procs N] [--retention MS] [--validity MS]\n"
      "         [--metrics-every N] [--lenient]\n"
      "         [--listen PORT|UNIX-PATH] [--max-streams N]\n"
      "         [--max-buffer BYTES] [--idle-timeout SECS]\n\n");
  print_shared_usage();
  std::printf(
      "\nexit codes: 0 ok, 1 violations, 2 usage/config error,\n"
      "            3 stream input rejected, 4 trace ring truncated\n");
  std::exit(0);
}

CliOptions parse_cli(const std::vector<std::string>& args, Command cmd) {
  CliOptions opt;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--help" || flag == "-h") print_usage_and_exit();
    auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) usage_error("missing value for " + flag);
      return args[++i];
    };
    // Flags restricted to `run`.
    const bool run_like = cmd == Command::kRun;
    if (flag == "--scenario") {
      opt.scenario = value();
    } else if (flag == "--doors") {
      opt.doors = static_cast<std::size_t>(std::atoll(value().c_str()));
    } else if (flag == "--capacity") {
      opt.capacity = std::atoi(value().c_str());
    } else if (flag == "--rate") {
      opt.rate = std::atof(value().c_str());
    } else if (flag == "--delta") {
      opt.delta_ms = std::atoll(value().c_str());
    } else if (flag == "--delay") {
      opt.delay = value();
    } else if (flag == "--eps") {
      opt.eps_us = std::atoll(value().c_str());
    } else if (flag == "--loss") {
      opt.loss = std::atof(value().c_str());
    } else if (flag == "--seconds") {
      opt.seconds = std::atoll(value().c_str());
    } else if (flag == "--seed") {
      opt.seed = static_cast<std::uint64_t>(std::atoll(value().c_str()));
    } else if (flag == "--mode") {
      opt.mode = value();
    } else if (flag == "--validity") {
      opt.validity_ms = std::atoll(value().c_str());
      if (opt.validity_ms < 0) usage_error("--validity must be >= 0");
    } else if (flag == "--shards") {
      const long long shards = std::atoll(value().c_str());
      if (shards <= 0) usage_error("--shards must be >= 1");
      opt.shards = static_cast<std::size_t>(shards);
    } else if (flag == "--shard-threads") {
      const long long n = std::atoll(value().c_str());
      if (n <= 0) usage_error("--shard-threads must be >= 1");
      opt.shard_threads = static_cast<std::size_t>(n);
    } else if (flag == "--topology") {
      opt.topology = value();
    } else if (flag == "--lean-clocks") {
      opt.lean_clocks = true;
    } else if (flag == "--unicast") {
      opt.unicast = true;
    } else if (flag == "--fifo") {
      opt.fifo = true;
    } else if (flag == "--faults") {
      opt.faults = value();
    } else if (flag == "--ge") {
      opt.ge = value();
    } else if (flag == "--trace-cap") {
      const long long cap = std::atoll(value().c_str());
      if (cap <= 0) usage_error("--trace-cap must be > 0");
      opt.trace_cap = static_cast<std::size_t>(cap);
    } else if (run_like && flag == "--reps") {
      opt.reps = static_cast<std::size_t>(std::atoll(value().c_str()));
    } else if (run_like && flag == "--threads") {
      const int threads = std::atoi(value().c_str());
      if (threads < 0) usage_error("--threads must be >= 0");
      opt.threads = static_cast<unsigned>(threads);
    } else if (run_like && flag == "--csv") {
      opt.csv = value();
    } else if (run_like && flag == "--metrics") {
      opt.metrics = true;
    } else if (run_like && flag == "--trace") {
      opt.trace = value();
    } else if (run_like && flag == "--check") {
      usage_error("--check moved to the `check` subcommand: psn_cli check");
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  if (opt.doors == 0 || opt.reps == 0 || opt.seconds <= 0) {
    usage_error("doors, reps, and seconds must be positive");
  }
  return opt;
}

core::DelayKind delay_kind_of(const std::string& name) {
  if (name == "uniform") return core::DelayKind::kUniformBounded;
  if (name == "fixed") return core::DelayKind::kFixed;
  if (name == "exp") return core::DelayKind::kExponential;
  if (name == "sync") return core::DelayKind::kSynchronous;
  usage_error("unknown delay model '" + name + "'");
}

core::TopologyKind topology_of(const std::string& name) {
  if (name == "complete") return core::TopologyKind::kComplete;
  if (name == "star") return core::TopologyKind::kStar;
  if (name == "ring") return core::TopologyKind::kRing;
  if (name == "line") return core::TopologyKind::kLine;
  usage_error("unknown topology '" + name + "'");
}

net::ClockMode clock_mode_of(const std::string& name) {
  if (name == "scalar") return net::ClockMode::kScalarStrobe;
  if (name == "vector") return net::ClockMode::kVectorStrobe;
  if (name == "physical") return net::ClockMode::kPhysical;
  usage_error("unknown clock mode '" + name + "'");
}

/// Maps the shared scenario options onto the occupancy harness;
/// office/hospital presets adjust rate/capacity flavor.
analysis::OccupancyConfig occupancy_config_of(const CliOptions& opt) {
  analysis::OccupancyConfig cfg;
  cfg.doors = opt.doors;
  cfg.capacity = opt.capacity;
  cfg.movement_rate = opt.rate;
  cfg.delay_kind = delay_kind_of(opt.delay);
  cfg.delta = Duration::millis(opt.delta_ms);
  cfg.sync_epsilon = Duration::micros(opt.eps_us);
  cfg.loss_probability = opt.loss;
  cfg.horizon = Duration::seconds(opt.seconds);
  cfg.seed = opt.seed;
  cfg.clock_mode = clock_mode_of(opt.mode);
  if (opt.validity_ms > 0) {
    cfg.validity_horizon.lifetime = Duration::millis(opt.validity_ms);
  }
  cfg.shards = opt.shards;
  cfg.shard_threads = opt.shard_threads;
  cfg.lean_clocks = opt.lean_clocks;
  cfg.unicast_reports = opt.unicast;
  cfg.fifo_channels = opt.fifo;
  if (opt.scenario == "office") {
    cfg.doors = std::max<std::size_t>(2, opt.doors);
    cfg.capacity = 5;  // small-room occupancy
    cfg.movement_rate = std::min(opt.rate, 2.0);
  } else if (opt.scenario == "hospital") {
    cfg.capacity = 30;
    cfg.movement_rate = std::min(opt.rate, 6.0);
  } else if (opt.scenario == "city") {
    // City-scale deployment (DESIGN.md §14): 10^5 door sensors on a star,
    // each reporting up to the mains-powered root as one unicast, lean
    // clocks (O(n)-wide vectors are intractable at this n), physical wire
    // mode. Sized for the `--shards` scaling bench; pass --doors to shrink.
    if (opt.doors == 4) cfg.doors = 100000;  // 4 = the flag's default
    cfg.capacity = static_cast<int>(cfg.doors / 2);
    cfg.movement_rate = std::max(opt.rate, 2000.0);
    cfg.topology = core::TopologyKind::kStar;
    cfg.clock_mode = net::ClockMode::kPhysical;
    cfg.lean_clocks = true;
    cfg.unicast_reports = true;
  } else if (opt.scenario != "hall") {
    usage_error("unknown scenario '" + opt.scenario + "'");
  }
  if (!opt.topology.empty()) cfg.topology = topology_of(opt.topology);
  if (!opt.faults.empty()) {
    try {
      cfg.faults = sim::parse_fault_plan(opt.faults);
    } catch (const ConfigError& e) {
      usage_error(e.what());
    }
  }
  if (!opt.ge.empty()) {
    double v[4];
    std::size_t pos = 0;
    for (int i = 0; i < 4; i++) {
      const std::size_t comma = opt.ge.find(',', pos);
      if ((comma == std::string::npos) != (i == 3)) {
        usage_error("--ge wants four comma-separated probabilities "
                    "g2b,b2g,loss_good,loss_bad");
      }
      v[i] = std::atof(opt.ge.substr(pos, comma - pos).c_str());
      if (v[i] < 0.0 || v[i] > 1.0) {
        usage_error("--ge probabilities must be in [0, 1]");
      }
      pos = comma + 1;
    }
    core::SystemConfig::GilbertElliottParams params;
    params.p_good_to_bad = v[0];
    params.p_bad_to_good = v[1];
    params.loss_in_good = v[2];
    params.loss_in_bad = v[3];
    cfg.gilbert_elliott = params;
  }
  return cfg;
}

/// A trace destined for stdout turns the process into a JSONL producer
/// (`psn_cli run --trace /dev/stdout | psn_cli serve`): every human-readable
/// line must then go to stderr or it would corrupt the stream.
bool trace_is_stdout(const CliOptions& opt) {
  return opt.trace == "-" || opt.trace == "/dev/stdout";
}

void print_header(std::FILE* out, const CliOptions& opt,
                  const analysis::OccupancyConfig& cfg) {
  std::fprintf(
      out,
      "scenario=%s doors=%zu capacity=%d rate=%.1f/s delay=%s delta=%lldms "
      "eps=%lldus loss=%.2f horizon=%llds reps=%zu seed=%llu mode=%s\n\n",
      opt.scenario.c_str(), cfg.doors, cfg.capacity, cfg.movement_rate,
      opt.delay.c_str(), static_cast<long long>(opt.delta_ms),
      static_cast<long long>(opt.eps_us), opt.loss,
      static_cast<long long>(opt.seconds), opt.reps,
      static_cast<unsigned long long>(opt.seed),
      net::to_string(cfg.clock_mode));
  if (cfg.shards > 1) {
    std::fprintf(out, "shards=%zu shard-threads=%zu\n\n", cfg.shards,
                 cfg.shard_threads);
  }
}

/// The `check` subcommand's run through the checker. Returns the process
/// exit code.
int run_check(const analysis::OccupancyConfig& base, const CliOptions& opt) {
  analysis::OccupancyConfig checked = base;
  checked.check = true;
  if (checked.trace_capacity == 0) checked.trace_capacity = opt.trace_cap;
  try {
    const analysis::OccupancyRunResult run =
        analysis::run_occupancy_experiment(checked);
    std::printf("\n%s", run.check->summary().c_str());
    if (!run.check->clean()) return 1;
  } catch (const check::TraceWindowError& e) {
    std::fprintf(stderr, "psn_cli: %s\n", e.what());
    std::fprintf(stderr,
                 "psn_cli: remedy: rerun with --trace-cap above the run's "
                 "record count, or pipe the trace through `psn_cli serve` "
                 "(streaming needs no ring)\n");
    return 4;
  } catch (const ConfigError& e) {
    // Unsupported option combinations (e.g. --shards with --delay sync, or
    // --lean-clocks under `check`) reject with a one-line remedy, exit 2.
    std::fprintf(stderr, "psn_cli: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psn_cli: %s\n", e.what());
    return 1;
  }
  return 0;
}

/// The trace-writing half of `run`: the sweep merges snapshots but keeps no
/// raw per-run trace, so re-run the base point (first seed) once with the
/// trace ring enabled.
int write_trace(const analysis::OccupancyConfig& base, const CliOptions& opt) {
  analysis::OccupancyConfig traced = base;
  traced.trace_capacity = opt.trace_cap;
  try {
    const analysis::OccupancyRunResult run =
        analysis::run_occupancy_experiment(traced);
    if (trace_is_stdout(opt)) {
      std::fputs(analysis::trace_jsonl(run.trace).c_str(), stdout);
      std::fflush(stdout);
      std::fprintf(stderr, "psn_cli: wrote %zu trace records to stdout\n",
                   run.trace.size());
    } else {
      analysis::write_trace_jsonl(run.trace, opt.trace);
      std::printf("\nwrote %s (%zu records%s)\n", opt.trace.c_str(),
                  run.trace.size(),
                  run.trace_evicted > 0 ? ", ring overflowed — oldest evicted"
                                        : "");
    }
    if (run.trace_evicted > 0) {
      std::fprintf(stderr,
                   "psn_cli: trace ring evicted %zu records; rerun with "
                   "--trace-cap > %zu for a complete trace\n",
                   run.trace_evicted, opt.trace_cap);
    }
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "psn_cli: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psn_cli: %s\n", e.what());
    return 1;
  }
  return 0;
}

int cmd_run(const CliOptions& opt) {
  const analysis::OccupancyConfig cfg = occupancy_config_of(opt);
  std::FILE* human = trace_is_stdout(opt) ? stderr : stdout;
  print_header(human, opt, cfg);

  analysis::SweepResult result;
  try {
    result = analysis::sweep(cfg)
                 .replications(opt.reps)
                 .threads(opt.threads)
                 .run();
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "psn_cli: %s\n", e.what());
    return 2;
  }

  Table table({"detector", "occurrences", "TP", "FP", "FN", "borderline",
               "recall", "recall w/ bin", "precision", "belief acc"});
  for (const auto& [name, outcome] : result.points.front().detectors) {
    table.row()
        .cell(name)
        .cell(outcome.score.oracle_occurrences)
        .cell(outcome.score.true_positives)
        .cell(outcome.score.false_positives)
        .cell(outcome.score.false_negatives)
        .cell(outcome.score.borderline_detections)
        .cell(outcome.score.recall(), 3)
        .cell(outcome.score.recall_with_borderline(), 3)
        .cell(outcome.score.precision(), 3)
        .cell(outcome.belief_accuracy.mean(), 4);
  }
  std::fprintf(human, "%s", table.ascii().c_str());
  if (!opt.csv.empty()) {
    table.write_csv(opt.csv);
    std::fprintf(human, "\nwrote %s\n", opt.csv.c_str());
  }

  if (opt.metrics) {
    std::fprintf(human, "\nmetrics (merged over %zu run%s):\n", result.runs,
                 result.runs == 1 ? "" : "s");
    std::fprintf(human, "%s",
                 result.points.front().metrics.table().ascii().c_str());
  }

  if (!opt.trace.empty()) {
    const int code = write_trace(cfg, opt);
    if (code != 0) return code;
  }
  return 0;
}

int cmd_check(const CliOptions& opt) {
  const analysis::OccupancyConfig cfg = occupancy_config_of(opt);
  print_header(stdout, opt, cfg);
  return run_check(cfg, opt);
}

/// `serve` without --listen: stdin is one Session over fd 0, reassembling
/// lines from raw reads exactly as a socket stream does (--max-buffer caps
/// them the same way). A failed stdout write — the consumer is gone and
/// SIGPIPE is ignored — stops the session instead of killing the process.
int serve_stdin(const serve::SessionConfig& cfg) {
  serve::Session session(cfg, [](std::string_view chunk) {
    return std::fwrite(chunk.data(), 1, chunk.size(), stdout) == chunk.size();
  });
  char buf[std::size_t{1} << 16];
  while (!session.stopped()) {
    const ssize_t n = ::read(STDIN_FILENO, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or a read error: finish what arrived
    session.on_data(std::string_view(buf, static_cast<std::size_t>(n)));
  }
  const int code = session.finish().exit_code;
  std::fflush(stdout);
  return code;
}

int cmd_serve(const std::vector<std::string>& args) {
  serve::SoakServerConfig cfg;
  std::string listen;
  std::size_t max_streams = 64;
  std::size_t max_buffer = std::size_t{1} << 16;
  double idle_timeout_secs = 0.0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--help" || flag == "-h") print_usage_and_exit();
    auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) usage_error("missing value for " + flag);
      return args[++i];
    };
    if (flag == "--procs") {
      const long long n = std::atoll(value().c_str());
      if (n < 0) usage_error("--procs must be >= 0");
      cfg.num_processes = static_cast<std::size_t>(n);
    } else if (flag == "--retention") {
      const long long ms = std::atoll(value().c_str());
      if (ms <= 0) usage_error("--retention must be > 0 ms");
      cfg.send_retention = Duration::millis(ms);
    } else if (flag == "--validity") {
      const long long ms = std::atoll(value().c_str());
      if (ms < 0) usage_error("--validity must be >= 0");
      if (ms > 0) cfg.validity_horizon.lifetime = Duration::millis(ms);
    } else if (flag == "--metrics-every") {
      cfg.metrics_every =
          static_cast<std::size_t>(std::atoll(value().c_str()));
    } else if (flag == "--lenient") {
      cfg.lenient = true;
    } else if (flag == "--listen") {
      listen = value();
      if (listen.empty()) usage_error("--listen needs a port or unix path");
    } else if (flag == "--max-streams") {
      const long long n = std::atoll(value().c_str());
      if (n <= 0) usage_error("--max-streams must be > 0");
      max_streams = static_cast<std::size_t>(n);
    } else if (flag == "--max-buffer") {
      const long long n = std::atoll(value().c_str());
      if (n <= 0) usage_error("--max-buffer must be > 0 bytes");
      max_buffer = static_cast<std::size_t>(n);
    } else if (flag == "--idle-timeout") {
      idle_timeout_secs = std::atof(value().c_str());
      if (idle_timeout_secs <= 0) usage_error("--idle-timeout must be > 0 s");
    } else {
      usage_error("unknown flag " + flag + " for serve");
    }
  }
  if (idle_timeout_secs > 0 && listen.empty()) {
    usage_error("--idle-timeout needs --listen (stdin mode has one stream)");
  }
  if (!listen.empty()) {
    serve::ListenerConfig listener_cfg;
    listener_cfg.listen = listen;
    listener_cfg.max_streams = max_streams;
    listener_cfg.session = cfg;
    listener_cfg.max_line_bytes = max_buffer;
    listener_cfg.idle_timeout_ms =
        static_cast<std::int64_t>(idle_timeout_secs * 1000.0);
    try {
      serve::Listener listener(listener_cfg, std::cout);
      listener.open();
      if (listener.port() != 0) {
        std::fprintf(stderr, "psn_cli: serving on 127.0.0.1:%u\n",
                     listener.port());
      } else {
        std::fprintf(stderr, "psn_cli: serving on %s\n", listen.c_str());
      }
      return listener.run();
    } catch (const ConfigError& e) {
      std::fprintf(stderr, "psn_cli: %s\n", e.what());
      return 2;
    }
  }
  serve::SessionConfig session_cfg;
  session_cfg.soak = cfg;
  session_cfg.max_line_bytes = max_buffer;
  return serve_stdin(session_cfg);
}

}  // namespace

int main(int argc, char** argv) {
#ifdef SIGPIPE
  // A long-running `psn_cli serve` must survive its downstream consumer
  // disconnecting (closed pipe, vanished socket peer): writes then fail
  // with EPIPE and tear down the affected session, never the process.
  std::signal(SIGPIPE, SIG_IGN);
#endif
  std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && args[0] == "run") {
    args.erase(args.begin());
    return cmd_run(parse_cli(args, Command::kRun));
  }
  if (!args.empty() && args[0] == "check") {
    args.erase(args.begin());
    return cmd_check(parse_cli(args, Command::kCheck));
  }
  if (!args.empty() && args[0] == "serve") {
    args.erase(args.begin());
    return cmd_serve(args);
  }
  if (!args.empty() && (args[0] == "--help" || args[0] == "-h")) {
    print_usage_and_exit();
  }
  const std::string why = args.empty() ? "missing subcommand"
                                       : "unknown subcommand '" + args[0] + "'";
  std::fprintf(stderr,
               "psn_cli: %s\nusage: psn_cli <run|check|serve> [options] "
               "(--help lists them)\n",
               why.c_str());
  return 2;
}
