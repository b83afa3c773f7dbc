// psn_cli — command-line driver for the simulation testbed, as subcommands:
//
//   psn_cli run    [options]   simulate a scenario, print the detector
//                              scorecard (optionally CSV / metrics / trace)
//   psn_cli check  [options]   one run streamed through the causality &
//                              clock-contract checker and the Δ-race audit
//   psn_cli serve  [options]   soak server: verify JSONL trace streams
//                              incrementally with bounded memory — from
//                              stdin, or many at once via --listen
//
// `psn_cli --help` lists every option of every subcommand (the usage text
// below is the one list); `run` and `check` echo the resolved scenario in
// their first output line. A missing or unknown subcommand prints usage and
// exits 2.
//
// Exit codes: 0 ok · 1 violations · 2 usage/config error or missing/unknown
// subcommand · 3 stream input rejected (serve). Multi-stream serve
// aggregates across sessions: 3 beats 1 beats 0. `check` streams the trace
// into the checker while the run executes, so it keeps no trace ring and
// `--trace-cap` is accepted but inert there.
//
// Exit 2 covers every config the system cannot honor, each rejected by
// core::validate with a one-line remedy before anything is printed:
//   --shards K>1 with --delay sync|exp,  (zero minimum one-hop delay — no
//     or fixed with --delta 0             conservative window exists)
//   --shards K>1 with --fifo or --ge     (delivery-state coupling)
//   --shards K > doors+1                 (more shards than processes)
//   --faults crashing pid 0, naming a    (the root never crashes; no such
//     pid past doors or an edge the       process or edge; a pid or edge
//     --topology lacks, overlapping       is down once at a time)
//   --lean-clocks with `check`           (the checker replays vector stamps)
//
// Examples:
//   psn_cli run --scenario hall --doors 8 --delta 250 --reps 10
//   psn_cli run --delay sync --delta 0       # the Δ=0 collapse
//   psn_cli run --trace /tmp/run.jsonl       # first seed's event log
//   psn_cli check --mode scalar              # clock-contract replay, CI-style
//   psn_cli run --trace /dev/stdout --trace-cap 200000 | psn_cli serve
//   psn_cli serve --listen 7070 --max-streams 16   # socket soak server

#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
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

/// A `run` or `check` invocation. Every flag with a config field parses
/// straight into `config`; the rest is what no config has a field for.
struct Invocation {
  analysis::OccupancyConfig config;
  std::string scenario = "hall";
  std::size_t reps = 1;
  unsigned threads = 0;  // 0 = one worker per hardware thread
  std::string csv;
  std::string trace;
  std::size_t trace_cap = 1000000;
  bool metrics = false;
  // Flags the city preset yields to, but only when they were given.
  bool doors_given = false;
  bool topology_given = false;
};

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr, "psn_cli: %s (run with --help for usage)\n",
               why.c_str());
  std::exit(2);
}

/// The value of a numeric flag: all of `text` must be one base-10 number
/// of type T — no sign on unsigned types, no trailing characters, no
/// overflow, and finite for floating point. Anything else is a usage error.
template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    const char* want = std::is_floating_point_v<T> ? "a finite number"
                       : std::is_signed_v<T>       ? "an integer"
                                                   : "a non-negative integer";
    usage_error(flag + " wants " + want + ", got '" + text + "'" +
                (ec == std::errc::result_out_of_range ? " (out of range)"
                                                      : ""));
  }
  return value;
}

/// A duration flag: an integer count of `unit`, small enough that the
/// duration's nanoseconds do not overflow.
Duration parse_duration(const std::string& flag, const std::string& text,
                        Duration unit) {
  const auto n = parse_number<std::int64_t>(flag, text);
  const std::int64_t limit = Duration::max().count_nanos() / unit.count_nanos();
  if (n > limit || n < -limit) {
    usage_error(flag + " wants an integer, got '" + text + "' (out of range)");
  }
  return unit * n;
}

/// `--validity MS`: the observation validity horizon; 0 = unbounded.
core::ValidityHorizon parse_validity(const std::string& text) {
  const Duration lifetime =
      parse_duration("--validity", text, Duration::millis(1));
  if (lifetime < Duration::zero()) usage_error("--validity must be >= 0");
  core::ValidityHorizon horizon;
  if (lifetime > Duration::zero()) horizon.lifetime = lifetime;
  return horizon;
}

/// `--ge g2b,b2g,loss_good,loss_bad`: the Gilbert–Elliott channel.
core::SystemConfig::GilbertElliottParams parse_ge(const std::string& spec) {
  double v[4];
  std::size_t pos = 0;
  for (int i = 0; i < 4; i++) {
    const std::size_t comma = spec.find(',', pos);
    if ((comma == std::string::npos) != (i == 3)) {
      usage_error("--ge wants four comma-separated probabilities "
                  "g2b,b2g,loss_good,loss_bad");
    }
    v[i] = parse_number<double>("--ge", spec.substr(pos, comma - pos));
    if (v[i] < 0.0 || v[i] > 1.0) {
      usage_error("--ge probabilities must be in [0, 1]");
    }
    pos = comma + 1;
  }
  return {v[0], v[1], v[2], v[3]};
}

/// The names an enum flag accepts, one table per enum: parsing looks a
/// name up, the run header looks a value up.
template <typename E>
struct Named {
  const char* name;
  E value;
};

constexpr Named<core::DelayKind> kDelayKinds[] = {
    {"uniform", core::DelayKind::kUniformBounded},
    {"fixed", core::DelayKind::kFixed},
    {"exp", core::DelayKind::kExponential},
    {"sync", core::DelayKind::kSynchronous}};
constexpr Named<core::TopologyKind> kTopologies[] = {
    {"complete", core::TopologyKind::kComplete},
    {"star", core::TopologyKind::kStar},
    {"ring", core::TopologyKind::kRing},
    {"line", core::TopologyKind::kLine}};
constexpr Named<net::ClockMode> kClockModes[] = {
    {"scalar", net::ClockMode::kScalarStrobe},
    {"vector", net::ClockMode::kVectorStrobe},
    {"physical", net::ClockMode::kPhysical}};

template <typename E, std::size_t N>
E value_named(const Named<E> (&table)[N], const std::string& name,
              const char* what) {
  for (const auto& entry : table) {
    if (name == entry.name) return entry.value;
  }
  usage_error(std::string("unknown ") + what + " '" + name + "'");
}

template <typename E, std::size_t N>
const char* name_of(const Named<E> (&table)[N], E value) {
  for (const auto& entry : table) {
    if (entry.value == value) return entry.name;
  }
  return "?";
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
      "  check  stream one run through the clock-contract checker and the\n"
      "         Delta-race audit as it executes; exit 1 on violations\n"
      "         [--trace-cap N]  (accepted, inert: check keeps no ring)\n"
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
      "            3 stream input rejected\n");
  std::exit(0);
}

/// Scenario presets, applied after every flag is read: office and hospital
/// cap the movement rate and fix the capacity; city is a large-n star.
void apply_scenario(Invocation& in) {
  analysis::OccupancyConfig& cfg = in.config;
  if (in.scenario == "office") {
    cfg.doors = std::max<std::size_t>(2, cfg.doors);
    cfg.capacity = 5;  // small-room occupancy
    cfg.movement_rate = std::min(cfg.movement_rate, 2.0);
  } else if (in.scenario == "hospital") {
    cfg.capacity = 30;
    cfg.movement_rate = std::min(cfg.movement_rate, 6.0);
  } else if (in.scenario == "city") {
    // City-scale deployment (DESIGN.md §14): 10^5 door sensors on a star,
    // each reporting up to the mains-powered root as one unicast, lean
    // clocks (O(n)-wide vectors are intractable at this n), physical wire
    // mode. Sized for the `--shards` scaling bench; pass --doors to shrink.
    if (!in.doors_given) cfg.doors = 100000;
    cfg.capacity = static_cast<int>(cfg.doors / 2);
    cfg.movement_rate = std::max(cfg.movement_rate, 2000.0);
    if (!in.topology_given) cfg.topology = core::TopologyKind::kStar;
    cfg.clock_mode = net::ClockMode::kPhysical;
    cfg.lean_clocks = true;
    cfg.unicast_reports = true;
  } else if (in.scenario != "hall") {
    usage_error("unknown scenario '" + in.scenario + "'");
  }
}

/// Reads `run`/`check` flags, applies the scenario preset, and admits the
/// resulting config through analysis::validate — the hall's rules, then
/// core::validate's for the system, fault plan included — so a bad one
/// exits 2 before anything is printed. Only flags no config holds (--reps,
/// --trace-cap) are checked here.
Invocation parse_cli(const std::vector<std::string>& args, Command cmd) {
  Invocation in;
  analysis::OccupancyConfig& cfg = in.config;
  cfg.doors = 4;  // the CLI's default hall; the harness defaults to 2
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--help" || flag == "-h") print_usage_and_exit();
    auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) usage_error("missing value for " + flag);
      return args[++i];
    };
    auto number = [&]<typename T>(T& out) {
      out = parse_number<T>(flag, value());
    };
    auto duration = [&](Duration unit) {
      return parse_duration(flag, value(), unit);
    };
    // Flags restricted to `run`.
    const bool run_like = cmd == Command::kRun;
    if (flag == "--scenario") {
      in.scenario = value();
    } else if (flag == "--doors") {
      number(cfg.doors);
      in.doors_given = true;
    } else if (flag == "--capacity") {
      number(cfg.capacity);
    } else if (flag == "--rate") {
      number(cfg.movement_rate);
    } else if (flag == "--delta") {
      cfg.delta = duration(Duration::millis(1));
    } else if (flag == "--delay") {
      cfg.delay_kind = value_named(kDelayKinds, value(), "delay model");
    } else if (flag == "--eps") {
      cfg.sync_epsilon = duration(Duration::micros(1));
    } else if (flag == "--loss") {
      number(cfg.loss_probability);
    } else if (flag == "--seconds") {
      cfg.horizon = duration(Duration::seconds(1));
    } else if (flag == "--seed") {
      number(cfg.seed);
    } else if (flag == "--mode") {
      cfg.clock_mode = value_named(kClockModes, value(), "clock mode");
    } else if (flag == "--validity") {
      cfg.validity_horizon = parse_validity(value());
    } else if (flag == "--shards") {
      number(cfg.shards);
    } else if (flag == "--shard-threads") {
      number(cfg.shard_threads);
    } else if (flag == "--topology") {
      cfg.topology = value_named(kTopologies, value(), "topology");
      in.topology_given = true;
    } else if (flag == "--lean-clocks") {
      cfg.lean_clocks = true;
    } else if (flag == "--unicast") {
      cfg.unicast_reports = true;
    } else if (flag == "--fifo") {
      cfg.fifo_channels = true;
    } else if (flag == "--faults") {
      try {
        cfg.faults = sim::parse_fault_plan(value());
      } catch (const ConfigError& e) {
        usage_error(e.what());
      }
    } else if (flag == "--ge") {
      cfg.gilbert_elliott = parse_ge(value());
    } else if (flag == "--trace-cap") {
      number(in.trace_cap);
      if (in.trace_cap == 0) usage_error("--trace-cap must be > 0");
    } else if (run_like && flag == "--reps") {
      number(in.reps);
    } else if (run_like && flag == "--threads") {
      number(in.threads);
    } else if (run_like && flag == "--csv") {
      in.csv = value();
    } else if (run_like && flag == "--metrics") {
      in.metrics = true;
    } else if (run_like && flag == "--trace") {
      in.trace = value();
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  if (in.reps == 0) usage_error("--reps must be >= 1");
  apply_scenario(in);
  cfg.check = cmd == Command::kCheck;
  try {
    analysis::validate(cfg);
  } catch (const ConfigError& e) {
    usage_error(e.what());
  }
  return in;
}

/// A trace destined for stdout turns the process into a JSONL producer
/// (`psn_cli run --trace /dev/stdout | psn_cli serve`): every human-readable
/// line must then go to stderr or it would corrupt the stream.
bool trace_is_stdout(const Invocation& in) {
  return in.trace == "-" || in.trace == "/dev/stdout";
}

void print_header(std::FILE* out, const Invocation& in) {
  const analysis::OccupancyConfig& cfg = in.config;
  std::fprintf(
      out,
      "scenario=%s doors=%zu capacity=%d rate=%.1f/s delay=%s delta=%lldms "
      "eps=%lldus loss=%.2f horizon=%llds reps=%zu seed=%llu mode=%s\n\n",
      in.scenario.c_str(), cfg.doors, cfg.capacity, cfg.movement_rate,
      name_of(kDelayKinds, cfg.delay_kind),
      static_cast<long long>(cfg.delta.count_nanos() / 1'000'000),
      static_cast<long long>(cfg.sync_epsilon.count_nanos() / 1'000),
      cfg.loss_probability,
      static_cast<long long>(cfg.horizon.count_nanos() / 1'000'000'000),
      in.reps, static_cast<unsigned long long>(cfg.seed),
      net::to_string(cfg.clock_mode));
  if (cfg.shards > 1) {
    std::fprintf(out, "shards=%zu shard-threads=%zu\n\n", cfg.shards,
                 cfg.shard_threads);
  }
}

/// `run`: replication r simulates seed + r, once. With --trace, replication
/// 0 also records the trace that is written after the scorecard.
int cmd_run(const Invocation& in) {
  std::FILE* human = trace_is_stdout(in) ? stderr : stdout;
  print_header(human, in);

  std::vector<analysis::OccupancyConfig> configs(in.reps, in.config);
  for (std::size_t r = 0; r < configs.size(); ++r) configs[r].seed += r;
  if (!in.trace.empty()) configs.front().trace_capacity = in.trace_cap;
  // parse_cli admitted the config; the replications differ only in seed.
  const std::vector<analysis::OccupancyRunResult> runs =
      analysis::run_specs(configs, in.threads);
  analysis::PointResult merged;
  for (const analysis::OccupancyRunResult& run : runs) merged.add(run);

  Table table({"detector", "occurrences", "TP", "FP", "FN", "borderline",
               "recall", "recall w/ bin", "precision", "belief acc"});
  for (const auto& [name, outcome] : merged.detectors) {
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
  if (!in.csv.empty()) {
    table.write_csv(in.csv);
    std::fprintf(human, "\nwrote %s\n", in.csv.c_str());
  }

  if (in.metrics) {
    std::fprintf(human, "\nmetrics (merged over %zu run%s):\n", runs.size(),
                 runs.size() == 1 ? "" : "s");
    std::fprintf(human, "%s", merged.metrics.table().ascii().c_str());
  }

  if (in.trace.empty()) return 0;
  const analysis::OccupancyRunResult& traced = runs.front();
  try {
    if (trace_is_stdout(in)) {
      analysis::write_trace_jsonl(traced.trace, stdout);
      std::fprintf(stderr, "psn_cli: wrote %zu trace records to stdout\n",
                   traced.trace.size());
    } else {
      analysis::write_trace_jsonl(traced.trace, in.trace);
      std::printf("\nwrote %s (%zu records%s)\n", in.trace.c_str(),
                  traced.trace.size(),
                  traced.trace_evicted > 0
                      ? ", ring overflowed — oldest evicted"
                      : "");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psn_cli: %s\n", e.what());
    return 1;
  }
  if (traced.trace_evicted > 0) {
    std::fprintf(stderr,
                 "psn_cli: trace ring evicted %zu records; rerun with "
                 "--trace-cap > %zu for a complete trace\n",
                 traced.trace_evicted, in.trace_cap);
  }
  return 0;
}

/// `check`: one run streamed through the checker. Returns the exit code.
/// parse_cli admitted the config, so the run raises no ConfigError.
int cmd_check(const Invocation& in) {
  print_header(stdout, in);
  try {
    const analysis::OccupancyRunResult run =
        analysis::run_occupancy_experiment(in.config);
    std::printf("\n%s", run.check->summary().c_str());
    if (!run.check->clean()) return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psn_cli: %s\n", e.what());
    return 1;
  }
  return 0;
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

/// `serve`: flags parse straight into the listener's config; stdin mode runs
/// its `session` member.
int cmd_serve(const std::vector<std::string>& args) {
  serve::ListenerConfig cfg;
  serve::SoakServerConfig& soak = cfg.session.soak;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--help" || flag == "-h") print_usage_and_exit();
    auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) usage_error("missing value for " + flag);
      return args[++i];
    };
    auto number = [&]<typename T>(T& out) {
      out = parse_number<T>(flag, value());
    };
    if (flag == "--procs") {
      number(soak.num_processes);
    } else if (flag == "--retention") {
      soak.send_retention = parse_duration(flag, value(), Duration::millis(1));
      if (soak.send_retention <= Duration::zero()) {
        usage_error("--retention must be > 0 ms");
      }
    } else if (flag == "--validity") {
      soak.validity_horizon = parse_validity(value());
    } else if (flag == "--metrics-every") {
      number(soak.metrics_every);
    } else if (flag == "--lenient") {
      soak.lenient = true;
    } else if (flag == "--listen") {
      cfg.listen = value();
      if (cfg.listen.empty()) usage_error("--listen needs a port or unix path");
    } else if (flag == "--max-streams") {
      number(cfg.max_streams);
      if (cfg.max_streams == 0) usage_error("--max-streams must be > 0");
    } else if (flag == "--max-buffer") {
      number(cfg.session.max_line_bytes);
      if (cfg.session.max_line_bytes == 0) {
        usage_error("--max-buffer must be > 0 bytes");
      }
    } else if (flag == "--idle-timeout") {
      double secs = 0.0;
      number(secs);
      if (secs <= 0) usage_error("--idle-timeout must be > 0 s");
      // Rounded up: a positive timeout never becomes 0 ms, which means never.
      // The bound keeps the cast defined and poll()'s int timeout unwrapped.
      const double ms = std::ceil(secs * 1000.0);
      if (ms > INT_MAX) {
        usage_error("--idle-timeout must be at most " +
                    std::to_string(INT_MAX / 1000) + " s");
      }
      cfg.idle_timeout_ms = static_cast<std::int64_t>(ms);
    } else {
      usage_error("unknown flag " + flag + " for serve");
    }
  }
  if (cfg.idle_timeout_ms > 0 && cfg.listen.empty()) {
    usage_error("--idle-timeout needs --listen (stdin mode has one stream)");
  }
  if (cfg.listen.empty()) return serve_stdin(cfg.session);
  try {
    serve::Listener listener(cfg, std::cout);
    listener.open();
    if (listener.port() != 0) {
      std::fprintf(stderr, "psn_cli: serving on 127.0.0.1:%u\n",
                   listener.port());
    } else {
      std::fprintf(stderr, "psn_cli: serving on %s\n", cfg.listen.c_str());
    }
    return listener.run();
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "psn_cli: %s\n", e.what());
    return 2;
  }
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
