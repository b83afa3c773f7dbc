// checker_fuzz — randomized occupancy configurations replayed through the
// causality & clock-contract checker (ROADMAP: "fuzz the simulator with the
// checker as oracle"). Every round draws a config from the supported grid —
// delay model and Δ, loss probability, duty cycling, clock mode, validity
// horizon, door count, movement rate — runs the full occupancy experiment
// with config.check on, and demands a clean verdict: the simulator must
// produce executions the checker certifies, for EVERY reachable
// configuration, not just the ones experiments happen to exercise.
//
// Determinism and replay: all randomness derives from --master-seed via
// psn::Rng (SplitMix64, stable across platforms), so a CI failure is
// reproducible locally with the seed printed in the log — rerun with
// --master-seed <S> --only-round <K>. The nightly workflow passes its run
// id as the master seed, so every night covers a fresh slice of the grid
// and every failure names its replay command.
//
// Exit codes: 0 all rounds clean, 1 a round failed (non-clean verdict or
// unexpected exception), 2 usage error.
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "analysis/experiments.hpp"
#include "check/check.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "core/system.hpp"
#include "net/duty_cycle.hpp"
#include "net/transport.hpp"
#include "sim/fault.hpp"

namespace {

psn::analysis::OccupancyConfig draw_config(std::uint64_t round_seed) {
  using psn::Duration;
  psn::Rng s(round_seed);
  psn::analysis::OccupancyConfig cfg;

  cfg.doors = 1 + s() % 6;
  cfg.capacity = static_cast<int>(50 + s() % 300);
  cfg.movement_rate = 5.0 + static_cast<double>(s() % 400) / 10.0;

  switch (s() % 4) {
    case 0: cfg.delay_kind = psn::core::DelayKind::kSynchronous; break;
    case 1: cfg.delay_kind = psn::core::DelayKind::kFixed; break;
    case 2: cfg.delay_kind = psn::core::DelayKind::kUniformBounded; break;
    default: cfg.delay_kind = psn::core::DelayKind::kExponential; break;
  }
  cfg.delta = Duration::millis(static_cast<std::int64_t>(10 + s() % 290));
  cfg.sync_epsilon =
      Duration::micros(static_cast<std::int64_t>(10 + s() % 990));

  switch (s() % 4) {
    case 0: cfg.loss_probability = 0.0; break;
    case 1: cfg.loss_probability = 0.05; break;
    case 2: cfg.loss_probability = 0.2; break;
    default: cfg.loss_probability = 0.5; break;
  }

  switch (s() % 3) {
    case 0: break;  // always-on radios
    case 1: {
      psn::net::DutyCycle dc;
      dc.period = Duration::millis(static_cast<std::int64_t>(50 + s() % 450));
      dc.window = Duration::millis(
          static_cast<std::int64_t>(
              5 + s() % static_cast<std::uint64_t>(
                      dc.period.count_nanos() / 1'000'000 - 5)));
      cfg.duty_cycle = dc;
      cfg.duty_phases_aligned = true;
      break;
    }
    default: {
      psn::net::DutyCycle dc;
      dc.period = Duration::millis(200);
      dc.window = Duration::millis(static_cast<std::int64_t>(10 + s() % 90));
      cfg.duty_cycle = dc;
      cfg.duty_phases_aligned = false;
      break;
    }
  }

  switch (s() % 3) {
    case 0: cfg.clock_mode = psn::net::ClockMode::kScalarStrobe; break;
    case 1: cfg.clock_mode = psn::net::ClockMode::kVectorStrobe; break;
    default: cfg.clock_mode = psn::net::ClockMode::kPhysical; break;
  }

  if (s() % 2 == 0) {
    cfg.validity_horizon.lifetime =
        Duration::millis(static_cast<std::int64_t>(50 + s() % 450));
  }

  cfg.horizon = Duration::seconds(static_cast<std::int64_t>(4 + s() % 8));

  // Gilbert–Elliott burst loss, 1 round in 4 (the fuzzer runs unsharded, so
  // the per-transmission channel state is legal here).
  if (s() % 4 == 0) {
    psn::core::SystemConfig::GilbertElliottParams ge;
    ge.p_good_to_bad = 0.01 + static_cast<double>(s() % 10) / 100.0;
    ge.p_bad_to_good = 0.2 + static_cast<double>(s() % 50) / 100.0;
    ge.loss_in_good = static_cast<double>(s() % 5) / 100.0;
    ge.loss_in_bad = 0.3 + static_cast<double>(s() % 60) / 100.0;
    cfg.gilbert_elliott = ge;
  }

  // Fault plans (DESIGN.md §15): crash/partition/drift windows inside the
  // horizon. At most one window per kind keeps the plan trivially valid (no
  // same-pid/same-edge overlaps); crashed pids stay in [1, doors] (process 0
  // is mains-powered), cut edges hang off the root so they exist in every
  // topology. The checker-clean gate then covers the whole fault machinery:
  // pairing, down-activity, drift compensation, and the fault-aware audit.
  const std::uint64_t fault_draw = s() % 4;
  const std::int64_t horizon_s = cfg.horizon.count_nanos() / 1'000'000'000;
  const auto draw_pid = [&]() {
    return static_cast<psn::ProcessId>(1 + s() % cfg.doors);
  };
  const auto draw_window = [&](psn::SimTime& begin, psn::SimTime& end) {
    const std::int64_t b = 1 + static_cast<std::int64_t>(
                                   s() %
                                   static_cast<std::uint64_t>(horizon_s));
    const std::int64_t d = 1 + static_cast<std::int64_t>(s() % 3);
    begin = psn::SimTime::zero() + Duration::seconds(b);
    end = begin + Duration::seconds(d);
  };
  if (fault_draw & 1) {
    psn::sim::CrashWindow w;
    w.pid = draw_pid();
    draw_window(w.begin, w.end);
    cfg.faults.crashes.push_back(w);
  }
  if (fault_draw & 2) {
    psn::sim::PartitionWindow w;
    w.a = 0;
    w.b = draw_pid();
    draw_window(w.begin, w.end);
    cfg.faults.partitions.push_back(w);
  }
  if (fault_draw != 0 && s() % 2 == 0) {
    psn::sim::ClockFaultWindow w;
    w.pid = draw_pid();
    draw_window(w.begin, w.end);
    w.extra_drift_ppm = 50 + static_cast<std::int64_t>(s() % 400);
    cfg.faults.clock_faults.push_back(w);
  }

  cfg.seed = s();
  cfg.check = true;
  return cfg;
}

/// The fuzz oracle. A clean verdict always passes. One contract is excused,
/// narrowly: "validity-horizon" counts observations delivered after their
/// Kopetz-Steiner lifetime lapsed — with a bounded horizon drawn against
/// duty-cycled radios, lossy links, or unbounded delay tails, staleness is
/// the *environment* breaking the deployment's freshness claim, which the
/// contract exists to surface; it is not a simulator defect. Every other
/// contract (causality, clock replays, soundness, epsilon/drift envelopes)
/// must be spotless. The run streams its trace into the checker, so no
/// horizon leaves it an incomplete window.
bool acceptable(const psn::check::CheckReport& report,
                const psn::analysis::OccupancyConfig& cfg) {
  if (report.clean()) return true;
  for (const auto& contract : report.contracts) {
    if (contract.violations_total == 0) continue;
    if (contract.contract == "validity-horizon" &&
        cfg.validity_horizon.bounded()) {
      continue;
    }
    return false;
  }
  return true;
}

void describe(std::uint64_t round, const psn::analysis::OccupancyConfig& c) {
  std::cout << "round " << round << ": doors=" << c.doors
            << " rate=" << c.movement_rate
            << " delay_kind=" << static_cast<int>(c.delay_kind)
            << " delta_ms=" << c.delta.to_millis()
            << " loss=" << c.loss_probability
            << " duty=" << (c.duty_cycle ? "on" : "off")
            << " mode=" << psn::net::to_string(c.clock_mode)
            << " validity=" << (c.validity_horizon.bounded() ? "bounded" : "inf")
            << " ge=" << (c.gilbert_elliott ? "on" : "off")
            << " faults=" << c.faults.crashes.size() << "c/"
            << c.faults.partitions.size() << "p/"
            << c.faults.clock_faults.size() << "d"
            << " horizon_s=" << c.horizon.to_seconds() << " seed=" << c.seed
            << std::endl;  // flush: a crash must not eat the replay info
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t rounds = 20;
  std::uint64_t master_seed = 1;
  std::int64_t only_round = -1;
  for (int a = 1; a < argc; a++) {
    const std::string arg = argv[a];
    const auto need = [&](const char* flag) -> const char* {
      if (a + 1 >= argc) {
        std::cerr << "checker_fuzz: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++a];
    };
    if (arg == "--rounds") {
      rounds = std::strtoull(need("--rounds"), nullptr, 10);
    } else if (arg == "--master-seed") {
      master_seed = std::strtoull(need("--master-seed"), nullptr, 10);
    } else if (arg == "--only-round") {
      only_round = std::strtoll(need("--only-round"), nullptr, 10);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: checker_fuzz [--rounds N] [--master-seed S] "
                   "[--only-round K]\n";
      return 0;
    } else {
      std::cerr << "checker_fuzz: unknown argument " << arg << "\n";
      return 2;
    }
  }

  std::cout << "checker_fuzz: master-seed=" << master_seed
            << " rounds=" << rounds << "\n";
  std::uint64_t failures = 0;
  std::uint64_t ran = 0;
  psn::Rng stream(master_seed);
  for (std::uint64_t r = 0; r < rounds; r++) {
    const std::uint64_t round_seed = stream();
    if (only_round >= 0 && r != static_cast<std::uint64_t>(only_round)) {
      continue;
    }
    const psn::analysis::OccupancyConfig cfg = draw_config(round_seed);
    describe(r, cfg);
    ran++;
    try {
      const psn::analysis::OccupancyRunResult result =
          psn::analysis::run_occupancy_experiment(cfg);
      if (!result.check.has_value()) {
        std::cout << "round " << r << " FAILED: no check report produced\n";
        failures++;
        continue;
      }
      if (!acceptable(*result.check, cfg)) {
        std::cout << "round " << r << " FAILED: verdict "
                  << psn::check::to_string(result.check->verdict) << "\n"
                  << result.check->summary() << "\n"
                  << "replay: checker_fuzz --master-seed " << master_seed
                  << " --only-round " << r << "\n";
        failures++;
      }
    } catch (const std::exception& e) {
      std::cout << "round " << r << " FAILED: exception: " << e.what() << "\n"
                << "replay: checker_fuzz --master-seed " << master_seed
                << " --only-round " << r << "\n";
      failures++;
    }
  }

  std::cout << "checker_fuzz: " << ran - failures << "/" << ran
            << " rounds clean\n";
  return failures == 0 ? 0 : 1;
}
