// The secure-banking rule from the paper (§3.1.1.a.ii, citing [22]):
// "a biometric key is presented remotely after a password is entered across
// the network" — a *relative timing relation* between two intervals at
// different locations, with a real-time bound.
//
// Two terminals: P_1 validates passwords, P_2 reads biometrics. The rule:
//     password session  BEFORE  biometric presentation, gap <= 5 s.
// Matches are additionally *causally certified* when the strobe vector
// stamps order the intervals — a match that rests only on ε-synchronized
// timestamps could be a race artifact (the paper's second open direction in
// §6 names exactly this application for the partial order model).
//
// Usage: secure_banking [sessions] [seed]

#include <cstdint>
#include <cstdio>

#include "common/table.hpp"
#include "core/interval_algebra.hpp"
#include "core/sharded_system.hpp"
#include "example_args.hpp"

int main(int argc, char** argv) {
  using namespace psn;

  const examples::Args args(argc, argv, "secure_banking [sessions] [seed]");
  // Each session takes 10 simulated seconds.
  const int sessions =
      args.get<int>(1, "sessions", 12, 1, examples::kMaxSeconds / 10 - 1);
  const auto seed = args.get<std::uint64_t>(2, "seed", 8, 0, UINT64_MAX);

  core::ShardedSystemConfig config;
  core::SystemConfig& sys = config.base;
  sys.num_sensors = 2;
  sys.sim.seed = seed;
  sys.sim.horizon = SimTime::zero() + Duration::seconds(10 * (sessions + 1));
  sys.delta = Duration::millis(120);
  core::ShardedPervasiveSystem system(config);

  const auto pwd_terminal = system.world().create_object("password_terminal");
  const auto bio_terminal = system.world().create_object("biometric_reader");
  const Name password_ok("password_ok");
  const Name biometric_ok("biometric_ok");
  system.world().object(pwd_terminal).set_attribute(password_ok, false);
  system.world().object(bio_terminal).set_attribute(biometric_ok, false);
  system.assign(pwd_terminal, password_ok, 1);
  system.assign(bio_terminal, biometric_ok, 2);

  // Script the sessions: most are legitimate (biometric follows the
  // password within the window); some are violations (biometric too late,
  // or with no password at all).
  auto& sched = system.sim().scheduler();
  Rng rng = system.sim().rng_for("sessions");
  int legitimate = 0;
  for (int s = 0; s < sessions; ++s) {
    const SimTime base = SimTime::zero() + Duration::seconds(10 * (s + 1));
    const bool valid = rng.bernoulli(0.7);
    if (valid) legitimate++;
    // Password entry session: 1.5 s.
    if (valid || rng.bernoulli(0.5)) {
      sched.schedule_at(base, [&system, pwd_terminal, password_ok] {
        system.world().emit(pwd_terminal, password_ok, true);
      });
      sched.schedule_at(base + Duration::millis(1500),
                        [&system, pwd_terminal, password_ok] {
                          system.world().emit(pwd_terminal, password_ok,
                                              false);
                        });
    }
    // Biometric presentation: within 2 s if valid, after 8 s if not.
    const Duration gap =
        valid ? Duration::millis(rng.uniform_int(200, 2000))
              : Duration::millis(rng.uniform_int(8000, 9000));
    const SimTime bio_at = base + Duration::millis(1500) + gap;
    sched.schedule_at(bio_at, [&system, bio_terminal, biometric_ok] {
      system.world().emit(bio_terminal, biometric_ok, true);
    });
    sched.schedule_at(bio_at + Duration::millis(800),
                      [&system, bio_terminal, biometric_ok] {
                        system.world().emit(bio_terminal, biometric_ok,
                                            false);
                      });
  }
  system.run();

  core::RelativeTimingSpec spec;
  spec.relation = core::AllenRelation::kBefore;
  spec.max_gap = Duration::seconds(5);
  core::RelativeTimingDetector detector(
      core::VarRef{1, "password_ok"}, [](double v) { return v > 0; },
      core::VarRef{2, "biometric_ok"}, [](double v) { return v > 0; }, spec);
  const auto matches = detector.run(system.log());

  std::printf(
      "Secure banking: %d sessions scripted, %d legitimate "
      "(password then biometric within 5 s)\n\n",
      sessions, legitimate);

  Table table({"match", "password ends", "biometric begins", "gap (ms)",
               "causally certified"});
  for (std::size_t m = 0; m < matches.size(); ++m) {
    const auto& x = matches[m].x;
    const auto& y = matches[m].y;
    table.row()
        .cell(m + 1)
        .cell(x.when.end.to_string())
        .cell(y.when.begin.to_string())
        .cell((y.when.begin - x.when.end).to_millis(), 4)
        .cell(matches[m].causally_certified ? "yes" : "NO (race)");
  }
  std::printf("%s\n", table.ascii().c_str());
  std::printf(
      "authenticated sessions detected: %zu of %d legitimate.\n"
      "A 'NO (race)' row would mean the order rests only on eps-accurate\n"
      "timestamps — the strobe partial order could not certify it.\n",
      matches.size(), legitimate);

  // The claim: every legitimate session, and nothing else, is matched, each
  // match causally certified within the 5 s window.
  bool certified = true;
  for (const auto& m : matches) {
    certified = certified && m.causally_certified &&
                m.y.when.begin - m.x.when.end <= spec.max_gap;
  }
  const bool claim = legitimate > 0 &&
                     matches.size() == static_cast<std::size_t>(legitimate) &&
                     certified;
  if (!claim) {
    std::fprintf(stderr,
                 "secure_banking: claim failed: %zu matches for %d legitimate "
                 "sessions, all certified within 5 s: %s\n",
                 matches.size(), legitimate, certified ? "yes" : "no");
    return 1;
  }
  return 0;
}
