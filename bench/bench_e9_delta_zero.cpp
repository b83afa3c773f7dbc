// E9 — paper §4.2.3 point 5: "When synchronous communication is used, i.e.,
// when Δ = 0, and the protocol strobes at each relevant event, strobe
// vectors can be replaced by strobe scalars without sacrificing correctness
// or accuracy. This is not so for the causality-based clocks even if Δ = 0;
// Mattern/Fidge clocks are still more powerful than Lamport clocks when
// reasoning about the partial order of distributed program executions."
//
// Part 1: at Δ = 0, strobe-scalar and strobe-vector detections must be
// identical, transition for transition (and exact against the oracle).
// Part 2: on random message-passing executions, the Lamport total order
// cannot recover concurrency — we count event pairs whose Lamport order is
// strict although the events are causally concurrent; the Mattern/Fidge
// order gets every pair right by the isomorphism property.

#include <cstdio>

#include <deque>

#include "analysis/claims.hpp"
#include "clocks/lamport.hpp"
#include "clocks/vector_clock.hpp"
#include "common/table.hpp"

namespace {

using namespace psn;

struct ConcurrencyAudit {
  std::size_t concurrent_pairs = 0;
  std::size_t lamport_misordered = 0;  ///< concurrent but Lamport says <
  std::size_t vector_misjudged = 0;    ///< concurrent but vector disagrees
};

ConcurrencyAudit audit_random_execution(std::uint64_t seed) {
  Rng rng(seed);
  constexpr std::size_t kN = 4;
  std::vector<clocks::LamportClock> lamports;
  std::vector<clocks::MatternVectorClock> vectors;
  for (ProcessId p = 0; p < kN; ++p) {
    lamports.emplace_back(p);
    vectors.emplace_back(p, kN);
  }
  struct Event {
    ProcessId pid;
    clocks::ScalarStamp ls;
    clocks::VectorStamp vs;
    std::vector<std::size_t> preds;
  };
  std::vector<Event> events;
  std::vector<std::size_t> last(kN, SIZE_MAX);
  struct InFlight {
    ProcessId to;
    std::size_t send_event;
    clocks::ScalarStamp ls;
    clocks::VectorStamp vs;
  };
  std::deque<InFlight> net;

  auto push = [&](ProcessId p, clocks::ScalarStamp ls, clocks::VectorStamp vs,
                  std::vector<std::size_t> preds) {
    if (last[p] != SIZE_MAX) preds.push_back(last[p]);
    events.push_back({p, ls, vs, std::move(preds)});
    last[p] = events.size() - 1;
  };

  for (int op = 0; op < 80; ++op) {
    const auto p = static_cast<ProcessId>(rng.uniform_int(0, kN - 1));
    const auto kind = rng.uniform_int(0, 2);
    if (kind == 0) {
      push(p, lamports[p].tick(), vectors[p].tick(), {});
    } else if (kind == 1) {
      auto q = static_cast<ProcessId>(rng.uniform_int(0, kN - 1));
      if (q == p) q = static_cast<ProcessId>((q + 1) % kN);
      const auto ls = lamports[p].on_send();
      const auto vs = vectors[p].on_send();
      push(p, ls, vs, {});
      net.push_back({q, events.size() - 1, ls, vs});
    } else if (!net.empty()) {
      const InFlight m = net.front();
      net.pop_front();
      push(m.to, lamports[m.to].on_receive(m.ls),
           vectors[m.to].on_receive(m.vs), {m.send_event});
    }
  }

  // Ground-truth happens-before closure.
  const std::size_t n = events.size();
  std::vector<std::vector<bool>> hb(n, std::vector<bool>(n, false));
  for (std::size_t b = 0; b < n; ++b) {
    for (const std::size_t a : events[b].preds) {
      hb[a][b] = true;
      for (std::size_t c = 0; c < n; ++c) {
        if (hb[c][a]) hb[c][b] = true;
      }
    }
  }

  ConcurrencyAudit audit;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (hb[a][b] || hb[b][a]) continue;
      audit.concurrent_pairs++;
      // Lamport claims an order for every pair — always "misordered" for a
      // concurrent pair in the sense that concurrency is invisible.
      if (events[a].ls < events[b].ls || events[b].ls < events[a].ls) {
        audit.lamport_misordered++;
      }
      if (!clocks::concurrent(events[a].vs, events[b].vs)) {
        audit.vector_misjudged++;
      }
    }
  }
  return audit;
}

}  // namespace

int main() {
  using namespace psn;

  // ---- Part 1: Δ = 0 equivalence of scalar and vector strobes ----
  std::printf("E9 part 1: Delta = 0 — strobe scalar vs strobe vector\n\n");
  Table t1({"seed", "transitions (scalar)", "transitions (vector)",
            "identical streams", "scalar FP+FN", "vector FP+FN"});
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    analysis::OccupancyConfig cfg;
    cfg.doors = 3;
    cfg.capacity = 60;
    cfg.movement_rate = 20.0;
    cfg.delay_kind = core::DelayKind::kSynchronous;
    cfg.delta = Duration::zero();
    cfg.score_tolerance = Duration::millis(1);
    cfg.horizon = Duration::seconds(60);
    cfg.seed = seed;
    const auto eq = analysis::compare_strobes(cfg);
    t1.row()
        .cell(seed)
        .cell(eq.scalar_transitions)
        .cell(eq.vector_transitions)
        .cell(eq.identical ? "yes" : "NO")
        .cell(eq.scalar_errors)
        .cell(eq.vector_errors);
  }
  std::printf("%s\n", t1.ascii().c_str());

  // ---- Part 2: causal clocks are NOT interchangeable even at Δ = 0 ----
  std::printf(
      "E9 part 2: concurrency audit on random message-passing executions\n"
      "(can the clock see that two events raced?)\n\n");
  Table t2({"seeds", "concurrent pairs", "Lamport sees race",
            "Mattern/Fidge sees race"});
  ConcurrencyAudit total;
  constexpr std::uint64_t kSeeds = 20;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto a = audit_random_execution(seed);
    total.concurrent_pairs += a.concurrent_pairs;
    total.lamport_misordered += a.lamport_misordered;
    total.vector_misjudged += a.vector_misjudged;
  }
  t2.row()
      .cell(kSeeds)
      .cell(total.concurrent_pairs)
      .cell(std::to_string(total.concurrent_pairs - total.lamport_misordered) +
            " / " + std::to_string(total.concurrent_pairs))
      .cell(std::to_string(total.concurrent_pairs - total.vector_misjudged) +
            " / " + std::to_string(total.concurrent_pairs));
  std::printf("%s\n", t2.ascii().c_str());
  std::printf(
      "Claim check: part 1 — identical streams and zero errors for both\n"
      "strobe flavors at Delta=0. Part 2 — Lamport recognizes 0 of the\n"
      "concurrent pairs (total order hides races); Mattern/Fidge all.\n");
  return 0;
}
