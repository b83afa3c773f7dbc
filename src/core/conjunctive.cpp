#include "core/conjunctive.hpp"

#include <algorithm>
#include <deque>

#include "common/error.hpp"

namespace psn::core {

namespace {

/// X's end happens before Y's begin — X is definitely over when Y starts, so
/// they cannot overlap. Open-ended X never precedes anything.
bool precedes(const ConjunctInterval& x, const ConjunctInterval& y) {
  if (!x.end_stamp) return false;
  return clocks::happens_before(*x.end_stamp, y.begin_stamp);
}

}  // namespace

std::vector<ConjunctInterval> WeakConjunctiveDetector::local_intervals(
    const ExecutionView& view, std::size_t process,
    const Predicate& predicate) {
  const auto by_pid = predicate.local_conjuncts();
  const auto it = by_pid.find(view.pid(process));
  PSN_CHECK(it != by_pid.end(), "no local conjunct at this process");
  GlobalState local(predicate);
  const auto conjunction = [&] {
    return std::all_of(it->second.begin(), it->second.end(),
                       [&](Predicate::NodeId c) {
                         return predicate.evaluate(local, c) != 0.0;
                       });
  };
  std::vector<ConjunctInterval> out;
  bool holding = conjunction();
  PSN_CHECK(!holding,
            "local conjunct must be false on the empty state (no sensed "
            "values yet); rewrite the conjunct so an unreported variable "
            "does not satisfy it");

  const auto& events = view.events(process);
  ConjunctInterval current;
  for (std::size_t k = 0; k < events.size(); ++k) {
    const auto& e = events[k];
    if (const auto column = local.column(e.var.name)) {
      local.set(*column, e.var.pid, e.value);
    }
    const bool now = conjunction();
    if (now == holding) continue;
    if (now) {
      current = ConjunctInterval{};
      current.process = process;
      current.begin_event = k;
      current.begin_stamp = e.stamp;
      current.begin_time = e.when;
    } else {
      current.end_event = k;
      current.end_stamp = e.stamp;
      current.end_time = e.when;
      out.push_back(current);
    }
    holding = now;
  }
  if (holding) out.push_back(current);  // open-ended at the horizon
  return out;
}

std::vector<ConjunctiveMatch> WeakConjunctiveDetector::run(
    const ExecutionView& view, const Predicate& predicate) const {
  PSN_CHECK(predicate.is_conjunctive(),
            "WeakConjunctiveDetector requires a conjunctive predicate");
  const auto by_pid = predicate.local_conjuncts();

  // Conjunct AND per view process; processes without conjuncts don't
  // constrain the match.
  std::vector<std::deque<ConjunctInterval>> queues;
  for (std::size_t p = 0; p < view.num_processes(); ++p) {
    if (!by_pid.contains(view.pid(p))) continue;
    auto intervals = local_intervals(view, p, predicate);
    queues.emplace_back(intervals.begin(), intervals.end());
  }
  if (queues.empty()) return {};

  std::vector<ConjunctiveMatch> matches;
  for (;;) {
    // Any empty queue → no further match possible.
    if (std::any_of(queues.begin(), queues.end(),
                    [](const auto& q) { return q.empty(); })) {
      break;
    }
    // Garg–Waldecker elimination: drop any head that precedes another head —
    // it can never be part of a pairwise-overlapping set with current or
    // later intervals.
    bool removed = false;
    for (std::size_t a = 0; a < queues.size() && !removed; ++a) {
      for (std::size_t b = 0; b < queues.size(); ++b) {
        if (a == b) continue;
        if (precedes(queues[a].front(), queues[b].front())) {
          queues[a].pop_front();
          removed = true;
          break;
        }
      }
    }
    if (removed) continue;

    // Heads are pairwise non-preceding → weak conjunctive match.
    ConjunctiveMatch m;
    SimTime begin = SimTime::zero();
    for (const auto& q : queues) {
      m.intervals.push_back(q.front());
      begin = std::max(begin, q.front().begin_time);
    }
    m.window_begin = begin;
    matches.push_back(std::move(m));

    // Every-occurrence continuation: consume the interval that ends first
    // (open-ended intervals never end; if all are open-ended, we are done —
    // the predicate stays satisfiable to the horizon).
    std::size_t victim = SIZE_MAX;
    SimTime earliest_end = SimTime::max();
    for (std::size_t p = 0; p < queues.size(); ++p) {
      const auto& head = queues[p].front();
      if (head.end_time && *head.end_time < earliest_end) {
        earliest_end = *head.end_time;
        victim = p;
      }
    }
    if (victim == SIZE_MAX) break;
    queues[victim].pop_front();
  }
  return matches;
}

}  // namespace psn::core
