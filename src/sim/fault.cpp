#include "sim/fault.hpp"

#include <algorithm>
#include <charconv>
#include <tuple>
#include <utility>

#include "common/error.hpp"

namespace psn::sim {

namespace {

[[noreturn]] void bad_spec(const std::string& clause, const std::string& why) {
  throw ConfigError("bad fault clause '" + clause + "': " + why +
                    " (grammar: crash:<pid>@<s>+<s> | cut:<a>-<b>@<s>+<s> | "
                    "drift:<pid>@<s>+<s>:<ppm>)");
}

std::string trimmed(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return {};
  std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

/// Parses a non-negative decimal-seconds field (e.g. "2", "0.25"). Numbers go
/// through std::from_chars, which ignores the process locale (strtod would
/// stop at the '.' under a comma-decimal LC_NUMERIC).
SimTime parse_seconds(const std::string& clause, const std::string& field) {
  if (field.empty()) bad_spec(clause, "empty time field");
  double s = 0.0;
  const char* last = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), last, s);
  const bool out_of_range = ec == std::errc::result_out_of_range;
  if (ptr != last || (ec != std::errc() && !out_of_range) || s < 0.0) {
    bad_spec(clause, "'" + field + "' is not a non-negative seconds value");
  }
  if (out_of_range || !seconds_fit_nanos(s)) {
    bad_spec(clause,
             "'" + field + "' is out of range (must be finite, below 2^63 ns)");
  }
  return SimTime::from_seconds(s);
}

std::int64_t parse_int(const std::string& clause, const std::string& field) {
  if (field.empty()) bad_spec(clause, "empty integer field");
  std::int64_t v = 0;
  const char* last = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), last, v);
  if (ec != std::errc() || ptr != last) {
    bad_spec(clause, "'" + field + "' is not an integer");
  }
  return v;
}

ProcessId parse_pid(const std::string& clause, const std::string& field) {
  const std::int64_t v = parse_int(clause, field);
  if (v < 0 || v >= static_cast<std::int64_t>(kNoProcess)) {
    bad_spec(clause, "'" + field + "' is not a process id");
  }
  return static_cast<ProcessId>(v);
}

/// Splits "<begin_s>+<dur_s>" and returns the [begin, end) window.
std::pair<SimTime, SimTime> parse_window(const std::string& clause,
                                         const std::string& field) {
  const std::size_t plus = field.find('+');
  if (plus == std::string::npos) bad_spec(clause, "expected <begin_s>+<dur_s>");
  const SimTime begin = parse_seconds(clause, field.substr(0, plus));
  const SimTime dur_as_time = parse_seconds(clause, field.substr(plus + 1));
  const Duration dur = Duration(dur_as_time.count_nanos());
  if (dur <= Duration::zero()) bad_spec(clause, "duration must be > 0");
  if (dur > SimTime::max() - begin) {
    bad_spec(clause, "window end is out of range (must be below 2^63 ns)");
  }
  return {begin, begin + dur};
}

}  // namespace

FaultPlan parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t semi = spec.find(';', pos);
    const std::size_t end = semi == std::string::npos ? spec.size() : semi;
    const std::string clause = trimmed(spec.substr(pos, end - pos));
    pos = end + 1;
    if (clause.empty()) continue;
    const std::size_t colon = clause.find(':');
    if (colon == std::string::npos) bad_spec(clause, "missing ':'");
    const std::string verb = clause.substr(0, colon);
    const std::string rest = clause.substr(colon + 1);
    const std::size_t at = rest.find('@');
    if (at == std::string::npos) bad_spec(clause, "missing '@'");
    if (verb == "crash") {
      CrashWindow w;
      w.pid = parse_pid(clause, rest.substr(0, at));
      std::tie(w.begin, w.end) = parse_window(clause, rest.substr(at + 1));
      plan.crashes.push_back(w);
    } else if (verb == "cut") {
      const std::string edge = rest.substr(0, at);
      const std::size_t dash = edge.find('-');
      if (dash == std::string::npos) bad_spec(clause, "expected <a>-<b>");
      PartitionWindow w;
      w.a = parse_pid(clause, edge.substr(0, dash));
      w.b = parse_pid(clause, edge.substr(dash + 1));
      std::tie(w.begin, w.end) = parse_window(clause, rest.substr(at + 1));
      plan.partitions.push_back(w);
    } else if (verb == "drift") {
      const std::string tail = rest.substr(at + 1);
      const std::size_t ppm_colon = tail.rfind(':');
      if (ppm_colon == std::string::npos) {
        bad_spec(clause, "expected <begin_s>+<dur_s>:<ppm>");
      }
      ClockFaultWindow w;
      w.pid = parse_pid(clause, rest.substr(0, at));
      std::tie(w.begin, w.end) =
          parse_window(clause, tail.substr(0, ppm_colon));
      w.extra_drift_ppm = parse_int(clause, tail.substr(ppm_colon + 1));
      plan.clock_faults.push_back(w);
    } else {
      bad_spec(clause, "unknown verb '" + verb + "'");
    }
  }
  return plan;
}

FaultSchedule::FaultSchedule(FaultPlan plan) : plan_(std::move(plan)) {
  for (const CrashWindow& w : plan_.crashes) {
    PSN_CHECK(w.pid != kNoProcess, "crash window needs a process id");
    if (w.pid == 0) {
      throw ConfigError(
          "fault plan: process 0 (the mains-powered root) cannot crash; "
          "crash a sensor pid");
    }
    if (!(w.begin < w.end)) {
      throw ConfigError("fault plan: crash window must have begin < end");
    }
  }
  for (PartitionWindow& w : plan_.partitions) {
    PSN_CHECK(w.a != kNoProcess && w.b != kNoProcess,
              "cut window needs two process ids");
    if (w.a == w.b) throw ConfigError("fault plan: a cut needs two pids");
    if (w.a > w.b) std::swap(w.a, w.b);
    if (!(w.begin < w.end)) {
      throw ConfigError("fault plan: cut window must have begin < end");
    }
  }
  for (const ClockFaultWindow& w : plan_.clock_faults) {
    PSN_CHECK(w.pid != kNoProcess, "drift window needs a process id");
    if (!(w.begin < w.end)) {
      throw ConfigError("fault plan: drift window must have begin < end");
    }
    if (w.extra_drift_ppm == 0) {
      throw ConfigError("fault plan: drift window needs a nonzero ppm");
    }
  }

  crashes_by_pid_ = plan_.crashes;
  std::sort(crashes_by_pid_.begin(), crashes_by_pid_.end(),
            [](const CrashWindow& x, const CrashWindow& y) {
              return std::tie(x.pid, x.begin, x.end) <
                     std::tie(y.pid, y.begin, y.end);
            });
  for (std::size_t i = 1; i < crashes_by_pid_.size(); ++i) {
    const CrashWindow& prev = crashes_by_pid_[i - 1];
    const CrashWindow& next = crashes_by_pid_[i];
    if (prev.pid == next.pid && next.begin < prev.end) {
      throw ConfigError("fault plan: overlapping crash windows for process " +
                        std::to_string(prev.pid) + "; merge them into one");
    }
  }

  std::sort(plan_.partitions.begin(), plan_.partitions.end(),
            [](const PartitionWindow& x, const PartitionWindow& y) {
              return std::tie(x.a, x.b, x.begin, x.end) <
                     std::tie(y.a, y.b, y.begin, y.end);
            });
  for (std::size_t i = 1; i < plan_.partitions.size(); ++i) {
    const PartitionWindow& prev = plan_.partitions[i - 1];
    const PartitionWindow& next = plan_.partitions[i];
    if (prev.a == next.a && prev.b == next.b && next.begin < prev.end) {
      throw ConfigError("fault plan: overlapping cut windows for edge " +
                        std::to_string(prev.a) + "-" + std::to_string(prev.b) +
                        "; merge them into one");
    }
  }

  transitions_.reserve(plan_.partitions.size() * 2);
  for (const PartitionWindow& w : plan_.partitions) {
    transitions_.push_back({w.begin, w.a, w.b, /*cut=*/true});
    transitions_.push_back({w.end, w.a, w.b, /*cut=*/false});
  }
  // Heals sort before cuts at one instant so that back-to-back windows on
  // the same edge ([t0,t1) then [t1,t2)) leave it cut at t1.
  std::sort(transitions_.begin(), transitions_.end(),
            [](const PartitionTransition& x, const PartitionTransition& y) {
              return std::tie(x.at, x.a, x.b, x.cut) <
                     std::tie(y.at, y.a, y.b, y.cut);
            });
}

bool FaultSchedule::down(ProcessId pid, SimTime t) const {
  // First window with (pid, begin) strictly after (pid, t); the candidate
  // covering window, if any, is the one just before it.
  auto it = std::upper_bound(
      crashes_by_pid_.begin(), crashes_by_pid_.end(), t,
      [pid](SimTime when, const CrashWindow& w) {
        return std::make_tuple(pid, when) < std::make_tuple(w.pid, w.begin);
      });
  if (it == crashes_by_pid_.begin()) return false;
  const CrashWindow& w = *(it - 1);
  return w.pid == pid && w.begin <= t && t < w.end;
}

Duration FaultSchedule::drift_offset(ProcessId pid, SimTime t) const {
  std::int64_t offset_ns = 0;
  for (const ClockFaultWindow& w : plan_.clock_faults) {
    if (w.pid != pid || t <= w.begin) continue;
    const SimTime upto = t < w.end ? t : w.end;
    const std::int64_t overlap_ns = (upto - w.begin).count_nanos();
    offset_ns += w.extra_drift_ppm * overlap_ns / 1'000'000;
  }
  return Duration(offset_ns);
}

std::size_t FaultSchedule::partition_epoch(SimTime t) const {
  auto it = std::upper_bound(
      transitions_.begin(), transitions_.end(), t,
      [](SimTime when, const PartitionTransition& tr) { return when < tr.at; });
  return static_cast<std::size_t>(it - transitions_.begin());
}

void FaultSchedule::append_trace_records(std::vector<TraceRecord>& out,
                                         SimTime from, SimTime until) const {
  const auto inside = [from, until](SimTime at) {
    return from <= at && at < until;
  };
  for (const CrashWindow& w : crashes_by_pid_) {
    if (inside(w.begin)) {
      out.push_back({w.begin, TraceKind::kCrash, w.pid, kNoProcess, -1, 0,
                     Name(), 0});
    }
    if (inside(w.end)) {
      out.push_back({w.end, TraceKind::kRestart, w.pid, kNoProcess, -1, 0,
                     Name(), 0});
    }
  }
  for (const PartitionWindow& w : plan_.partitions) {
    if (inside(w.begin)) {
      out.push_back({w.begin, TraceKind::kPartition, w.a, w.b, -1, 0,
                     Name(), 0});
    }
    if (inside(w.end)) {
      out.push_back({w.end, TraceKind::kHeal, w.a, w.b, -1, 0, Name(), 0});
    }
  }
}

}  // namespace psn::sim
