#include "common/metrics.hpp"

#include <cstdio>

namespace psn {

std::string labeled_metric(std::string_view base, std::uint64_t id,
                           std::string_view suffix) {
  std::string out;
  out.reserve(base.size() + suffix.size() + 22);
  out += base;
  out += '.';
  out += std::to_string(id);
  out += '.';
  out += suffix;
  return out;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.gauges) gauges[name] += v;
  for (const auto& [name, s] : other.stats) stats[name].merge(s);
  for (const auto& [name, h] : other.histograms) {
    const auto [it, inserted] = histograms.emplace(name, h);
    if (!inserted) it->second.merge(h);
  }
}

Table MetricsSnapshot::table() const {
  Table t({"name", "kind", "value"});
  char buf[160];
  for (const auto& [name, v] : counters) {
    t.row().cell(name).cell("counter").cell(v);
  }
  for (const auto& [name, v] : gauges) {
    std::snprintf(buf, sizeof buf, "%.6g", v);
    t.row().cell(name).cell("gauge").cell(buf);
  }
  for (const auto& [name, s] : stats) {
    t.row().cell(name).cell("stat").cell(s.summary());
  }
  for (const auto& [name, h] : histograms) {
    std::snprintf(buf, sizeof buf,
                  "total=%zu bins=%zu range=[%.6g, %.6g) under=%zu over=%zu",
                  h.total(), h.bins(), h.bin_lo(0), h.bin_lo(h.bins()),
                  h.underflow(), h.overflow());
    t.row().cell(name).cell("histogram").cell(buf);
  }
  return t;
}

}  // namespace psn
