#include "analysis/export.hpp"

#include <charconv>
#include <cstdio>
#include <fstream>

#include "common/error.hpp"
#include "net/message.hpp"

namespace psn::analysis {

Table detections_table(const std::vector<core::Detection>& detections) {
  Table t({"detected_s", "to_true", "borderline", "cause_s", "update_index"});
  for (const auto& d : detections) {
    t.row()
        .cell(d.detected_at.to_seconds(), 9)
        .cell(d.to_true ? "1" : "0")
        .cell(d.borderline ? "1" : "0")
        .cell(d.cause_true_time.to_seconds(), 9)
        .cell(d.update_index);
  }
  return t;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          // Integer hex escape — no float conversion, locale cannot touch
          // it. psn-lint: allow(psn-locale-safe-io)
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string format_chars(double v, std::chars_format fmt, int precision) {
  // Fixed notation of the largest double needs ~310 digits plus the
  // precision's fractional digits; 400 covers every caller.
  char buf[400];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v, fmt, precision);
  PSN_CHECK(res.ec == std::errc(), "to_chars: buffer too small");
  return std::string(buf, res.ptr);
}

}  // namespace

std::string json_fixed(double v, int precision) {
  return format_chars(v, std::chars_format::fixed, precision);
}

std::string json_general(double v, int precision) {
  return format_chars(v, std::chars_format::general, precision);
}

std::string trace_jsonl(const std::vector<sim::TraceRecord>& records) {
  std::string out;
  out.reserve(records.size() * 80);
  for (const sim::TraceRecord& r : records) {
    out += "{\"t\":";
    out += json_fixed(r.at.to_seconds(), 9);
    out += ",\"kind\":\"";
    out += sim::to_string(r.kind);
    out += "\",\"pid\":";
    out += std::to_string(r.pid);
    if (r.peer != kNoProcess) {
      out += ",\"peer\":";
      out += std::to_string(r.peer);
    }
    if (r.message_kind >= 0 &&
        r.message_kind <= static_cast<int>(net::MessageKind::kActuation)) {
      out += ",\"msg\":\"";
      out += net::to_string(static_cast<net::MessageKind>(r.message_kind));
      out += '"';
    }
    out += ",\"bytes\":";
    out += std::to_string(r.bytes);
    if (r.seq != 0) {
      out += ",\"seq\":";
      out += std::to_string(r.seq);
    }
    if (!r.note.empty()) {
      out += ",\"note\":\"";
      out += json_escape(r.note);
      out += '"';
    }
    out += "}\n";
  }
  return out;
}

void write_trace_jsonl(const std::vector<sim::TraceRecord>& records,
                       const std::string& path) {
  std::ofstream f(path);
  PSN_CHECK(f.good(), "cannot open trace output path: " + path);
  f << trace_jsonl(records);
}

std::string metrics_json(const MetricsSnapshot& snapshot) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":" + std::to_string(value);
  }
  for (const auto& [name, value] : snapshot.gauges) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":";
    out += json_general(value, 9);
  }
  out += '}';
  return out;
}

}  // namespace psn::analysis
