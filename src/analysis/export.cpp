#include "analysis/export.hpp"

#include <charconv>
#include <cstdio>

#include "common/error.hpp"
#include "net/message.hpp"

namespace psn::analysis {

std::string json_escape(std::string_view s) {
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

void append_chars(std::string& out, double v, std::chars_format fmt,
                  int precision) {
  // Fixed notation of the largest double needs ~310 digits plus the
  // precision's fractional digits; 400 covers every caller.
  char buf[400];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v, fmt, precision);
  PSN_CHECK(res.ec == std::errc(), "to_chars: buffer too small");
  out.append(buf, res.ptr);
}

/// Appends an integer's decimal text (the bytes std::to_string gives).
template <typename Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

}  // namespace

std::string json_fixed(double v, int precision) {
  std::string out;
  append_chars(out, v, std::chars_format::fixed, precision);
  return out;
}

std::string json_general(double v, int precision) {
  std::string out;
  append_chars(out, v, std::chars_format::general, precision);
  return out;
}

void append_trace_line(std::string& out, const sim::TraceRecord& r) {
  out += "{\"t\":";
  append_chars(out, r.at.to_seconds(), std::chars_format::fixed, 9);
  out += ",\"kind\":\"";
  out += sim::to_string(r.kind);
  out += "\",\"pid\":";
  append_int(out, r.pid);
  if (r.peer != kNoProcess) {
    out += ",\"peer\":";
    append_int(out, r.peer);
  }
  if (r.message_kind >= 0 &&
      r.message_kind <= static_cast<int>(net::MessageKind::kActuation)) {
    out += ",\"msg\":\"";
    out += net::to_string(static_cast<net::MessageKind>(r.message_kind));
    out += '"';
  }
  out += ",\"bytes\":";
  append_int(out, r.bytes);
  if (r.seq != 0) {
    out += ",\"seq\":";
    append_int(out, r.seq);
  }
  if (!r.note.empty()) {
    out += ",\"note\":\"";
    out += json_escape(r.note.str());
    out += '"';
  }
  out += "}\n";
}

std::string trace_jsonl(const std::vector<sim::TraceRecord>& records) {
  std::string out;
  out.reserve(records.size() * 80);
  for (const sim::TraceRecord& r : records) append_trace_line(out, r);
  return out;
}

void write_trace_jsonl(const std::vector<sim::TraceRecord>& records,
                       std::FILE* out) {
  constexpr std::size_t kChunk = 64 * 1024;
  std::string buf;
  buf.reserve(kChunk + 512);
  const auto flush = [&buf, out] {
    PSN_CHECK(std::fwrite(buf.data(), 1, buf.size(), out) == buf.size(),
              "trace write failed");
    buf.clear();
  };
  for (const sim::TraceRecord& r : records) {
    append_trace_line(buf, r);
    if (buf.size() >= kChunk) flush();
  }
  flush();
  PSN_CHECK(std::fflush(out) == 0, "trace write failed");
}

void write_trace_jsonl(const std::vector<sim::TraceRecord>& records,
                       const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  PSN_CHECK(f != nullptr, "cannot open trace output path: " + path);
  try {
    write_trace_jsonl(records, f);
  } catch (...) {
    std::fclose(f);
    throw;
  }
  PSN_CHECK(std::fclose(f) == 0, "trace write failed: " + path);
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
