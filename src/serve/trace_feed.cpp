#include "serve/trace_feed.hpp"

#include <charconv>
#include <cmath>
#include <string>

#if !defined(__cpp_lib_to_chars) || __cpp_lib_to_chars < 201611L
#include <cerrno>
#include <clocale>
#include <cstdlib>
#include <cstring>
#endif

#include "analysis/export.hpp"
#include "net/message.hpp"

namespace psn::serve {

namespace {

/// Hand-rolled scanner for the flat one-object-per-line schema. The wire
/// format never nests, so a full JSON parser would only add failure modes;
/// this one accepts exactly what analysis::trace_jsonl produces (any key
/// order) and rejects everything else with a pointed diagnostic.
class LineParser {
 public:
  explicit LineParser(std::string_view line) : p_(line.data()), end_(line.data() + line.size()) {}

  ParsedRecord parse() {
    ParsedRecord out;
    skip_ws();
    if (!consume('{')) return fail(out, "expected '{'");
    skip_ws();
    if (consume('}')) {
      finish(out);
      return out;
    }
    while (true) {
      std::string key;
      if (!parse_string(key)) return fail(out, "expected key string");
      skip_ws();
      if (!consume(':')) return fail(out, "expected ':' after key \"" + key + "\"");
      skip_ws();
      if (!parse_value(key, out)) return out;
      skip_ws();
      if (consume(',')) {
        skip_ws();
        continue;
      }
      if (consume('}')) break;
      return fail(out, "expected ',' or '}' after value of \"" + key + "\"");
    }
    skip_ws();
    if (p_ != end_) return fail(out, "trailing content after '}'");
    finish(out);
    return out;
  }

 private:
  ParsedRecord& fail(ParsedRecord& out, const std::string& why) {
    if (out.error.empty()) out.error = why;
    return out;
  }

  void finish(ParsedRecord& out) {
    if (!out.error.empty()) return;
    if (!have_t_) out.error = "missing required key \"t\"";
    else if (!have_kind_) out.error = "missing required key \"kind\"";
    else if (!have_pid_) out.error = "missing required key \"pid\"";
  }

  void skip_ws() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\r')) p_++;
  }

  bool consume(char c) {
    if (p_ == end_ || *p_ != c) return false;
    p_++;
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (p_ != end_ && *p_ != '"') {
      char c = *p_++;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (p_ == end_) return false;
      const char esc = *p_++;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (end_ - p_ < 4) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = *p_++;
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          if (code > 0x7f) return false;  // the exporter only escapes ASCII
          out += static_cast<char>(code);
          break;
        }
        default: return false;
      }
    }
    return consume('"');
  }

  // Numbers go through std::from_chars, never strtod/strtoull: the strto*
  // family honors LC_NUMERIC, so under a comma-decimal locale every
  // fractional timestamp would be truncated at the '.' (and the trailing
  // ".5" then rejected as garbage). from_chars is locale-independent by
  // specification and needs no NUL terminator.
  bool parse_uint(std::uint64_t& out) {
    if (p_ == end_ || *p_ < '0' || *p_ > '9') return false;
    const auto res = std::from_chars(p_, end_, out, 10);
    if (res.ec != std::errc() || res.ptr == p_) return false;
    p_ = res.ptr;
    return true;
  }

  bool parse_double(double& out) {
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
    const auto res = std::from_chars(p_, end_, out);
    if (res.ec != std::errc() || res.ptr == p_) return false;
    p_ = res.ptr;
    return true;
#else
    // Shim for standard libraries without floating-point from_chars: copy
    // the number token, substitute the active locale's decimal point for
    // '.', and let strtod parse the localized copy. Character counts map
    // 1:1, so the input cursor advances by exactly what strtod consumed.
    char buf[64];
    std::size_t n = 0;
    const char* q = p_;
    if (q != end_ && (*q == '-' || *q == '+')) buf[n++] = *q++;
    char point = '.';
    if (const struct lconv* lc = std::localeconv()) {
      if (lc->decimal_point != nullptr && lc->decimal_point[0] != '\0' &&
          std::strlen(lc->decimal_point) == 1) {
        point = lc->decimal_point[0];
      }
    }
    while (q != end_ && n + 1 < sizeof(buf) &&
           ((*q >= '0' && *q <= '9') || *q == '.' || *q == 'e' || *q == 'E' ||
            *q == '+' || *q == '-')) {
      buf[n++] = *q == '.' ? point : *q;
      q++;
    }
    buf[n] = '\0';
    errno = 0;
    char* after = nullptr;
    // Sanctioned no-<charconv> fallback: the digits above were rewritten to
    // the active locale's decimal point, so strtod parses them correctly
    // under any locale. psn-lint: allow(psn-locale-safe-io)
    out = std::strtod(buf, &after);
    if (errno == ERANGE || after == buf) return false;
    p_ += after - buf;
    return true;
#endif
  }

  bool seen(ParsedRecord& out, bool& flag, const std::string& key) {
    if (flag) {
      fail(out, "duplicate key \"" + key + "\"");
      return true;
    }
    flag = true;
    return false;
  }

  /// Dispatches one key/value pair into the record. Returns false (with
  /// out.error set) on any malformation.
  bool parse_value(const std::string& key, ParsedRecord& out) {
    if (key == "t") {
      if (seen(out, have_t_, key)) return false;
      double seconds = 0.0;
      if (!parse_double(seconds) || !std::isfinite(seconds) ||
          seconds < 0.0) {
        fail(out, "\"t\" must be a non-negative number of seconds");
        return false;
      }
      out.record.at = SimTime::from_seconds(seconds);
      return true;
    }
    if (key == "kind") {
      if (seen(out, have_kind_, key)) return false;
      std::string name;
      if (!parse_string(name)) {
        fail(out, "\"kind\" must be a string");
        return false;
      }
      for (int k = 0; k <= static_cast<int>(sim::TraceKind::kHeal); ++k) {
        if (name == sim::to_string(static_cast<sim::TraceKind>(k))) {
          out.record.kind = static_cast<sim::TraceKind>(k);
          return true;
        }
      }
      fail(out, "unknown trace kind \"" + name + "\"");
      return false;
    }
    if (key == "pid" || key == "peer") {
      bool& flag = key == "pid" ? have_pid_ : have_peer_;
      if (seen(out, flag, key)) return false;
      std::uint64_t v = 0;
      if (!parse_uint(v) || v >= kNoProcess) {
        fail(out, "\"" + key + "\" must be a process id");
        return false;
      }
      (key == "pid" ? out.record.pid : out.record.peer) =
          static_cast<ProcessId>(v);
      return true;
    }
    if (key == "msg") {
      if (seen(out, have_msg_, key)) return false;
      std::string name;
      if (!parse_string(name)) {
        fail(out, "\"msg\" must be a string");
        return false;
      }
      for (int k = 0; k <= static_cast<int>(net::MessageKind::kActuation);
           ++k) {
        if (name == net::to_string(static_cast<net::MessageKind>(k))) {
          out.record.message_kind = k;
          return true;
        }
      }
      fail(out, "unknown message kind \"" + name + "\"");
      return false;
    }
    if (key == "bytes") {
      if (seen(out, have_bytes_, key)) return false;
      std::uint64_t v = 0;
      if (!parse_uint(v)) {
        fail(out, "\"bytes\" must be a non-negative integer");
        return false;
      }
      out.record.bytes = static_cast<std::size_t>(v);
      return true;
    }
    if (key == "seq") {
      if (seen(out, have_seq_, key)) return false;
      if (!parse_uint(out.record.seq)) {
        fail(out, "\"seq\" must be a non-negative integer");
        return false;
      }
      return true;
    }
    if (key == "note") {
      if (seen(out, have_note_, key)) return false;
      if (!parse_string(out.record.note)) {
        fail(out, "\"note\" must be a string");
        return false;
      }
      return true;
    }
    fail(out, "unknown key \"" + key + "\"");
    return false;
  }

  const char* p_;
  const char* end_;
  bool have_t_ = false, have_kind_ = false, have_pid_ = false,
       have_peer_ = false, have_msg_ = false, have_bytes_ = false,
       have_seq_ = false, have_note_ = false;
};

}  // namespace

ParsedRecord parse_trace_line(std::string_view line) {
  return LineParser(line).parse();
}

std::string trace_line(const sim::TraceRecord& record) {
  // The exporter's one formatter, so the two can never drift apart.
  std::string out;
  analysis::append_trace_line(out, record);
  out.pop_back();  // the '\n'
  return out;
}

}  // namespace psn::serve
