#include "serve/trace_feed.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "analysis/export.hpp"
#include "net/message.hpp"

namespace psn::serve {

namespace {

enum class Key : std::uint8_t {
  kT, kKind, kPid, kPeer, kMsg, kBytes, kSeq, kNote
};

constexpr std::array<std::string_view, 8> kKeyNames = {
    "t", "kind", "pid", "peer", "msg", "bytes", "seq", "note"};

constexpr std::size_t kTraceKinds =
    static_cast<std::size_t>(sim::TraceKind::kHeal) + 1;
constexpr std::size_t kMessageKinds =
    static_cast<std::size_t>(net::MessageKind::kActuation) + 1;

/// The wire names of the N values of Enum, built once from the to_string
/// the exporter writes with, so the two cannot drift apart.
template <typename Enum, std::size_t N>
const std::array<std::string_view, N>& wire_names(const char* (*name)(Enum)) {
  static const auto names = [name] {
    std::array<std::string_view, N> out{};
    for (std::size_t k = 0; k < N; ++k) out[k] = name(static_cast<Enum>(k));
    return out;
  }();
  return names;
}

/// Index of `s` in `names`, or -1. The first bytes are compared before the
/// whole names: they tell most candidates apart without a memcmp call.
template <std::size_t N>
int find_name(const std::array<std::string_view, N>& names,
              std::string_view s) {
  if (s.empty()) return -1;
  for (std::size_t k = 0; k < N; ++k) {
    const std::string_view name = names[k];
    if (name[0] == s[0] && name == s) return static_cast<int>(k);
  }
  return -1;
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Below 2^50 ns the double path is exact: from_chars and the product with
/// 1e9 each round once, a relative error of at most 2^-52 in all, which is
/// under 0.25 ns there, so llround lands on the same integer as the digits.
constexpr std::int64_t kExactNanos = std::int64_t{1} << 50;

/// Single-pass scanner for the flat one-object-per-line schema. The wire
/// format never nests, so a full JSON parser would only add failure modes;
/// this one accepts exactly what analysis::trace_jsonl produces (any key
/// order) and rejects everything else with a pointed diagnostic. String
/// tokens are views into the line; only a token with a backslash is decoded,
/// into one scratch buffer. Diagnostics are built on the failure path only.
class LineParser {
 public:
  LineParser(std::string_view line, ParsedRecord& out)
      : p_(line.data()), end_(line.data() + line.size()), out_(out) {}

  /// True when the line is a record; false with the diagnostic set.
  bool parse() {
    skip_ws();
    if (!consume('{')) return fail("expected '{'");
    skip_ws();
    if (!consume('}')) {
      while (true) {
        int k = match_key();
        if (k < 0) {
          std::string_view name;
          if (!scan_string(name)) return fail("expected key string");
          skip_ws();
          if (!consume(':')) return fail("expected ':' after key ", name);
          k = find_name(kKeyNames, name);
          if (k < 0) return fail("unknown key ", name);
        }
        skip_ws();
        const Key key = static_cast<Key>(k);
        if (!parse_value(key)) return false;
        skip_ws();
        if (consume(',')) {
          skip_ws();
          continue;
        }
        if (consume('}')) break;
        return fail("expected ',' or '}' after value of ",
                    kKeyNames[static_cast<std::size_t>(k)]);
      }
      skip_ws();
      if (p_ != end_) return fail("trailing content after '}'");
    }
    if (!has(Key::kT)) return fail("missing required key \"t\"");
    if (!has(Key::kKind)) return fail("missing required key \"kind\"");
    if (!has(Key::kPid)) return fail("missing required key \"pid\"");
    return true;
  }

 private:
  /// Sets the diagnostic and returns false, for `return fail(...)`.
  [[gnu::cold]] [[gnu::noinline]] bool fail(std::string_view why) {
    out_.error.assign(why);
    return false;
  }

  /// `before`, then `name` quoted as a JSON string (a decoded name may hold
  /// control characters; the diagnostic stays one line), then `after`.
  [[gnu::cold]] [[gnu::noinline]] bool fail(std::string_view before,
                                            std::string_view name,
                                            std::string_view after = {}) {
    out_.error.assign(before);
    out_.error += '"';
    out_.error += analysis::json_escape(name);
    out_.error += '"';
    out_.error += after;
    return false;
  }

  bool has(Key k) const { return (seen_ & bit(k)) != 0; }
  static unsigned bit(Key k) { return 1u << static_cast<unsigned>(k); }

  void skip_ws() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\r')) p_++;
  }

  bool consume(char c) {
    if (p_ == end_ || *p_ != c) return false;
    p_++;
    return true;
  }

  /// A key as the exporter spells it, `"<key>":`, matched in place and
  /// consumed; returns its index. Anything else (an escape, whitespace
  /// before ':', an unknown key, a cut line) returns -1 having consumed
  /// nothing, and the caller scans the token from the same byte.
  int match_key() {
    if (end_ - p_ < 4 || *p_ != '"') return -1;
    switch (p_[1]) {
      case 't': return take_key("\"t\":", Key::kT);
      case 'k': return take_key("\"kind\":", Key::kKind);
      case 'p':
        return p_[2] == 'i' ? take_key("\"pid\":", Key::kPid)
                            : take_key("\"peer\":", Key::kPeer);
      case 'm': return take_key("\"msg\":", Key::kMsg);
      case 'b': return take_key("\"bytes\":", Key::kBytes);
      case 's': return take_key("\"seq\":", Key::kSeq);
      case 'n': return take_key("\"note\":", Key::kNote);
      default: return -1;
    }
  }

  /// `key`'s index if the line continues with `literal` (consumed), else
  /// -1. N - 1 is a constant, so the compare compiles to a few loads.
  template <std::size_t N>
  int take_key(const char (&literal)[N], Key key) {
    if (static_cast<std::size_t>(end_ - p_) < N - 1 ||
        std::memcmp(p_, literal, N - 1) != 0) {
      return -1;
    }
    p_ += N - 1;
    return static_cast<int>(key);
  }

  /// An enum value as the exporter spells it, `"<name>"` for one of
  /// `names`, matched in place and consumed; returns its index, else -1
  /// having consumed nothing. The closing quote is part of the compare, so
  /// a name never matches a longer one it is a prefix of (send/sense).
  template <std::size_t N>
  int match_name(const std::array<std::string_view, N>& names) {
    if (p_ == end_ || *p_ != '"') return -1;
    const char* const q = p_ + 1;
    const auto left = static_cast<std::size_t>(end_ - q);
    for (std::size_t k = 0; k < N; ++k) {
      const std::string_view name = names[k];
      if (left > name.size() && q[0] == name[0] && q[name.size()] == '"' &&
          std::equal(name.begin() + 1, name.end(), q + 1)) {
        p_ = q + name.size() + 1;
        return static_cast<int>(k);
      }
    }
    return -1;
  }

  /// Scans a string token. `out` views the line when the token has no
  /// escapes, else the decoded text in scratch_ (valid until the next
  /// escaped token).
  bool scan_string(std::string_view& out) {
    if (!consume('"')) return false;
    const char* const begin = p_;
    while (p_ != end_ && *p_ != '"' && *p_ != '\\') p_++;
    if (p_ == end_) return false;
    if (*p_ == '"') {
      out = std::string_view(begin, static_cast<std::size_t>(p_ - begin));
      p_++;
      return true;
    }
    scratch_.assign(begin, p_);
    if (!decode_rest()) return false;
    out = scratch_;
    return true;
  }

  /// Decodes the rest of a string token with escapes into scratch_ and
  /// consumes its closing quote. Out of line: the exporter escapes only
  /// notes, so the scanner's common path stays small.
  [[gnu::noinline]] bool decode_rest() {
    while (p_ != end_ && *p_ != '"') {
      char c = *p_++;
      if (c != '\\') {
        scratch_ += c;
        continue;
      }
      if (p_ == end_) return false;
      const char esc = *p_++;
      switch (esc) {
        case '"': scratch_ += '"'; break;
        case '\\': scratch_ += '\\'; break;
        case '/': scratch_ += '/'; break;
        case 'n': scratch_ += '\n'; break;
        case 'r': scratch_ += '\r'; break;
        case 't': scratch_ += '\t'; break;
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
          scratch_ += static_cast<char>(code);
          break;
        }
        default: return false;
      }
    }
    return consume('"');
  }

  /// Decimal digits into a uint64: exactly the strings std::from_chars
  /// base 10 accepts (at least one digit, no sign), failing on overflow.
  /// 19 digits stay below 10^19 < 2^64, so only later digits are checked.
  bool parse_uint(std::uint64_t& out) {
    constexpr std::uint64_t kMax = UINT64_MAX;
    if (p_ == end_ || !is_digit(*p_)) return false;
    const char* const unchecked_end = end_ - p_ > 19 ? p_ + 19 : end_;
    std::uint64_t v = 0;
    do {
      v = v * 10 + static_cast<std::uint64_t>(*p_++ - '0');
    } while (p_ != unchecked_end && is_digit(*p_));
    while (p_ != end_ && is_digit(*p_)) {
      const auto d = static_cast<std::uint64_t>(*p_ - '0');
      if (v > kMax / 10 || (v == kMax / 10 && d > kMax % 10)) return false;
      v = v * 10 + d;
      p_++;
    }
    out = v;
    return true;
  }

  /// The exporter's `t` shape, `<digits>.<9 digits>` with no further
  /// digit, '.', or exponent after it, straight to integer nanoseconds.
  /// Declines (consuming nothing) anything else and anything at or above
  /// kExactNanos, which the double path then parses.
  bool fixed_point_nanos(std::int64_t& nanos) {
    const char* q = p_;
    std::int64_t whole = 0;
    // 2^50 ns is 1125899.9 s: more than 7 integer digits is out of range.
    while (q != end_ && is_digit(*q) && q - p_ < 8) {
      whole = whole * 10 + (*q++ - '0');
    }
    const auto whole_digits = q - p_;
    if (whole_digits == 0 || whole_digits > 7) return false;
    if (end_ - q < 10 || *q != '.') return false;
    q++;
    std::int64_t frac = 0;
    for (const char* const stop = q + 9; q != stop; q++) {
      if (!is_digit(*q)) return false;
      frac = frac * 10 + (*q - '0');
    }
    if (q != end_ && (is_digit(*q) || *q == '.' || *q == 'e' || *q == 'E')) {
      return false;
    }
    const std::int64_t n = whole * 1'000'000'000 + frac;
    if (n >= kExactNanos) return false;
    nanos = n;
    p_ = q;
    return true;
  }

  // Numbers go through std::from_chars, never strtod/strtoull: the strto*
  // family honors LC_NUMERIC, so under a comma-decimal locale every
  // fractional timestamp would be truncated at the '.' (and the trailing
  // ".5" then rejected as garbage). from_chars is locale-independent by
  // specification and needs no NUL terminator. Out of line: exporter lines
  // take the fixed-point path.
  [[gnu::noinline]] bool parse_double(double& out) {
    const auto res = std::from_chars(p_, end_, out);
    if (res.ec != std::errc() || res.ptr == p_) return false;
    p_ = res.ptr;
    return true;
  }

  bool parse_time(SimTime& at) {
    std::int64_t nanos = 0;
    if (fixed_point_nanos(nanos)) {
      at = SimTime(nanos);
      return true;
    }
    double seconds = 0.0;
    if (!parse_double(seconds) || !std::isfinite(seconds) || seconds < 0.0) {
      return fail("\"t\" must be a non-negative number of seconds");
    }
    if (!seconds_fit_nanos(seconds)) {
      return fail("\"t\" is out of range: time must be below 2^63 ns");
    }
    at = SimTime::from_seconds(seconds);
    return true;
  }

  /// Parses the value of `key` into the record. Returns false (with the
  /// diagnostic set) on any malformation.
  bool parse_value(Key key) {
    const auto k = static_cast<std::size_t>(key);
    if (has(key)) return fail("duplicate key ", kKeyNames[k]);
    seen_ |= bit(key);
    sim::TraceRecord& r = out_.record;
    switch (key) {
      case Key::kT: return parse_time(r.at);
      case Key::kKind: {
        const auto& kinds =
            wire_names<sim::TraceKind, kTraceKinds>(sim::to_string);
        int kind = match_name(kinds);
        if (kind < 0) {
          std::string_view name;
          if (!scan_string(name)) return fail("\"kind\" must be a string");
          kind = find_name(kinds, name);
          if (kind < 0) return fail("unknown trace kind ", name);
        }
        r.kind = static_cast<sim::TraceKind>(kind);
        return true;
      }
      case Key::kPid:
      case Key::kPeer: {
        std::uint64_t v = 0;
        if (!parse_uint(v) || v >= kNoProcess) {
          return fail("", kKeyNames[k], " must be a process id");
        }
        (key == Key::kPid ? r.pid : r.peer) = static_cast<ProcessId>(v);
        return true;
      }
      case Key::kMsg: {
        const auto& kinds =
            wire_names<net::MessageKind, kMessageKinds>(net::to_string);
        r.message_kind = match_name(kinds);
        if (r.message_kind < 0) {
          std::string_view name;
          if (!scan_string(name)) return fail("\"msg\" must be a string");
          r.message_kind = find_name(kinds, name);
          if (r.message_kind < 0) return fail("unknown message kind ", name);
        }
        return true;
      }
      case Key::kBytes:
      case Key::kSeq: {
        std::uint64_t v = 0;
        if (!parse_uint(v)) {
          return fail("", kKeyNames[k], " must be a non-negative integer");
        }
        if (key == Key::kSeq) {
          r.seq = v;
        } else if (v <= UINT32_MAX) {
          r.bytes = static_cast<std::uint32_t>(v);
        } else {
          return fail("\"bytes\" is out of range: must be at most 4294967295");
        }
        return true;
      }
      case Key::kNote: {
        std::string_view note;
        if (!scan_string(note)) return fail("\"note\" must be a string");
        if (note.data() == scratch_.data()) {
          out_.decoded_note = std::move(scratch_);
        } else {
          out_.line_note = note;
        }
        return true;
      }
    }
    return false;
  }

  const char* p_;
  const char* end_;
  ParsedRecord& out_;
  unsigned seen_ = 0;    ///< bit(Key) per key already parsed
  std::string scratch_;  ///< decoded text of the last escaped token
};

}  // namespace

ParsedRecord parse_trace_line(std::string_view line) {
  ParsedRecord out;
  LineParser(line, out).parse();
  return out;
}

}  // namespace psn::serve
