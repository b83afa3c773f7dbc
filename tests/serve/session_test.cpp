// Serve-session tests: the JSONL wire parser must round-trip the batch
// exporter's output exactly and reject malformed input with pointed
// diagnostics; a session fed raw bytes, as `psn_cli serve` feeds it stdin,
// must verify a real run's trace clean, stop on out-of-order input in strict
// mode, and keep going in lenient mode. The session core additionally pins
// the serve-layer bugfixes: locale-safe number parsing, no duplicate metrics
// line at metrics_every boundaries, write-failure teardown, and the
// strict-vs-lenient exit-code precedence. The single-pass parser is pinned
// against the double path on exporter times up to 2^62 ns, against seeded
// byte mutations, against read chunking from 1 byte to the whole input, and
// its in-place key and name match against the scan-and-lookup fallback.

#include "serve/session.hpp"

#include <gtest/gtest.h>

#include <charconv>
#include <clocale>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/export.hpp"
#include "common/name.hpp"
#include "common/rng.hpp"
#include "net/message.hpp"
#include "serve/trace_feed.hpp"

namespace psn::serve {
namespace {

using namespace psn::time_literals;

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    count++;
  }
  return count;
}

/// Collects everything a Session writes; can be told to start failing, the
/// way a closed downstream pipe does.
struct CollectingWriter {
  std::string text;
  bool fail = false;

  Session::Writer fn() {
    return [this](std::string_view chunk) {
      if (fail) return false;
      text.append(chunk);
      return true;
    };
  }
};

/// Drives one Session over `input` the way `psn_cli serve` drives stdin —
/// raw bytes through Session::on_data — collecting its events in `out`.
SoakReport serve_input(const SoakServerConfig& config, std::string_view input,
                       CollectingWriter& out) {
  SessionConfig session_cfg;
  session_cfg.soak = config;
  Session session(session_cfg, out.fn());
  session.on_data(input);
  return session.finish();
}

/// Every field of two parsed lines, the notes compared as text.
bool same_record(const ParsedRecord& pa, const ParsedRecord& pb) {
  const sim::TraceRecord& a = pa.record;
  const sim::TraceRecord& b = pb.record;
  return a.at == b.at && a.kind == b.kind && a.pid == b.pid &&
         a.peer == b.peer && a.message_kind == b.message_kind &&
         a.bytes == b.bytes && a.seq == b.seq && pa.note() == pb.note();
}

/// One record as the exporter writes it, without the trailing newline.
std::string exported_line(const sim::TraceRecord& r) {
  std::string out;
  analysis::append_trace_line(out, r);
  out.pop_back();
  return out;
}

/// A parsed line as the exporter writes it, note included. The note is
/// spliced in as the exporter's last key rather than interned, so these
/// tests leave the note table as they found it.
std::string exported_line(const ParsedRecord& parsed) {
  std::string out = exported_line(parsed.record);
  if (!parsed.note().empty()) {
    out.pop_back();
    out += ",\"note\":\"" + analysis::json_escape(parsed.note()) + "\"}";
  }
  return out;
}

/// The exporter's lines of a small real run: every record kind the
/// occupancy scenario produces, notes and detect records included.
std::vector<std::string> run_trace_lines() {
  analysis::OccupancyConfig cfg;
  cfg.doors = 3;
  cfg.movement_rate = 10.0;
  cfg.horizon = 20_s;
  cfg.trace_capacity = std::size_t{1} << 18;
  const analysis::OccupancyRunResult run =
      analysis::run_occupancy_experiment(cfg);
  std::vector<std::string> lines;
  for (const sim::TraceRecord& r : run.trace) lines.push_back(exported_line(r));
  return lines;
}

TEST(TraceFeedTest, RoundTripsTheBatchExporterByteForByte) {
  sim::TraceRecord r;
  r.at = SimTime::zero() + Duration::millis(1250);
  r.kind = sim::TraceKind::kSend;
  r.pid = 3;
  r.peer = 0;
  r.message_kind = static_cast<int>(net::MessageKind::kStrobe);
  r.bytes = 57;
  r.seq = 91;
  r.note = "odd \"note\"\twith\nescapes";

  const std::string line = exported_line(r);
  EXPECT_EQ(line + "\n", analysis::trace_jsonl({r}));

  const ParsedRecord parsed = parse_trace_line(line);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.record.at, r.at);
  EXPECT_EQ(parsed.record.kind, r.kind);
  EXPECT_EQ(parsed.record.pid, r.pid);
  EXPECT_EQ(parsed.record.peer, r.peer);
  EXPECT_EQ(parsed.record.message_kind, r.message_kind);
  EXPECT_EQ(parsed.record.bytes, r.bytes);
  EXPECT_EQ(parsed.record.seq, r.seq);
  EXPECT_TRUE(parsed.record.note.empty());
  EXPECT_EQ(parsed.note(), r.note.str());
  // Re-serializing the parse must reproduce the wire line exactly.
  EXPECT_EQ(exported_line(parsed), line);
}

TEST(TraceFeedTest, ParsesMinimalRecordAndAnyKeyOrder) {
  const ParsedRecord minimal =
      parse_trace_line("{\"t\":0.5,\"kind\":\"sense\",\"pid\":1}");
  ASSERT_TRUE(minimal.ok()) << minimal.error;
  EXPECT_EQ(minimal.record.kind, sim::TraceKind::kSense);
  EXPECT_EQ(minimal.record.peer, kNoProcess);
  EXPECT_EQ(minimal.record.message_kind, -1);

  const ParsedRecord reordered = parse_trace_line(
      "{\"seq\":9,\"pid\":2,\"kind\":\"deliver\",\"msg\":\"strobe\","
      "\"t\":1.0}");
  ASSERT_TRUE(reordered.ok()) << reordered.error;
  EXPECT_EQ(reordered.record.seq, 9u);
  EXPECT_EQ(reordered.record.message_kind,
            static_cast<int>(net::MessageKind::kStrobe));
}

TEST(TraceFeedTest, RejectsGarbageWithSpecificDiagnostics) {
  const struct {
    const char* line;
    const char* why;
  } cases[] = {
      {"", "expected '{'"},
      {"not json at all", "expected '{'"},
      {"{\"t\":1.0,\"pid\":1}", "missing required key \"kind\""},
      {"{\"kind\":\"sense\",\"pid\":1}", "missing required key \"t\""},
      {"{\"t\":1.0,\"kind\":\"sense\"}", "missing required key \"pid\""},
      {"{\"t\":-2,\"kind\":\"sense\",\"pid\":1}", "non-negative"},
      {"{\"t\":1.0,\"kind\":\"warp\",\"pid\":1}", "unknown trace kind"},
      {"{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"zap\":3}", "unknown key"},
      {"{\"t\":1.0,\"t\":2.0,\"kind\":\"sense\",\"pid\":1}", "duplicate"},
      {"{\"t\":1.0,\"kind\":\"sense\",\"pid\":1}trailing", "trailing"},
      {"{\"t\":1.0,\"kind\":\"sense\",\"pid\":\"x\"}", "process id"},
      {"{\"t\":1.0,\"kind\":\"send\",\"pid\":1,\"msg\":\"carrier\"}",
       "unknown message kind"},
      // Clock-sync traffic is modelled analytically and never sent.
      {"{\"t\":1.0,\"kind\":\"send\",\"pid\":1,\"msg\":\"sync\"}",
       "unknown message kind \"sync\""},
      // An escaped key is the key it decodes to.
      {"{\"t\":1.0,\"\\u0074\":2.0,\"kind\":\"sense\",\"pid\":1}",
       "duplicate key \"t\""},
      // Decoded names are quoted escaped, so the diagnostic stays one line.
      {"{\"t\":1.0,\"kind\":\"se\\nse\",\"pid\":1}",
       "unknown trace kind \"se\\nse\""},
      {"{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":18446744073709551616}",
       "\"seq\" must be a non-negative integer"},
      {"{\"t\":1.0,\"kind\":\"sense\",\"pid\":4294967295}",
       "\"pid\" must be a process id"},
      {"{\"t\":1.0,\"kind\":\"send\",\"pid\":1,\"peer\":4294967295}",
       "\"peer\" must be a process id"},
      // t·1e9 at or above 2^63 used to wrap to a negative time.
      {"{\"t\":1e300,\"kind\":\"sense\",\"pid\":1}", "out of range"},
      {"{\"t\":9300000000,\"kind\":\"sense\",\"pid\":1}", "out of range"},
      {"{\"t\":9223372036.854775808,\"kind\":\"sense\",\"pid\":1}",
       "out of range"},
      // Near misses of the in-place key and name match: a prefix, an
      // extension or another case of a real spelling, and lines cut inside
      // a key or a name, get the general path's diagnostics.
      {"{\"t\":1.0,\"tt\":2,\"kind\":\"sense\",\"pid\":1}",
       "unknown key \"tt\""},
      {"{\"t\":1.0,\"kind\":\"sense\",\"pi\":1}", "unknown key \"pi\""},
      {"{\"t\":1.0,\"kind\":\"sense\",\"pidx\":1}", "unknown key \"pidx\""},
      {"{\"t\":1.0,\"kind\":\"send\",\"pid\":1,\"peers\":2}",
       "unknown key \"peers\""},
      {"{\"t\":1.0,\"kind\":\"sen\",\"pid\":1}", "unknown trace kind \"sen\""},
      {"{\"t\":1.0,\"kind\":\"sendx\",\"pid\":1}",
       "unknown trace kind \"sendx\""},
      {"{\"t\":1.0,\"kind\":\"Send\",\"pid\":1}",
       "unknown trace kind \"Send\""},
      {"{\"t\":1.0,\"kind\":\"send\",\"pid\":1,\"msg\":\"strob\"}",
       "unknown message kind \"strob\""},
      {"{\"t\":1.0,\"ki", "expected key string"},
      {"{\"t\":1.0,\"kind\":\"sen", "\"kind\" must be a string"},
  };
  for (const auto& c : cases) {
    const ParsedRecord parsed = parse_trace_line(c.line);
    EXPECT_FALSE(parsed.ok()) << c.line;
    EXPECT_NE(parsed.error.find(c.why), std::string::npos)
        << "line: " << c.line << " error: " << parsed.error;
    EXPECT_EQ(parsed.error.find('\n'), std::string::npos) << parsed.error;
  }

  // Accepted spellings the exporter never writes: `t` off its fixed-point
  // shape, and escapes, which decode before keys and names are matched.
  const struct {
    const char* line;
    std::int64_t nanos;
  } accepted[] = {
      {"{\"\\u0074\":1.5,\"kind\":\"s\\u0065nse\",\"pid\":1}", 1'500'000'000},
      {"{\"t\":1e3,\"kind\":\"sense\",\"pid\":1}", 1'000'000'000'000},
      {"{\"t\":1.000000000e3,\"kind\":\"sense\",\"pid\":1}",
       1'000'000'000'000},
      {"{\"t\":0.1234567891,\"kind\":\"sense\",\"pid\":1}", 123'456'789},
      {"{\"t\":00.000000001,\"kind\":\"sense\",\"pid\":1}", 1},
      {"{\"t\":-0,\"kind\":\"sense\",\"pid\":1}", 0},
      {"{\"t\":9000000000.000000000,\"kind\":\"sense\",\"pid\":1}",
       9'000'000'000'000'000'000},
  };
  for (const auto& c : accepted) {
    const ParsedRecord parsed = parse_trace_line(c.line);
    ASSERT_TRUE(parsed.ok()) << c.line << ": " << parsed.error;
    EXPECT_EQ(parsed.record.at.count_nanos(), c.nanos) << c.line;
    EXPECT_EQ(parsed.record.kind, sim::TraceKind::kSense) << c.line;
  }
  const ParsedRecord big = parse_trace_line(
      "{\"t\":1.0,\"kind\":\"send\",\"pid\":4294967294,"
      "\"seq\":18446744073709551615}");
  ASSERT_TRUE(big.ok()) << big.error;
  EXPECT_EQ(big.record.pid, 4294967294u);
  EXPECT_EQ(big.record.seq, 18446744073709551615u);
}

// The record keeps `bytes` in 32 bits: the largest such value round-trips
// through the exporter, and one more is rejected, never truncated.
TEST(TraceFeedTest, BytesAboveThirtyTwoBitsAreRejected) {
  sim::TraceRecord r;
  r.at = SimTime::zero() + Duration::millis(1250);
  r.kind = sim::TraceKind::kSend;
  r.pid = 3;
  r.peer = 0;
  r.message_kind = static_cast<int>(net::MessageKind::kComputation);
  r.bytes = 4294967295u;
  r.seq = 91;
  const std::string max_line = exported_line(r);
  ASSERT_NE(max_line.find("\"bytes\":4294967295,"), std::string::npos);
  std::string over_line = max_line;
  over_line.replace(over_line.find("4294967295"), 10, "4294967296");

  const ParsedRecord max = parse_trace_line(max_line);
  ASSERT_TRUE(max.ok()) << max.error;
  EXPECT_EQ(max.record.bytes, 4294967295u);
  EXPECT_EQ(exported_line(max.record), max_line);

  const std::string diagnostic =
      "\"bytes\" is out of range: must be at most 4294967295";
  EXPECT_EQ(parse_trace_line(over_line).error, diagnostic);

  // Through a session: the first line is fed, the second stops the stream.
  CollectingWriter out;
  const SoakReport report =
      serve_input({}, max_line + "\n" + over_line + "\n", out);
  EXPECT_EQ(report.records_fed, 1u);
  EXPECT_EQ(report.malformed_lines, 1u);
  EXPECT_EQ(report.exit_code, 3);
  EXPECT_EQ(count_occurrences(out.text, analysis::json_escape(diagnostic)), 1u)
      << out.text;
}

// The fixed-point `t` path must give exactly what the double path gives:
// llround(from_chars(token) * 1e9), for times in the exporter's format.
// N is drawn log-uniformly so every magnitude up to 2^62 ns is covered,
// including the band just above the fast path's 2^50 ns bound.
TEST(TraceFeedTest, FixedPointTimeMatchesTheDoublePath) {
  constexpr std::int64_t k50 = std::int64_t{1} << 50;
  std::vector<std::int64_t> nanos = {0,
                                     1,
                                     999'999'999,
                                     k50 - 1,
                                     k50,
                                     k50 + 1,
                                     1'000'000'000'000'000,
                                     (std::int64_t{1} << 62) - 1};
  Rng rng(20111);
  for (int i = 0; i < 200'000; ++i) {
    const auto bits = static_cast<unsigned>(rng.uniform_int(1, 62));
    nanos.push_back(static_cast<std::int64_t>(rng() >> (64 - bits)));
  }
  for (const std::int64_t n : nanos) {
    const std::string token = analysis::json_fixed(SimTime(n).to_seconds(), 9);
    double seconds = 0.0;
    const auto res =
        std::from_chars(token.data(), token.data() + token.size(), seconds);
    ASSERT_EQ(res.ec, std::errc()) << token;
    const auto expected =
        static_cast<std::int64_t>(std::llround(seconds * 1e9));
    const ParsedRecord parsed = parse_trace_line(
        "{\"t\":" + token + ",\"kind\":\"sense\",\"pid\":1}");
    ASSERT_TRUE(parsed.ok()) << token << ": " << parsed.error;
    ASSERT_EQ(parsed.record.at.count_nanos(), expected) << token;
    if (n < k50) {
      ASSERT_EQ(expected, n) << token;
    }
  }
}

// Seeded byte mutations of real exporter lines: each mutant is either
// rejected with a one-line diagnostic, or it is a record the exporter
// writes back to a line that parses to the same record.
TEST(TraceFeedTest, MutatedLinesRejectCleanlyOrRoundTrip) {
  const std::vector<std::string> lines = run_trace_lines();
  ASSERT_FALSE(lines.empty());
  const std::string_view special = "{}\":,.\\0123456789eE-+ ntu/";
  Rng rng(7);
  std::size_t accepted = 0;
  for (int i = 0; i < 30'000; ++i) {
    std::string line = lines[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(lines.size()) - 1))];
    for (std::int64_t m = rng.uniform_int(1, 3); m > 0; --m) {
      const char byte =
          rng.bernoulli(0.7)
              ? special[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(special.size()) - 1))]
              : static_cast<char>(rng.uniform_int(0, 255));
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(line.size()) - 1));
      switch (rng.uniform_int(0, 2)) {
        case 0: line.erase(pos, 1); break;
        case 1: line.insert(pos, 1, byte); break;
        default: line[pos] = byte; break;
      }
    }
    const ParsedRecord parsed = parse_trace_line(line);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.error.find('\n'), std::string::npos)
          << "line: " << line << " error: " << parsed.error;
      continue;
    }
    accepted++;
    const std::string rewritten = exported_line(parsed);
    const ParsedRecord again = parse_trace_line(rewritten);
    ASSERT_TRUE(again.ok()) << "line: " << line << " error: " << again.error;
    EXPECT_TRUE(same_record(again, parsed))
        << "line: " << line << " rewritten: " << rewritten;
  }
  // The round exercises both outcomes.
  EXPECT_GT(accepted, 1000u);
  EXPECT_LT(accepted, 29'000u);
}

/// The top-level `"key":value` members of a flat exporter line, as written.
std::vector<std::pair<std::string, std::string>> members(
    std::string_view line) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t i = 1;  // past '{'
  const auto token_end = [&line](std::size_t at) {
    bool in_string = false;
    for (; at < line.size(); ++at) {
      const char c = line[at];
      if (in_string && c == '\\') {
        ++at;
      } else if (c == '"') {
        in_string = !in_string;
      } else if (!in_string && (c == ':' || c == ',' || c == '}')) {
        break;
      }
    }
    return at;
  };
  while (i < line.size() && line[i] != '}') {
    const std::size_t colon = token_end(i);
    const std::size_t stop = token_end(colon + 1);
    out.emplace_back(std::string(line.substr(i, colon - i)),
                     std::string(line.substr(colon + 1, stop - colon - 1)));
    i = stop + 1;
  }
  return out;
}

/// Replaces one byte between the quotes of a string token by its \u00XX
/// escape, the hex digits in a random case.
void escape_one_byte(std::string& token, Rng& rng) {
  const auto pos = static_cast<std::size_t>(
      rng.uniform_int(1, static_cast<std::int64_t>(token.size()) - 2));
  const char* const digits =
      rng.bernoulli(0.5) ? "0123456789abcdef" : "0123456789ABCDEF";
  const auto byte = static_cast<unsigned char>(token[pos]);
  const std::string escape = std::string("\\u00") + digits[byte >> 4] +
                             digits[byte & 0xf];
  token.replace(pos, 1, escape);
}

// Spellings the exporter never writes must parse exactly as its own line:
// shuffled keys, blanks around every ':' and ',', one byte of one key and
// one byte of the kind or msg name \u-escaped. Whitespace before ':' and
// the escapes send each respelled token down the general scan + lookup
// path, so this pins it against the in-place match the exporter line takes.
TEST(TraceFeedTest, RespelledLinesParseAsTheExporterLine) {
  const std::vector<std::string> lines = run_trace_lines();
  ASSERT_FALSE(lines.empty());
  Rng rng(30);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto blanks = [&rng] {
    std::string out;
    for (std::int64_t n = rng.uniform_int(1, 3); n > 0; --n) {
      out += rng.bernoulli(0.5) ? ' ' : '\t';
    }
    return out;
  };
  for (const std::string& line : lines) {
    const ParsedRecord canonical = parse_trace_line(line);
    ASSERT_TRUE(canonical.ok()) << line << ": " << canonical.error;

    auto fields = members(line);
    ASSERT_GE(fields.size(), 3u) << line;
    // One byte of the kind or (when present) the msg name, then one byte
    // of one key: the names are found while the keys still read plainly.
    std::vector<std::string*> names;
    for (auto& [key, value] : fields) {
      if (key == "\"kind\"" || key == "\"msg\"") names.push_back(&value);
    }
    escape_one_byte(*names[pick(names.size())], rng);
    escape_one_byte(fields[pick(fields.size())].first, rng);
    for (std::size_t k = fields.size() - 1; k > 0; --k) {
      std::swap(fields[k], fields[pick(k + 1)]);
    }

    std::string respelled = "{";
    for (std::size_t k = 0; k < fields.size(); ++k) {
      if (k > 0) respelled += blanks() + "," + blanks();
      respelled += fields[k].first + blanks() + ":" + blanks() +
                   fields[k].second;
    }
    respelled += "}";

    const ParsedRecord parsed = parse_trace_line(respelled);
    ASSERT_TRUE(parsed.ok()) << respelled << ": " << parsed.error;
    EXPECT_TRUE(same_record(parsed, canonical))
        << "line: " << line << " respelled: " << respelled;
  }
}

TEST(SoakServerTest, VerifiesARealRunTraceClean) {
  analysis::OccupancyConfig cfg;
  cfg.doors = 3;
  cfg.movement_rate = 10.0;
  cfg.horizon = 20_s;
  cfg.trace_capacity = std::size_t{1} << 18;
  const analysis::OccupancyRunResult run =
      analysis::run_occupancy_experiment(cfg);
  ASSERT_FALSE(run.trace.empty());

  CollectingWriter out;
  SoakServerConfig server_cfg;
  server_cfg.num_processes = cfg.doors + 1;
  server_cfg.metrics_every = 1000;
  const SoakReport report =
      serve_input(server_cfg, analysis::trace_jsonl(run.trace), out);

  EXPECT_EQ(report.exit_code, 0);
  EXPECT_EQ(report.records_fed, run.trace.size());
  EXPECT_EQ(report.violations, 0u);
  EXPECT_EQ(report.malformed_lines, 0u);
  EXPECT_EQ(report.out_of_order_lines, 0u);
  EXPECT_GT(report.detect_records, 0u);
  EXPECT_GT(report.peak_pending_sends, 0u);
  // Output carries periodic metrics snapshots and a final verdict line.
  const std::string text = out.text;
  EXPECT_NE(text.find("\"event\":\"metrics\""), std::string::npos);
  EXPECT_NE(text.find("\"event\":\"detect\""), std::string::npos);
  EXPECT_NE(text.find("\"event\":\"eof\",\"verdict\":\"clean\""),
            std::string::npos);
}

// Wire notes are never interned, so a stream of distinct notes cannot grow
// the process's note table, and each detect event echoes its line's note.
TEST(SoakServerTest, EchoesDistinctWireNotesWithoutInterningThem) {
  constexpr std::size_t kLines = 10'000;
  std::vector<std::string> wire_notes;
  std::string input;
  for (std::size_t i = 0; i < kLines; ++i) {
    std::string note = "wire-" + std::to_string(i);
    note += i % 2 == 0 ? ":false" : ":true";
    if (i % 100 == 0) note += "\t\"escaped\"\\";
    wire_notes.push_back(analysis::json_escape(note));
    input += "{\"t\":1.000000000,\"kind\":\"detect\",\"pid\":0,\"note\":\"";
    input += wire_notes.back() + "\"}\n";
  }

  const std::size_t table_size = Name::table_size();
  CollectingWriter out;
  const SoakReport report = serve_input({}, input, out);
  EXPECT_EQ(Name::table_size(), table_size);
  EXPECT_EQ(report.exit_code, 0);
  EXPECT_EQ(report.detect_records, kLines);

  // The detector field of every detect event, in order, as written.
  const std::string key = "\"detector\":\"";
  std::vector<std::string> echoed;
  std::istringstream lines(out.text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("{\"event\":\"detect\"", 0) != 0) continue;
    const std::size_t begin = line.find(key);
    ASSERT_NE(begin, std::string::npos) << line;
    ASSERT_EQ(line.substr(line.size() - 2), "\"}") << line;
    echoed.push_back(line.substr(begin + key.size(),
                                 line.size() - 2 - begin - key.size()));
  }
  EXPECT_EQ(echoed, wire_notes);
}

TEST(SoakServerTest, StrictModeStopsAtOutOfOrderInput) {
  CollectingWriter out;
  const SoakReport report = serve_input(
      SoakServerConfig{},
      "{\"t\":2.0,\"kind\":\"sense\",\"pid\":1,\"seq\":1}\n"
      "{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":2}\n"
      "{\"t\":3.0,\"kind\":\"sense\",\"pid\":1,\"seq\":3}\n",
      out);
  EXPECT_EQ(report.exit_code, 3);
  EXPECT_EQ(report.out_of_order_lines, 1u);
  EXPECT_EQ(report.records_fed, 1u);  // stopped before the third line
  EXPECT_NE(out.text.find("\"event\":\"reject\""), std::string::npos);
  EXPECT_NE(out.text.find("rejected-input"), std::string::npos);
}

TEST(SoakServerTest, StrictModeStopsAtGarbage) {
  CollectingWriter out;
  const SoakReport report = serve_input(
      SoakServerConfig{},
      "{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":1}\n"
      "garbage line\n"
      "{\"t\":2.0,\"kind\":\"sense\",\"pid\":1,\"seq\":2}\n",
      out);
  EXPECT_EQ(report.exit_code, 3);
  EXPECT_EQ(report.malformed_lines, 1u);
  EXPECT_EQ(report.records_fed, 1u);
}

TEST(SoakServerTest, LenientModeSkipsBadLinesAndFinishes) {
  CollectingWriter out;
  SoakServerConfig cfg;
  cfg.lenient = true;
  const SoakReport report = serve_input(
      cfg,
      "{\"t\":2.0,\"kind\":\"sense\",\"pid\":1,\"seq\":1}\n"
      "garbage line\n"
      "{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":2}\n"
      "{\"t\":3.0,\"kind\":\"sense\",\"pid\":1,\"seq\":3}\n",
      out);
  EXPECT_EQ(report.exit_code, 0);
  EXPECT_EQ(report.malformed_lines, 1u);
  EXPECT_EQ(report.out_of_order_lines, 1u);
  EXPECT_EQ(report.records_fed, 2u);
}

// Regression for the locale bug: strtod/strtoull honor LC_NUMERIC, so a
// comma-decimal locale silently truncated every fractional timestamp at the
// '.'. The parser and the exporter now use from_chars/to_chars, which are
// locale-independent by specification; this round-trips a trace with
// LC_NUMERIC forced to a comma-decimal locale when the host has one.
TEST(TraceFeedTest, RoundTripsUnderACommaDecimalLocale) {
  const char* comma_locales[] = {"de_DE.UTF-8", "de_DE.utf8", "de_DE",
                                 "fr_FR.UTF-8", "fr_FR.utf8", "fr_FR"};
  const char* active = nullptr;
  for (const char* name : comma_locales) {
    if (std::setlocale(LC_NUMERIC, name) != nullptr) {
      active = name;
      break;
    }
  }
  if (active == nullptr) {
    GTEST_SKIP() << "no comma-decimal locale installed on this host";
  }

  sim::TraceRecord r;
  r.at = SimTime::zero() + Duration::millis(1250);
  r.kind = sim::TraceKind::kSense;
  r.pid = 2;
  r.seq = 7;
  const std::string line = exported_line(r);
  // The exporter must keep '.' regardless of locale...
  EXPECT_NE(line.find("\"t\":1.250000000"), std::string::npos) << line;
  // ...and the parser must read the full fractional value back.
  const ParsedRecord parsed = parse_trace_line(line);
  std::setlocale(LC_NUMERIC, "C");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.record.at, r.at);
  EXPECT_EQ(exported_line(parsed.record), line);
}

// Regression: a stream whose length is an exact multiple of metrics_every
// used to get the boundary snapshot twice — once inside the loop and once
// unconditionally before `eof`.
TEST(SoakServerTest, NoDuplicateMetricsLineAtExactMetricsEveryBoundary) {
  CollectingWriter out;
  SoakServerConfig cfg;
  cfg.metrics_every = 2;
  cfg.send_retention = Duration::seconds(100);
  const SoakReport report = serve_input(
      cfg,
      "{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":1}\n"
      "{\"t\":2.0,\"kind\":\"sense\",\"pid\":1,\"seq\":2}\n"
      "{\"t\":3.0,\"kind\":\"sense\",\"pid\":1,\"seq\":3}\n"
      "{\"t\":4.0,\"kind\":\"sense\",\"pid\":1,\"seq\":4}\n",
      out);
  EXPECT_EQ(report.records_fed, 4u);
  // Snapshots at records 2 and 4; the one at 4 doubles as the EOF snapshot.
  EXPECT_EQ(count_occurrences(out.text, "\"event\":\"metrics\""), 2u);
}

TEST(SoakServerTest, MetricsStillEmittedAtEofOffBoundaryAndWhenDisabled) {
  const std::string three_records =
      "{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":1}\n"
      "{\"t\":2.0,\"kind\":\"sense\",\"pid\":1,\"seq\":2}\n"
      "{\"t\":3.0,\"kind\":\"sense\",\"pid\":1,\"seq\":3}\n";
  {
    CollectingWriter out;
    SoakServerConfig cfg;
    cfg.metrics_every = 2;
    serve_input(cfg, three_records, out);
    // One at record 2, one final snapshot at EOF (record 3).
    EXPECT_EQ(count_occurrences(out.text, "\"event\":\"metrics\""), 2u);
  }
  {
    CollectingWriter out;
    SoakServerConfig cfg;
    cfg.metrics_every = 0;  // EOF-only mode keeps its single snapshot
    serve_input(cfg, three_records, out);
    EXPECT_EQ(count_occurrences(out.text, "\"event\":\"metrics\""), 1u);
  }
}

// The serve layer's SIGPIPE policy: when the downstream consumer goes away,
// the write failure tears down the session — the loop stops consuming input
// and the process-level exit code still reflects what was seen.
TEST(SessionTest, DownstreamWriteFailureTearsDownTheSession) {
  CollectingWriter writer;
  SessionConfig cfg;
  cfg.soak.metrics_every = 1;  // every record forces a write
  Session session(cfg, writer.fn());
  session.feed_line("{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":1}");
  EXPECT_FALSE(session.stopped());
  writer.fail = true;  // the reader closed its end
  session.feed_line("{\"t\":2.0,\"kind\":\"sense\",\"pid\":1,\"seq\":2}");
  EXPECT_TRUE(session.stopped());
  EXPECT_TRUE(session.write_failed());
  const SoakReport& report = session.finish();
  EXPECT_EQ(report.records_fed, 2u);
  EXPECT_EQ(report.exit_code, 0);  // write loss is not an input rejection
}

TEST(SoakServerTest, SurvivesAnOutputStreamThatStopsAccepting) {
  // A full/closed sink, like stdout once the consumer is gone and SIGPIPE
  // is ignored. The session must finish (not crash, not loop) with the
  // report.
  CollectingWriter out;
  out.fail = true;  // every write fails
  SoakServerConfig cfg;
  cfg.metrics_every = 1;
  const SoakReport report = serve_input(
      cfg,
      "{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":1}\n"
      "{\"t\":2.0,\"kind\":\"sense\",\"pid\":1,\"seq\":2}\n",
      out);
  EXPECT_LE(report.records_fed, 2u);
  EXPECT_EQ(report.exit_code, 0);
}

// Exit-code precedence, strict mode: input rejection (3) beats violations
// seen earlier in the stream (1).
TEST(SessionTest, StrictRejectionOutranksViolationsInExitCode) {
  CollectingWriter writer;
  SessionConfig cfg;
  cfg.soak.validity_horizon.lifetime = Duration::seconds(1);
  Session session(cfg, writer.fn());
  // A stale delivery: violation (would exit 1 on its own)...
  session.feed_line("{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":1}");
  session.feed_line(
      "{\"t\":5.0,\"kind\":\"deliver\",\"pid\":0,\"msg\":\"strobe\","
      "\"seq\":1}");
  // ...then garbage: strict rejection wins.
  session.feed_line("not json");
  const SoakReport& report = session.finish();
  EXPECT_GT(report.violations, 0u);
  EXPECT_EQ(report.malformed_lines, 1u);
  EXPECT_EQ(report.exit_code, 3);
  EXPECT_NE(writer.text.find("\"verdict\":\"rejected-input\""),
            std::string::npos);
}

// Exit-code precedence, lenient mode: rejects are counted but only
// violations drive the exit code.
TEST(SessionTest, LenientRejectsDoNotMaskViolationExitCode) {
  CollectingWriter writer;
  SessionConfig cfg;
  cfg.soak.lenient = true;
  cfg.soak.validity_horizon.lifetime = Duration::seconds(1);
  Session session(cfg, writer.fn());
  session.feed_line("garbage");
  session.feed_line("{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":1}");
  session.feed_line(
      "{\"t\":5.0,\"kind\":\"deliver\",\"pid\":0,\"msg\":\"strobe\","
      "\"seq\":1}");
  session.feed_line("more garbage");
  const SoakReport& report = session.finish();
  EXPECT_EQ(report.malformed_lines, 2u);
  EXPECT_GT(report.violations, 0u);
  EXPECT_EQ(report.exit_code, 1);
}

TEST(SessionTest, LenientCleanStreamWithRejectsExitsZero) {
  CollectingWriter writer;
  SessionConfig cfg;
  cfg.soak.lenient = true;
  Session session(cfg, writer.fn());
  session.feed_line("garbage");
  session.feed_line("{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":1}");
  const SoakReport& report = session.finish();
  EXPECT_EQ(report.exit_code, 0);
}

// Socket-mode line reassembly: bytes arrive in arbitrary chunks; the
// session must produce exactly what per-line feeding produces.
TEST(SessionTest, ChunkedBytesMatchLineFeeding) {
  const std::string wire =
      "{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":1}\n"
      "{\"t\":2.0,\"kind\":\"deliver\",\"pid\":0,\"msg\":\"strobe\","
      "\"seq\":1}\n"
      "{\"t\":3.0,\"kind\":\"sense\",\"pid\":1,\"seq\":2}";  // unterminated

  CollectingWriter by_lines;
  Session line_session(SessionConfig{}, by_lines.fn());
  std::istringstream in(wire);
  std::string line;
  while (std::getline(in, line)) line_session.feed_line(line);
  const SoakReport line_report = line_session.finish();

  CollectingWriter by_chunks;
  Session chunk_session(SessionConfig{}, by_chunks.fn());
  for (std::size_t i = 0; i < wire.size(); i += 7) {
    chunk_session.on_data(std::string_view(wire).substr(i, 7));
  }
  const SoakReport chunk_report = chunk_session.finish();

  EXPECT_EQ(by_chunks.text, by_lines.text);
  EXPECT_EQ(chunk_report.records_fed, line_report.records_fed);
  EXPECT_EQ(chunk_report.lines_read, line_report.lines_read);
}

/// Feeds `wire` to a fresh session in `chunk`-byte on_data calls and
/// returns the events it wrote.
std::string serve_chunked(const SessionConfig& cfg, std::string_view wire,
                          std::size_t chunk, SoakReport& report) {
  CollectingWriter out;
  Session session(cfg, out.fn());
  for (std::size_t i = 0; i < wire.size(); i += chunk) {
    session.on_data(wire.substr(i, chunk));
  }
  report = session.finish();
  return out.text;
}

// The same on a real run trace, at chunk sizes from one byte to the whole
// input: lines arrive whole inside a chunk (parsed in place) or split
// across chunks (reassembled), and the output must not tell them apart.
// Lines of exactly max_line_bytes and one byte more straddle 4096-byte
// chunk boundaries: the first is a record, the second is overlong.
TEST(SessionTest, ChunkedRealTraceMatchesLineFeeding) {
  const std::vector<std::string> lines = run_trace_lines();
  SessionConfig cfg;
  cfg.soak.num_processes = 4;
  cfg.soak.metrics_every = 1000;
  cfg.max_line_bytes = 256;

  std::string wire;
  CollectingWriter by_lines;
  Session line_session(cfg, by_lines.fn());
  for (const std::string& line : lines) {
    ASSERT_LT(line.size(), cfg.max_line_bytes);
    wire += line;
    wire += '\n';
    line_session.feed_line(line);
  }
  const SoakReport line_report = line_session.finish();
  ASSERT_EQ(line_report.exit_code, 0);
  ASSERT_GT(line_report.detect_records, 0u);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{4096}, wire.size()}) {
    SoakReport report;
    EXPECT_EQ(serve_chunked(cfg, wire, chunk, report), by_lines.text)
        << "chunk " << chunk;
    EXPECT_EQ(report.lines_read, line_report.lines_read);
    EXPECT_EQ(report.records_fed, line_report.records_fed);
  }

  // Pad two lines with trailing blanks, which the parser skips, to
  // max_line_bytes and max_line_bytes + 1, each starting less than 64
  // bytes before a multiple of 4096.
  std::string edges;
  std::size_t boundary = 4096;
  std::size_t padded = 0;
  std::size_t lines_before_overlong = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    while (edges.size() >= boundary) boundary += 4096;
    std::string line = lines[i];
    if (padded < 2 && edges.size() + 64 > boundary) {
      line.resize(cfg.max_line_bytes + padded, ' ');
      if (padded == 1) lines_before_overlong = i;
      padded++;
    }
    edges += line;
    edges += '\n';
  }
  ASSERT_EQ(padded, 2u);

  for (const bool lenient : {false, true}) {
    SessionConfig mode = cfg;
    mode.soak.lenient = lenient;
    SoakReport whole;
    const std::string expected =
        serve_chunked(mode, edges, edges.size(), whole);
    EXPECT_EQ(whole.overlong_lines, 1u);
    EXPECT_EQ(whole.malformed_lines, 0u);
    EXPECT_EQ(whole.exit_code, lenient ? 0 : 3);
    EXPECT_EQ(whole.records_fed,
              lenient ? lines.size() - 1 : lines_before_overlong);
    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
      SoakReport report;
      EXPECT_EQ(serve_chunked(mode, edges, chunk, report), expected)
          << "chunk " << chunk << (lenient ? " lenient" : " strict");
      EXPECT_EQ(report.lines_read, whole.lines_read);
      EXPECT_EQ(report.records_fed, whole.records_fed);
      EXPECT_EQ(report.overlong_lines, 1u);
    }
  }
}

// The slow-producer policy: a line that outgrows the reassembly cap is
// rejected — strict mode stops the stream (exit 3), lenient mode drops to
// the next newline and keeps going.
TEST(SessionTest, OverlongLineStrictlyRejects) {
  CollectingWriter writer;
  SessionConfig cfg;
  cfg.max_line_bytes = 32;
  Session session(cfg, writer.fn());
  session.on_data(std::string(100, 'x'));  // no newline in sight
  EXPECT_TRUE(session.stopped());
  const SoakReport& report = session.finish();
  EXPECT_EQ(report.overlong_lines, 1u);
  EXPECT_EQ(report.exit_code, 3);
  EXPECT_NE(writer.text.find("exceeds --max-buffer"), std::string::npos);
}

TEST(SessionTest, OverlongLineLenientDropsAndCounts) {
  CollectingWriter writer;
  SessionConfig cfg;
  cfg.max_line_bytes = 64;
  cfg.soak.lenient = true;
  Session session(cfg, writer.fn());
  session.on_data(std::string(100, 'x'));
  session.on_data("xxx\n");  // the tail of the dropped line
  session.on_data("{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":1}\n");
  const SoakReport& report = session.finish();
  EXPECT_EQ(report.overlong_lines, 1u);
  EXPECT_EQ(report.records_fed, 1u);
  EXPECT_EQ(report.exit_code, 0);
}

// Socket mode stamps the stream id into `metrics` and `eof` events only;
// per-record events stay byte-identical to stdin mode.
TEST(SessionTest, StreamIdAppearsOnMetricsAndEofEventsOnly) {
  CollectingWriter writer;
  SessionConfig cfg;
  cfg.stream_id = 42;
  Session session(cfg, writer.fn());
  session.feed_line("{\"t\":1.0,\"kind\":\"detect\",\"pid\":0}");
  session.finish();
  EXPECT_NE(writer.text.find("\"event\":\"metrics\",\"stream\":42"),
            std::string::npos);
  EXPECT_NE(writer.text.find("\"event\":\"eof\",\"stream\":42"),
            std::string::npos);
  EXPECT_NE(writer.text.find("{\"event\":\"detect\",\"t\":"),
            std::string::npos);
  EXPECT_EQ(writer.text.find("\"event\":\"detect\",\"stream\""),
            std::string::npos);
}

// FNV-1a 64-bit, as the golden determinism suite pins run artifacts.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

// Fixture for the whole output of a lenient socket-style session (stream id
// set, a metrics line every 3 records) whose stream mixes malformed,
// out-of-order and over-long lines, detect records, a record with two
// violations (a receive inside its crash window with no matching send) and
// stale deliveries under a validity horizon. To regenerate after an
// intentional change to the wire output, run with PSN_GOLDEN_PRINT=1:
//   PSN_GOLDEN_PRINT=1 ./test_serve --gtest_filter='*PinsTheWholeOutput*'
constexpr const char* kGoldenLenientSessionOutput = "32ca22932040a2e5";

TEST(SessionTest, LenientMixedStreamPinsTheWholeOutput) {
  CollectingWriter writer;
  SessionConfig cfg;
  cfg.stream_id = 7;
  cfg.max_line_bytes = 160;
  cfg.soak.num_processes = 4;
  cfg.soak.lenient = true;
  cfg.soak.metrics_every = 3;
  cfg.soak.validity_horizon.lifetime = Duration::seconds(1);
  Session session(cfg, writer.fn());
  session.on_data(
      "{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":1}\n"
      "{\"t\":1.0,\"kind\":\"send\",\"pid\":1,\"peer\":0,\"msg\":\"strobe\","
      "\"bytes\":36,\"seq\":1}\n"
      "not json\n"
      "{\"t\":1.2,\"kind\":\"deliver\",\"pid\":0,\"peer\":1,\"msg\":\"strobe\","
      "\"bytes\":36,\"seq\":1}\n"
      "{\"t\":1.1,\"kind\":\"detect\",\"pid\":0,"
      "\"note\":\"strobe-scalar:true\"}\n"
      "{\"t\":0.5,\"kind\":\"sense\",\"pid\":2,\"seq\":2}\n"
      "{\"t\":2.0,\"kind\":\"sense\",\"pid\":2,\"seq\":3}\n"
      "{\"t\":2.0,\"kind\":\"send\",\"pid\":2,\"peer\":0,\"msg\":\"strobe\","
      "\"bytes\":36,\"seq\":3}\n");
  session.on_data(std::string(200, 'x'));
  session.on_data(
      "xx\n"
      "{\"t\":2.2,\"kind\":\"crash\",\"pid\":1}\n"
      "{\"t\":2.5,\"kind\":\"receive\",\"pid\":1,\"peer\":3,"
      "\"msg\":\"computation\",\"bytes\":40,\"seq\":9}\n"
      "{\"t\":3.0,\"kind\":\"restart\",\"pid\":1}\n"
      "{\"t\":5.0,\"kind\":\"deliver\",\"pid\":0,\"peer\":2,\"msg\":\"strobe\","
      "\"bytes\":36,\"seq\":3}\n"
      "{\"t\":5.5,\"kind\":\"sense\",\"pid\":3,\"seq\":4}\n"
      "{\"t\":5.5,\"kind\":\"send\",\"pid\":3,\"peer\":0,\"msg\":\"strobe\","
      "\"bytes\":36,\"seq\":4}\n"
      "{\"t\":4.0,\"kind\":\"sense\",\"pid\":1,\"seq\":5}\n"
      "{\"t\":5.2,\"kind\":\"detect\",\"pid\":0,"
      "\"note\":\"delivery-order:false\"}\n"
      "{\"t\":9.0,\"kind\":\"deliver\",\"pid\":0,\"peer\":3,\"msg\":\"strobe\","
      "\"bytes\":36,\"seq\":4}");
  const SoakReport& report = session.finish();
  EXPECT_GT(report.malformed_lines, 0u);
  EXPECT_GT(report.out_of_order_lines, 0u);
  EXPECT_EQ(report.overlong_lines, 1u);
  EXPECT_EQ(report.detect_records, 2u);
  EXPECT_GT(report.stale_observations, 0u);
  EXPECT_EQ(report.violations, 4u);
  EXPECT_EQ(report.exit_code, 1);
  // serve.violations counts records that produced a violation; the crash-
  // window receive produced two.
  const MetricsSnapshot snapshot = session.metrics_snapshot();
  EXPECT_EQ(snapshot.counters.at("serve.violations"), 3u);
  EXPECT_EQ(snapshot.counters.at("serve.stale_observations"), 2u);
  EXPECT_GE(count_occurrences(writer.text, "\"event\":\"metrics\""), 3u);

  const std::string hash = hex64(fnv1a(writer.text));
  if (std::getenv("PSN_GOLDEN_PRINT") != nullptr) {
    std::printf("%s", writer.text.c_str());
    std::printf("    kGoldenLenientSessionOutput = \"%s\"\n", hash.c_str());
  }
  EXPECT_EQ(hash, kGoldenLenientSessionOutput);
}

TEST(SoakServerTest, FlagsStaleDeliveriesUnderAValidityHorizon) {
  CollectingWriter out;
  SoakServerConfig cfg;
  cfg.validity_horizon.lifetime = Duration::seconds(1);
  const SoakReport report = serve_input(
      cfg,
      "{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":1}\n"
      "{\"t\":5.0,\"kind\":\"deliver\",\"pid\":0,\"msg\":\"strobe\","
      "\"seq\":1}\n",
      out);
  EXPECT_EQ(report.exit_code, 1);
  EXPECT_EQ(report.stale_observations, 1u);
  EXPECT_NE(out.text.find("stale-observation"), std::string::npos);
}

}  // namespace
}  // namespace psn::serve
