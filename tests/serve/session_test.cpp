// Serve-session tests: the JSONL wire parser must round-trip the batch
// exporter's output exactly and reject malformed input with pointed
// diagnostics; a session fed raw bytes, as `psn_cli serve` feeds it stdin,
// must verify a real run's trace clean, stop on out-of-order input in strict
// mode, and keep going in lenient mode. The session core additionally pins
// the serve-layer bugfixes: locale-safe number parsing, no duplicate metrics
// line at metrics_every boundaries, write-failure teardown, and the
// strict-vs-lenient exit-code precedence.

#include "serve/session.hpp"

#include <gtest/gtest.h>

#include <clocale>
#include <sstream>
#include <string>
#include <string_view>

#include "analysis/experiments.hpp"
#include "analysis/export.hpp"
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

  const std::string line = trace_line(r);
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
  EXPECT_EQ(parsed.record.note, r.note);
  // Re-serializing the parse must reproduce the wire line exactly.
  EXPECT_EQ(trace_line(parsed.record), line);
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
  };
  for (const auto& c : cases) {
    const ParsedRecord parsed = parse_trace_line(c.line);
    EXPECT_FALSE(parsed.ok()) << c.line;
    EXPECT_NE(parsed.error.find(c.why), std::string::npos)
        << "line: " << c.line << " error: " << parsed.error;
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
  ASSERT_EQ(run.trace_evicted, 0u);
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
  const std::string line = trace_line(r);
  // The exporter must keep '.' regardless of locale...
  EXPECT_NE(line.find("\"t\":1.250000000"), std::string::npos) << line;
  // ...and the parser must read the full fractional value back.
  const ParsedRecord parsed = parse_trace_line(line);
  std::setlocale(LC_NUMERIC, "C");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.record.at, r.at);
  EXPECT_EQ(trace_line(parsed.record), line);
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
