#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "check/stream_checker.hpp"
#include "common/metrics.hpp"
#include "common/sim_time.hpp"
#include "core/observation.hpp"

namespace psn::serve {

struct SoakServerConfig {
  /// Process count of the producing deployment (including P_0). 0 = unknown
  /// topology: pid-range checks are skipped, everything else still runs.
  std::size_t num_processes = 0;

  /// How long an unmatched send/sense entry is retained before eviction —
  /// the Δ-window that bounds the checker's working set. Must be finite in
  /// a long-running server; set it comfortably above the deployment's
  /// end-to-end delay bound so no live edge is ever evicted.
  Duration send_retention = Duration::seconds(10);

  /// Kopetz-Steiner temporal validity policy; unbounded disables the
  /// staleness contract.
  core::ValidityHorizon validity_horizon;

  /// Emit a metrics snapshot line every this many records (0 = only at EOF).
  std::size_t metrics_every = 100000;

  /// Strict mode (default) stops at the first malformed, out-of-order, or
  /// over-long line with exit code 3; lenient mode rejects the line, keeps
  /// counting, and carries on — for tapping lossy or hand-edited feeds.
  bool lenient = false;

  /// Violation witnesses retained by the checker (counting never stops).
  std::size_t max_recorded_violations = 16;
};

/// What one ingest session did, for the caller's exit handling.
struct SoakReport {
  std::size_t lines_read = 0;
  std::size_t records_fed = 0;
  std::size_t malformed_lines = 0;
  std::size_t out_of_order_lines = 0;
  /// Lines that outgrew the reassembly buffer cap (the slow-producer
  /// policy; see SessionConfig::max_line_bytes).
  std::size_t overlong_lines = 0;
  std::size_t detect_records = 0;
  std::size_t violations = 0;
  std::size_t stale_observations = 0;
  /// High-water mark of the checker's retained send window — the number the
  /// bounded-memory acceptance test pins.
  std::size_t peak_pending_sends = 0;
  /// 0 clean EOF, 1 violations seen, 3 input rejected in strict mode.
  /// Rejection takes precedence over violations.
  int exit_code = 0;
};

struct SessionConfig {
  SoakServerConfig soak;

  /// Socket mode stamps this id into the session's `metrics` and `eof`
  /// events (`"stream":<id>`); unset (stdin mode) emits no stream field, so
  /// single-stream output is byte-identical to the pre-socket server.
  std::optional<std::uint64_t> stream_id;

  /// Cap on the per-session line-reassembly buffer (`--max-buffer`, stdin
  /// and sockets alike). A producer that sends more than this without a
  /// newline hits the slow-producer policy: strict mode rejects the session
  /// (exit 3), lenient mode drops bytes up to the next newline and counts
  /// the loss (SoakReport::overlong_lines).
  std::size_t max_line_bytes = std::size_t{1} << 16;
};

/// One verification stream: the session core shared by `psn_cli serve` on
/// stdin and every socket connection of serve::Listener (DESIGN.md §12),
/// both fed raw read() chunks through on_data(). Owns a bounded trace-only
/// StreamChecker, the line-reassembly buffer, and the JSONL event writer;
/// stdin and every socket stream emit the same event lines by construction,
/// which is what makes the multi-stream equivalence suite a byte-compare.
///
/// Writes go through the injected Writer; a false return means the
/// downstream consumer is gone (EPIPE, closed socket) and tears the session
/// down instead of killing the process — the serve layer's SIGPIPE policy.
class Session {
 public:
  using Writer = std::function<bool(std::string_view)>;

  Session(const SessionConfig& config, Writer writer);

  /// Line-oriented entry (tests, benchmarks): one complete line, no '\n'.
  /// No-op once the session has stopped.
  void feed_line(std::string_view line);

  /// Byte-oriented entry (stdin and sockets): reassembles lines out of any
  /// read chunks, honoring max_line_bytes. No-op once stopped.
  void on_data(std::string_view bytes);

  /// True once the session stopped consuming input: strict-mode rejection
  /// or downstream write failure. finish() must still be called.
  bool stopped() const { return stop_reading_ || finished_; }
  bool write_failed() const { return write_failed_; }

  /// Producer EOF (or teardown): feeds any trailing unterminated line,
  /// finishes the checker, emits the final metrics + `eof` verdict events,
  /// and freezes the report. Idempotent.
  const SoakReport& finish();

  const SoakReport& report() const { return report_; }

  /// The session's metrics as of now, built from the report, the checker
  /// and the count of violating records: serve.records, serve.detects,
  /// serve.rejects.{malformed,out_of_order,overlong}, serve.violations
  /// (records whose feed returned a violation — not SoakReport::violations,
  /// which counts every violation), serve.stale_observations (the checker's
  /// count as of the last ingested record) and the serve.pending_sends /
  /// serve.peak_pending gauges. Each `metrics` line carries this snapshot;
  /// the listener copies four of its names into the server-wide snapshot
  /// under per-stream labels (Listener::finalize).
  MetricsSnapshot metrics_snapshot() const;

 private:
  void ingest_line(std::string_view line);
  void reject(const std::string& error, std::size_t& report_counter);
  void emit_metrics();
  void emit(const std::string& line);
  /// Opens an event object: `{"event":"<name>"` plus the stream field when
  /// configured. Caller appends the rest and the closing brace.
  std::string event_head(std::string_view name) const;

  SessionConfig cfg_;
  Writer writer_;
  check::StreamChecker checker_;
  SoakReport report_;
  std::size_t violating_records_ = 0;  ///< records whose feed flagged one

  std::string buffer_;          ///< line reassembly (on_data)
  bool discarding_line_ = false;  ///< lenient overlong: drop to next '\n'
  SimTime last_ = SimTime::zero();
  bool have_last_ = false;
  /// records_fed at the last metrics emission — the boundary dedup: a
  /// stream whose length is an exact multiple of metrics_every must not get
  /// a duplicate trailing metrics line before `eof`.
  std::size_t last_metrics_records_ = SIZE_MAX;
  /// Records left until the next periodic metrics line; 0 when disabled.
  std::size_t records_to_metrics_;
  bool stop_reading_ = false;
  bool rejected_ = false;  ///< strict-mode rejection seen → exit 3
  bool write_failed_ = false;
  bool finished_ = false;
};

}  // namespace psn::serve
