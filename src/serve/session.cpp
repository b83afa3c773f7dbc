#include "serve/session.hpp"

#include <algorithm>
#include <utility>

#include "analysis/export.hpp"
#include "serve/trace_feed.hpp"

namespace psn::serve {

namespace {

check::StreamCheckerConfig checker_config(const SoakServerConfig& cfg) {
  check::StreamCheckerConfig out;
  out.num_processes = cfg.num_processes;
  out.send_retention = cfg.send_retention;
  out.options.validity_horizon = cfg.validity_horizon;
  out.options.max_recorded_violations = cfg.max_recorded_violations;
  // executions stays empty: the wire carries trace records, never
  // per-process clock claims, so the checker runs in trace-only mode.
  return out;
}

std::string time_field(SimTime t) {
  // json_fixed, not snprintf: the wire format keeps '.' under any locale.
  return analysis::json_fixed(t.to_seconds(), 9);
}

}  // namespace

Session::Session(const SessionConfig& config, Writer writer)
    : cfg_(config),
      writer_(std::move(writer)),
      checker_(checker_config(config.soak)),
      records_to_metrics_(config.soak.metrics_every) {}

std::string Session::event_head(std::string_view name) const {
  std::string out = "{\"event\":\"";
  out += name;
  out += '"';
  if (cfg_.stream_id.has_value()) {
    out += ",\"stream\":";
    out += std::to_string(*cfg_.stream_id);
  }
  return out;
}

void Session::emit(const std::string& line) {
  if (write_failed_) return;
  if (!writer_(line)) {
    // The downstream consumer is gone. Tear this session down quietly —
    // never the process (SIGPIPE is ignored at the CLI layer and sockets
    // write with MSG_NOSIGNAL).
    write_failed_ = true;
    stop_reading_ = true;
  }
}

MetricsSnapshot Session::metrics_snapshot() const {
  MetricsSnapshot out;
  out.counters["serve.records"] = report_.records_fed;
  out.counters["serve.detects"] = report_.detect_records;
  out.counters["serve.rejects.malformed"] = report_.malformed_lines;
  out.counters["serve.rejects.out_of_order"] = report_.out_of_order_lines;
  out.counters["serve.rejects.overlong"] = report_.overlong_lines;
  out.counters["serve.violations"] = violating_records_;
  // finish() freezes the count before it finishes the checker.
  out.counters["serve.stale_observations"] =
      finished_ ? report_.stale_observations : checker_.stale_observations();
  out.gauges["serve.pending_sends"] =
      static_cast<double>(checker_.pending_sends());
  out.gauges["serve.peak_pending"] =
      static_cast<double>(report_.peak_pending_sends);
  return out;
}

void Session::emit_metrics() {
  emit(event_head("metrics") + ",\"records\":" +
       std::to_string(report_.records_fed) +
       ",\"data\":" + analysis::metrics_json(metrics_snapshot()) + "}\n");
  last_metrics_records_ = report_.records_fed;
}

void Session::reject(const std::string& error, std::size_t& report_counter) {
  report_counter++;
  emit("{\"event\":\"reject\",\"line\":" + std::to_string(report_.lines_read) +
       ",\"error\":\"" + analysis::json_escape(error) + "\"}\n");
  if (!cfg_.soak.lenient) {
    rejected_ = true;
    stop_reading_ = true;
  }
}

void Session::feed_line(std::string_view line) {
  if (stopped()) return;
  ingest_line(line);
}

void Session::on_data(std::string_view bytes) {
  std::size_t i = 0;
  while (i < bytes.size() && !stopped()) {
    const std::size_t nl = bytes.find('\n', i);
    if (discarding_line_) {
      // Lenient slow-producer policy: the over-long line was already
      // rejected; drop its remaining bytes up to the terminator.
      if (nl == std::string_view::npos) return;
      i = nl + 1;
      discarding_line_ = false;
      continue;
    }
    if (nl != std::string_view::npos) {
      if (buffer_.empty() && nl - i <= cfg_.max_line_bytes) {
        // The whole line sits inside this chunk: parse it in place.
        ingest_line(bytes.substr(i, nl - i));
        i = nl + 1;
        continue;
      }
      buffer_.append(bytes.substr(i, nl - i));
      i = nl + 1;
      if (buffer_.size() > cfg_.max_line_bytes) {
        report_.lines_read++;
        reject("line exceeds --max-buffer (" +
                   std::to_string(cfg_.max_line_bytes) + " bytes)",
               report_.overlong_lines);
      } else {
        ingest_line(buffer_);
      }
      buffer_.clear();
      continue;
    }
    buffer_.append(bytes.substr(i));
    i = bytes.size();
    if (buffer_.size() > cfg_.max_line_bytes) {
      report_.lines_read++;
      reject("line exceeds --max-buffer (" +
                 std::to_string(cfg_.max_line_bytes) + " bytes)",
             report_.overlong_lines);
      buffer_.clear();
      discarding_line_ = true;
    }
  }
}

void Session::ingest_line(std::string_view line) {
  report_.lines_read++;
  if (line.empty()) return;

  const ParsedRecord parsed = parse_trace_line(line);
  if (!parsed.ok()) {
    reject(parsed.error, report_.malformed_lines);
    return;
  }
  const sim::TraceRecord& r = parsed.record;

  // The network plane is totally ordered by true time; only kDetect
  // records may rewind (they carry the causing sense's timestamp and are
  // appended out-of-band by batch exporters).
  if (r.kind != sim::TraceKind::kDetect) {
    if (have_last_ && r.at < last_) {
      reject("record time " + time_field(r.at) +
                 "s precedes previous record at " + time_field(last_) + "s",
             report_.out_of_order_lines);
      return;
    }
    last_ = r.at;
    have_last_ = true;
  }

  const auto violation = checker_.feed(r);
  report_.records_fed++;

  if (r.kind == sim::TraceKind::kDetect) {
    report_.detect_records++;
    std::string line_out = "{\"event\":\"detect\",\"t\":" + time_field(r.at) +
                           ",\"pid\":" + std::to_string(r.pid);
    if (const std::string_view note = parsed.note(); !note.empty()) {
      line_out += ",\"detector\":\"" + analysis::json_escape(note) + '"';
    }
    line_out += "}\n";
    emit(line_out);
  }
  if (violation.has_value()) {
    violating_records_++;
    emit("{\"event\":\"violation\",\"t\":" + time_field(violation->at) +
         ",\"kind\":\"" + check::to_string(violation->kind) +
         "\",\"pid\":" + std::to_string(violation->pid) +
         ",\"seq\":" + std::to_string(violation->seq) + ",\"detail\":\"" +
         analysis::json_escape(violation->detail) + "\"}\n");
  }
  report_.peak_pending_sends =
      std::max(report_.peak_pending_sends, checker_.pending_sends());

  // metrics_every == 0 starts the countdown at 0, which never fires.
  if (records_to_metrics_ != 0 && --records_to_metrics_ == 0) {
    emit_metrics();
    records_to_metrics_ = cfg_.soak.metrics_every;
  }
}

const SoakReport& Session::finish() {
  if (finished_) return report_;
  // A trailing unterminated line counts, exactly as std::getline yields it.
  if (!buffer_.empty() && !discarding_line_ && !stopped()) {
    ingest_line(buffer_);
  }
  buffer_.clear();
  finished_ = true;

  report_.stale_observations = checker_.stale_observations();
  const check::CheckReport final_report = checker_.finish();
  report_.violations = final_report.total_violations();
  if (rejected_) {
    report_.exit_code = 3;
  } else if (report_.violations > 0) {
    report_.exit_code = 1;
  }

  // Boundary dedup: a stream whose length is an exact multiple of
  // metrics_every already emitted this snapshot inside the loop.
  if (last_metrics_records_ != report_.records_fed) emit_metrics();
  emit(event_head("eof") + ",\"verdict\":\"" +
       (rejected_ ? "rejected-input" : to_string(final_report.verdict)) +
       "\",\"records\":" + std::to_string(report_.records_fed) +
       ",\"violations\":" + std::to_string(report_.violations) +
       ",\"stale\":" + std::to_string(report_.stale_observations) +
       ",\"rejected\":" +
       std::to_string(report_.malformed_lines + report_.out_of_order_lines +
                      report_.overlong_lines) +
       ",\"peak_pending\":" + std::to_string(report_.peak_pending_sends) +
       ",\"exit\":" + std::to_string(report_.exit_code) + "}\n");
  return report_;
}

}  // namespace psn::serve
