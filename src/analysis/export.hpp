#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.hpp"
#include "common/table.hpp"
#include "core/detectors.hpp"
#include "sim/trace.hpp"

namespace psn::analysis {

/// Exporters for the run artifacts — the interchange layer a user needs to
/// plot results or post-process detections outside C++.

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, and control characters; no surrounding quotes added).
std::string json_escape(std::string_view s);

/// Locale-independent "%.<precision>f" — JSON number fields must always use
/// '.' as the decimal point, but printf honors LC_NUMERIC (a comma-decimal
/// locale would corrupt the wire format). Implemented on std::to_chars,
/// which is specified as printf-in-the-C-locale, so output bytes match the
/// old snprintf path exactly when the locale is sane.
std::string json_fixed(double v, int precision);

/// Locale-independent "%.<precision>g", same rationale.
std::string json_general(double v, int precision);

/// Appends one trace record as a JSON Lines object, newline included:
///   {"t":1.25,"kind":"send","pid":3,"peer":0,"msg":"strobe","bytes":57}
/// `msg` carries the net::MessageKind name (omitted for non-message
/// records); `note` appears when non-empty (sense attribute, detector name).
/// The one trace formatter: every function below goes through it.
void append_trace_line(std::string& out, const sim::TraceRecord& r);

/// The whole trace as one JSON Lines document.
std::string trace_jsonl(const std::vector<sim::TraceRecord>& records);

/// Streams the trace as JSON Lines to `out` (or to a file created at
/// `path`), writing every ~64 KiB so the document is never held whole.
/// Throws InvariantError when the file cannot be opened or a write fails.
void write_trace_jsonl(const std::vector<sim::TraceRecord>& records,
                       std::FILE* out);
void write_trace_jsonl(const std::vector<sim::TraceRecord>& records,
                       const std::string& path);

/// One compact JSON object of a snapshot's counters and gauges (name-sorted,
/// no trailing newline) for streaming emitters — the soak server's periodic
/// metrics lines. Stats and histograms render via MetricsSnapshot::table()
/// instead.
std::string metrics_json(const MetricsSnapshot& snapshot);

}  // namespace psn::analysis
