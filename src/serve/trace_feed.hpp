#pragma once

#include <string>
#include <string_view>

#include "sim/trace.hpp"

/// psn::serve — the streaming ingest layer (DESIGN.md §12). The JSONL trace
/// schema that analysis::trace_jsonl exports is the wire format: one flat
/// JSON object per line, keys t/kind/pid/peer/msg/bytes/seq/note. A batch
/// trace file piped into `psn_cli serve` therefore replays exactly, and a
/// live producer only has to emit the same lines as they happen.
namespace psn::serve {

/// Outcome of parsing one wire line: either a record or a diagnostic.
struct ParsedRecord {
  /// The record. Its `note` stays empty: a wire note is never interned, so
  /// a stream of distinct notes cannot grow psn::Name's table.
  sim::TraceRecord record;
  std::string error;           ///< non-empty iff the line was rejected
  std::string_view line_note;  ///< the note as it stands in the line
  std::string decoded_note;    ///< the note, if its wire text had escapes

  bool ok() const { return error.empty(); }
  /// The line's note: a view into the parsed line, valid while the line
  /// is, or into `decoded_note` when the wire text had escapes.
  std::string_view note() const {
    return decoded_note.empty() ? line_note : decoded_note;
  }
};

/// Parses one JSONL trace line. Strict by design — the soak server treats
/// its stdin as a checked interface, not best-effort telemetry: unknown or
/// duplicate keys, missing required keys (t, kind, pid), malformed JSON,
/// negative times, or out-of-range enum names all reject the line with a
/// specific diagnostic. Key order is free; `peer`, `msg`, `bytes`, `seq`,
/// and `note` are optional exactly as the exporter omits them. `bytes` must
/// fit the record's 32 bits.
ParsedRecord parse_trace_line(std::string_view line);

}  // namespace psn::serve
