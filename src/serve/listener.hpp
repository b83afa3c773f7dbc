#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/fd.hpp"
#include "common/metrics.hpp"
#include "serve/session.hpp"

namespace psn::serve {

struct ListenerConfig {
  /// Where to listen: an all-digit spec is a TCP port bound to 127.0.0.1
  /// (0 picks an ephemeral port — read it back via Listener::port());
  /// anything else is an AF_UNIX socket path, created at bind and unlinked
  /// on close. Loopback-only on purpose: a soak verifier has no business on
  /// a public interface.
  std::string listen;

  /// Connection limit. A client accepted above the limit gets one clean
  /// over-limit reject line and an immediate close; it does not affect the
  /// server's exit code.
  std::size_t max_streams = 64;

  /// Per-session configuration, the same one stdin mode uses; the listener
  /// stamps each connection's `stream_id` into its copy.
  SessionConfig session;

  /// Evict a session after this much wall-clock time without a byte from
  /// its producer (0 = never). Eviction is the normal end-of-stream path:
  /// the session is drained through finish(), the client gets its final
  /// metrics + eof verdict, and serve.stream.<id>.idle_evicted records the
  /// cause in the shutdown snapshot. A producer that wedges mid-soak can no
  /// longer pin a stream slot forever.
  std::int64_t idle_timeout_ms = 0;

  /// Install SIGINT/SIGTERM handlers for graceful shutdown while run() is
  /// live. Tests turn this off and call request_stop() instead.
  bool handle_signals = true;
};

/// Multi-stream socket front end for the soak verifier (DESIGN.md §12): a
/// single-threaded poll loop that accepts connections and runs one
/// serve::Session per connection — each with its own bounded trace-only
/// StreamChecker and line-reassembly buffer, so per-stream verdicts are
/// byte-identical to single-stream `psn_cli serve` on the same input
/// (modulo the `"stream":<id>` field on `metrics`/`eof` events). Session
/// events go back over that session's own connection; the listener's log
/// stream carries lifecycle lines:
///   {"event":"accept","stream":3}
///   {"event":"close","stream":3,"records":...,"exit":0}
///   {"event":"reject","reason":"max-streams","limit":N}
///   {"event":"shutdown","streams":...,"exit":0,"data":{...}}
/// The shutdown line's data object is the server-wide snapshot: the
/// listener's counts (serve.streams.accepted / .over_limit / .write_failed,
/// each present once it is ≥ 1) plus four names per finished stream
/// (serve.stream.<id>.records / .violations / .stale counters and the
/// .peak_pending gauge, copied from the session's snapshot) and
/// serve.stream.<id>.idle_evicted for an evicted one.
///
/// On SIGINT/SIGTERM (or request_stop()) the loop stops accepting, drains
/// every live session through finish() — emitting its final metrics and
/// `eof` verdict to its client — and returns. Exit code aggregation:
/// strict-mode rejection (3) beats violations (1) beats clean (0).
class Listener {
 public:
  Listener(const ListenerConfig& config, std::ostream& log);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens; ConfigError on a bad spec or bind failure. Called
  /// by run() when not already open; tests call it early to learn port().
  void open();

  /// Serves until a stop request, then drains and returns the aggregate
  /// exit code.
  int run();

  /// Thread-safe, async-signal-safe stop request (self-pipe poke).
  void request_stop() { stop_pipe_.poke(); }

  /// Bound TCP port (after open); 0 for unix-path listeners.
  std::uint16_t port() const { return port_; }

  std::size_t streams_served() const { return streams_served_; }

  /// The listener's counts plus the per-stream labeled metrics of the
  /// streams finished so far.
  MetricsSnapshot server_metrics() const;

 private:
  struct Connection {
    UniqueFd fd;
    std::uint64_t id = 0;
    std::unique_ptr<Session> session;
    bool finalized = false;  ///< verdict emitted; now draining to EOF
    /// Last instant the producer delivered bytes (or the accept instant);
    /// drives the --idle-timeout eviction clock.
    std::chrono::steady_clock::time_point last_activity;
  };

  void accept_one();
  /// Reads once; feeds the session; returns true when the connection is
  /// done (EOF or error) and should be closed.
  bool service(Connection& conn);
  /// Poll timeout honoring the nearest idle deadline (-1 = block forever),
  /// capped at INT_MAX ms.
  int poll_timeout_ms() const;
  /// Evicts every session whose idle deadline has passed.
  void evict_idle();
  /// Emits the session's final events, records its per-stream metrics,
  /// logs the close line, and folds its exit code into the aggregate.
  /// Idempotent.
  void finalize(Connection& conn);
  void close_connection(Connection& conn);
  void log_line(const std::string& line);

  ListenerConfig cfg_;
  std::ostream& log_;
  UniqueFd listen_fd_;
  SelfPipe stop_pipe_;
  std::string unix_path_;  ///< non-empty when listening on AF_UNIX
  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::uint64_t next_stream_id_ = 0;  ///< also the count of accepted streams
  std::size_t streams_served_ = 0;
  std::size_t over_limit_ = 0;    ///< clients turned away at max_streams
  std::size_t write_failed_ = 0;  ///< sessions whose client stopped reading
  int exit_code_ = 0;
  MetricsSnapshot stream_metrics_;  ///< serve.stream.<id>.* names
};

}  // namespace psn::serve
