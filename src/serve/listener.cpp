#include "serve/listener.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <climits>
#include <cstring>
#include <ostream>
#include <utility>

#include "analysis/export.hpp"
#include "common/error.hpp"

namespace psn::serve {

namespace {

/// Write fd of the running listener's stop pipe, for the signal handlers.
/// One listener runs at a time (the CLI's); -1 when none is live.
std::atomic<int> g_stop_fd{-1};

void stop_signal_handler(int /*signum*/) {
  const int fd = g_stop_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] const auto n = ::write(fd, &byte, 1);
  }
}

/// Sends the whole chunk, retrying EINTR. MSG_NOSIGNAL: a vanished peer
/// must surface as EPIPE (session teardown), never as process-wide SIGPIPE.
bool send_all(int fd, std::string_view chunk) {
  std::size_t off = 0;
  while (off < chunk.size()) {
    const ssize_t n =
        ::send(fd, chunk.data() + off, chunk.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool all_digits(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

}  // namespace

Listener::Listener(const ListenerConfig& config, std::ostream& log)
    : cfg_(config), log_(log) {}

Listener::~Listener() {
  conns_.clear();
  listen_fd_.reset();
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

void Listener::open() {
  if (listen_fd_) return;
  if (all_digits(cfg_.listen)) {
    unsigned port = 0;
    const auto res = std::from_chars(
        cfg_.listen.data(), cfg_.listen.data() + cfg_.listen.size(), port);
    if (res.ec != std::errc() || port > 65535) {
      throw ConfigError("serve: bad --listen port '" + cfg_.listen + "'");
    }
    UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd) throw ConfigError("serve: socket() failed");
    const int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw ConfigError("serve: cannot bind 127.0.0.1:" + cfg_.listen + ": " +
                        std::strerror(errno));
    }
    socklen_t len = sizeof(addr);
    ::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    listen_fd_ = std::move(fd);
  } else {
    sockaddr_un addr{};
    if (cfg_.listen.size() >= sizeof(addr.sun_path)) {
      throw ConfigError("serve: --listen unix path too long: " + cfg_.listen);
    }
    UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd) throw ConfigError("serve: socket() failed");
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, cfg_.listen.c_str(), cfg_.listen.size() + 1);
    ::unlink(cfg_.listen.c_str());  // clear a stale socket from a past run
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw ConfigError("serve: cannot bind " + cfg_.listen + ": " +
                        std::strerror(errno));
    }
    unix_path_ = cfg_.listen;
    listen_fd_ = std::move(fd);
  }
  if (::listen(listen_fd_.get(), 64) != 0) {
    throw ConfigError(std::string("serve: listen() failed: ") +
                      std::strerror(errno));
  }
}

void Listener::log_line(const std::string& line) {
  log_ << line;
  log_.flush();
}

void Listener::accept_one() {
  UniqueFd client(::accept(listen_fd_.get(), nullptr, nullptr));
  if (!client) return;

  if (conns_.size() >= cfg_.max_streams) {
    // Clean over-limit reject: one explanatory line, then close. Flow
    // control, not an input rejection — the exit code is unaffected.
    over_limit_++;
    send_all(client.get(),
             "{\"event\":\"reject\",\"error\":\"server at --max-streams "
             "capacity (" +
                 std::to_string(cfg_.max_streams) + ")\"}\n");
    log_line("{\"event\":\"reject\",\"reason\":\"max-streams\",\"limit\":" +
             std::to_string(cfg_.max_streams) + "}\n");
    return;
  }

  auto conn = std::make_unique<Connection>();
  conn->id = next_stream_id_++;
  conn->fd = std::move(client);
  SessionConfig session_cfg = cfg_.session;
  session_cfg.stream_id = conn->id;
  const int fd = conn->fd.get();
  conn->session = std::make_unique<Session>(
      session_cfg,
      [fd](std::string_view chunk) { return send_all(fd, chunk); });
  conn->last_activity = std::chrono::steady_clock::now();
  log_line("{\"event\":\"accept\",\"stream\":" + std::to_string(conn->id) +
           "}\n");
  conns_.push_back(std::move(conn));
}

bool Listener::service(Connection& conn) {
  char buf[65536];
  const ssize_t n = ::read(conn.fd.get(), buf, sizeof(buf));
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN) return false;
    return true;  // connection error: finalize what we have and close
  }
  if (n == 0) return true;  // producer EOF (orderly or half-close)
  conn.last_activity = std::chrono::steady_clock::now();
  if (conn.finalized) return false;  // draining a stopped session's input
  conn.session->on_data(std::string_view(buf, static_cast<std::size_t>(n)));
  if (conn.session->stopped()) {
    // Strict-mode rejection or write failure: the verdict is final, so emit
    // it now — but keep reading (and discarding) until the producer's EOF.
    // Closing with unread bytes in the receive buffer would send an RST
    // that can destroy the verdict before the client reads it.
    finalize(conn);
  }
  return false;
}

void Listener::finalize(Connection& conn) {
  if (conn.finalized) return;
  conn.finalized = true;
  const SoakReport& report = conn.session->finish();
  streams_served_++;

  // Four of the session's metrics go into the server-wide snapshot under
  // this stream's labels; everything else the session counted stays local.
  const MetricsSnapshot snap = conn.session->metrics_snapshot();
  const auto label = [&conn](std::string_view suffix) {
    return labeled_metric("serve.stream", conn.id, suffix);
  };
  stream_metrics_.counters[label("records")] =
      snap.counters.at("serve.records");
  stream_metrics_.counters[label("violations")] =
      snap.counters.at("serve.violations");
  stream_metrics_.counters[label("stale")] =
      snap.counters.at("serve.stale_observations");
  stream_metrics_.gauges[label("peak_pending")] =
      snap.gauges.at("serve.peak_pending");

  if (conn.session->write_failed()) write_failed_++;
  // Rejection (3) takes precedence over violations (1) over clean (0).
  if (report.exit_code == 3) {
    exit_code_ = 3;
  } else if (report.exit_code == 1 && exit_code_ != 3) {
    exit_code_ = 1;
  }
  log_line("{\"event\":\"close\",\"stream\":" + std::to_string(conn.id) +
           ",\"records\":" + std::to_string(report.records_fed) +
           ",\"violations\":" + std::to_string(report.violations) +
           ",\"exit\":" + std::to_string(report.exit_code) + "}\n");
}

void Listener::close_connection(Connection& conn) {
  finalize(conn);
  conn.fd.reset();
}

int Listener::poll_timeout_ms() const {
  if (cfg_.idle_timeout_ms <= 0 || conns_.empty()) return -1;
  const auto now = std::chrono::steady_clock::now();
  std::int64_t nearest = cfg_.idle_timeout_ms;
  for (const auto& conn : conns_) {
    const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
                          now - conn->last_activity)
                          .count();
    nearest = std::min(nearest, cfg_.idle_timeout_ms - idle);
  }
  return static_cast<int>(std::clamp<std::int64_t>(nearest, 0, INT_MAX));
}

void Listener::evict_idle() {
  if (cfg_.idle_timeout_ms <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  for (auto& conn : conns_) {
    if (!conn->fd) continue;
    const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
                          now - conn->last_activity)
                          .count();
    if (idle < cfg_.idle_timeout_ms) continue;
    // Eviction is the normal end-of-stream path: the client still gets its
    // final metrics + eof verdict before the close.
    stream_metrics_.counters[labeled_metric("serve.stream", conn->id,
                                            "idle_evicted")] = 1;
    log_line("{\"event\":\"idle_evict\",\"stream\":" +
             std::to_string(conn->id) +
             ",\"idle_ms\":" + std::to_string(idle) + "}\n");
    close_connection(*conn);
  }
}

int Listener::run() {
  open();

  struct sigaction old_int {};
  struct sigaction old_term {};
  if (cfg_.handle_signals) {
    g_stop_fd.store(stop_pipe_.write_fd(), std::memory_order_relaxed);
    struct sigaction sa {};
    sa.sa_handler = stop_signal_handler;
    ::sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, &old_int);
    ::sigaction(SIGTERM, &sa, &old_term);
  }

  bool stopping = false;
  while (!stopping) {
    std::vector<pollfd> fds;
    fds.reserve(conns_.size() + 2);
    fds.push_back({stop_pipe_.read_fd(), POLLIN, 0});
    fds.push_back({listen_fd_.get(), POLLIN, 0});
    for (const auto& conn : conns_) {
      fds.push_back({conn->fd.get(), POLLIN, 0});
    }
    const int rc =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), poll_timeout_ms());
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) {
      stop_pipe_.drain();
      stopping = true;
      break;
    }
    // Service sessions before accepting: fds[2 + i] maps to conns_[i].
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      const short revents = fds[2 + i].revents;
      if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (service(*conns_[i])) close_connection(*conns_[i]);
    }
    evict_idle();
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const std::unique_ptr<Connection>& c) {
                                  return !c->fd;
                                }),
                 conns_.end());
    if ((fds[1].revents & POLLIN) != 0) accept_one();
  }

  // Graceful shutdown: drain every live session through finish() so each
  // client still gets its final metrics + eof verdict.
  for (const auto& conn : conns_) close_connection(*conn);
  conns_.clear();

  if (cfg_.handle_signals) {
    ::sigaction(SIGINT, &old_int, nullptr);
    ::sigaction(SIGTERM, &old_term, nullptr);
    g_stop_fd.store(-1, std::memory_order_relaxed);
  }

  const MetricsSnapshot merged = server_metrics();
  log_line("{\"event\":\"shutdown\",\"streams\":" +
           std::to_string(streams_served_) +
           ",\"exit\":" + std::to_string(exit_code_) +
           ",\"data\":" + analysis::metrics_json(merged) + "}\n");
  return exit_code_;
}

MetricsSnapshot Listener::server_metrics() const {
  MetricsSnapshot out = stream_metrics_;
  // Each listener count appears once it is nonzero.
  const auto put = [&out](const char* name, std::uint64_t n) {
    if (n > 0) out.counters[name] = n;
  };
  put("serve.streams.accepted", next_stream_id_);
  put("serve.streams.over_limit", over_limit_);
  put("serve.streams.write_failed", write_failed_);
  return out;
}

}  // namespace psn::serve
