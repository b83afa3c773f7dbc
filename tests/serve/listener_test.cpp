// Multi-stream socket listener tests (DESIGN.md §12). The load-bearing
// property is equivalence: N concurrent socket clients must each receive
// byte-identical output to N sequential stdin-style sessions over the same
// traces (modulo the `"stream":<id>` field on metrics/eof events). The rest
// pins the protocol edges: --max-streams over-limit rejection, surviving an
// abrupt client disconnect, graceful drain on stop, exit-code aggregation
// precedence, per-stream metric labels, and the AF_UNIX listen path.
//
// Clients always run a concurrent reader (a thread, or interleaved
// blocking reads on small payloads): a client that only sends while the
// server blocks sending back to it is a classic two-way-pipe deadlock.

#include "serve/listener.hpp"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/export.hpp"
#include "common/error.hpp"
#include "common/fd.hpp"
#include "serve/session.hpp"

namespace psn::serve {
namespace {

using namespace psn::time_literals;

/// Blocking test client over the verification socket. Reads and writes may
/// run from different threads (reader-thread pattern); `received_` is only
/// touched by whoever calls the read methods.
class Client {
 public:
  static Client connect_tcp(std::uint16_t port) {
    UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (fd && ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)) != 0) {
      fd.reset();
    }
    return Client(std::move(fd));
  }

  static Client connect_unix(const std::string& path) {
    UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (fd && ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)) != 0) {
      fd.reset();
    }
    return Client(std::move(fd));
  }

  bool ok() const { return static_cast<bool>(fd_); }

  /// MSG_NOSIGNAL: a torn-down session closes our socket and the test
  /// process must see a failed send, not SIGPIPE.
  bool send_bytes(std::string_view data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_.get(), data.data() + off,
                               data.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Half-close: tells the server this stream's input is complete while
  /// keeping the read side open for the final metrics + eof verdict.
  void half_close() { ::shutdown(fd_.get(), SHUT_WR); }

  /// Abrupt teardown: linger-zero close sends RST, the way a crashed
  /// producer vanishes.
  void abort_close() {
    struct linger lg {};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(fd_.get(), SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    fd_.reset();
  }

  /// Blocks until the server closes the connection; returns all bytes ever
  /// received on this client.
  const std::string& read_to_eof() {
    while (read_some()) {
    }
    return received_;
  }

  /// Blocks until the accumulated bytes contain `needle` (or EOF). The
  /// deterministic sync point: send a detect record, wait for its echo, and
  /// the session is provably live and registered server-side.
  bool read_until(const std::string& needle) {
    while (received_.find(needle) == std::string::npos) {
      if (!read_some()) return false;
    }
    return true;
  }

  const std::string& received() const { return received_; }

 private:
  explicit Client(UniqueFd fd) : fd_(std::move(fd)) {}

  bool read_some() {
    char buf[4096];
    while (true) {
      const ssize_t n = ::read(fd_.get(), buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      received_.append(buf, static_cast<std::size_t>(n));
      return true;
    }
  }

  UniqueFd fd_;
  std::string received_;
};

/// Runs a Listener on a background thread against an ephemeral port (or a
/// unix path); joins and surfaces the aggregate exit code on stop.
struct Harness {
  explicit Harness(ListenerConfig cfg) : listener(make(cfg), log) {
    listener.open();
    thread = std::thread([this] { exit_code = listener.run(); });
  }

  ~Harness() {
    if (thread.joinable()) {
      listener.request_stop();
      thread.join();
    }
  }

  int stop_and_join() {
    listener.request_stop();
    thread.join();
    return exit_code;
  }

  static ListenerConfig make(ListenerConfig cfg) {
    cfg.handle_signals = false;  // tests stop via request_stop()
    return cfg;
  }

  std::ostringstream log;
  Listener listener;
  std::thread thread;
  int exit_code = -1;
};

/// Removes every `,"stream":<digits>` occurrence — the one intentional
/// difference between socket-mode and stdin-mode output.
std::string strip_stream_field(const std::string& text) {
  const std::string key = ",\"stream\":";
  std::string out;
  out.reserve(text.size());
  std::size_t i = 0;
  while (i < text.size()) {
    if (text.compare(i, key.size(), key) == 0) {
      std::size_t j = i + key.size();
      while (j < text.size() && text[j] >= '0' && text[j] <= '9') j++;
      i = j;
      continue;
    }
    out += text[i++];
  }
  return out;
}

std::string occupancy_trace(std::uint64_t seed) {
  analysis::OccupancyConfig cfg;
  cfg.doors = 2;
  cfg.movement_rate = 10.0;
  cfg.horizon = 10_s;
  cfg.seed = seed;
  cfg.trace_capacity = std::size_t{1} << 18;
  const analysis::OccupancyRunResult run =
      analysis::run_occupancy_experiment(cfg);
  EXPECT_FALSE(run.trace.empty());
  return analysis::trace_jsonl(run.trace);
}

SoakServerConfig occupancy_session_config() {
  SoakServerConfig cfg;
  cfg.num_processes = 3;     // doors + P_0, matching occupancy_trace
  cfg.metrics_every = 1000;  // exercise periodic snapshots on the wire
  return cfg;
}

std::size_t count_lines(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    count++;
  }
  return count;
}

// The tentpole acceptance test: three concurrent socket clients, disjoint
// real traces, each client's bytes compared against a sequential session.
TEST(ListenerTest, ConcurrentStreamsAreByteIdenticalToSequentialServes) {
  const std::uint64_t seeds[] = {11, 22, 33};
  std::vector<std::string> traces;
  std::vector<std::string> expected;
  for (const std::uint64_t seed : seeds) {
    traces.push_back(occupancy_trace(seed));
    // The sequential reference: one stdin-style Session over the whole trace.
    std::string out;
    SessionConfig session_cfg;
    session_cfg.soak = occupancy_session_config();
    Session session(session_cfg, [&out](std::string_view chunk) {
      out.append(chunk);
      return true;
    });
    session.on_data(traces.back());
    const SoakReport report = session.finish();
    EXPECT_EQ(report.exit_code, 0) << "seed " << seed;
    expected.push_back(out);
  }

  ListenerConfig cfg;
  cfg.listen = "0";
  cfg.session.soak = occupancy_session_config();
  Harness harness(cfg);

  std::vector<std::string> got(traces.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    clients.emplace_back([&, i] {
      Client client = Client::connect_tcp(harness.listener.port());
      ASSERT_TRUE(client.ok());
      // Reader runs concurrently with the sends (deadlock avoidance).
      std::thread reader([&client, &got, i] {
        got[i] = client.read_to_eof();
      });
      // Deliberately awkward chunking: split mid-line to force reassembly.
      const std::string& trace = traces[i];
      const std::size_t chunk = 4096 + 37 * i;
      for (std::size_t off = 0; off < trace.size(); off += chunk) {
        ASSERT_TRUE(client.send_bytes(
            std::string_view(trace).substr(off, chunk)));
      }
      client.half_close();
      reader.join();
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(harness.stop_and_join(), 0);

  for (std::size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(strip_stream_field(got[i]), expected[i]) << "client " << i;
    EXPECT_NE(got[i].find("\"event\":\"eof\""), std::string::npos);
  }

  // Server-wide snapshot carries every stream's labeled metrics, and the
  // labels add up to exactly the records each client fed.
  const MetricsSnapshot server = harness.listener.server_metrics();
  EXPECT_EQ(server.counters.at("serve.streams.accepted"), 3u);
  std::uint64_t labeled_total = 0;
  for (std::uint64_t id = 0; id < 3; ++id) {
    labeled_total +=
        server.counters.at(labeled_metric("serve.stream", id, "records"));
    EXPECT_EQ(
        server.counters.at(labeled_metric("serve.stream", id, "violations")),
        0u);
  }
  std::uint64_t fed_total = 0;
  for (const std::string& trace : traces) {
    fed_total += count_lines(trace, "\n");
  }
  EXPECT_EQ(labeled_total, fed_total);

  // Listener log: one accept and one close per stream, one shutdown line.
  const std::string log = harness.log.str();
  EXPECT_EQ(count_lines(log, "\"event\":\"accept\""), 3u);
  EXPECT_EQ(count_lines(log, "\"event\":\"close\""), 3u);
  EXPECT_EQ(count_lines(log, "\"event\":\"shutdown\""), 1u);
}

TEST(ListenerTest, OverLimitClientGetsOneRejectLineAndCleanClose) {
  ListenerConfig cfg;
  cfg.listen = "0";
  cfg.max_streams = 1;
  Harness harness(cfg);

  Client first = Client::connect_tcp(harness.listener.port());
  ASSERT_TRUE(first.ok());
  // Sync: once the detect echo is back, the first session occupies the slot.
  ASSERT_TRUE(first.send_bytes("{\"t\":1.0,\"kind\":\"detect\",\"pid\":0}\n"));
  ASSERT_TRUE(first.read_until("\"event\":\"detect\""));

  Client second = Client::connect_tcp(harness.listener.port());
  ASSERT_TRUE(second.ok());
  const std::string& rejected = second.read_to_eof();
  EXPECT_NE(rejected.find("--max-streams capacity (1)"), std::string::npos);
  EXPECT_EQ(rejected.find("\"event\":\"eof\""), std::string::npos);

  first.half_close();
  first.read_to_eof();
  EXPECT_NE(first.received().find("\"event\":\"eof\""), std::string::npos);
  EXPECT_EQ(harness.stop_and_join(), 0);  // flow control, not a failure
  EXPECT_NE(harness.log.str().find("\"event\":\"shutdown\",\"streams\":1,"),
            std::string::npos);
  EXPECT_NE(harness.log.str().find("\"reason\":\"max-streams\""),
            std::string::npos);
  EXPECT_EQ(
      harness.listener.server_metrics().counters.at(
          "serve.streams.over_limit"),
      1u);
}

TEST(ListenerTest, SurvivesAbruptClientDisconnectAndServesTheNext) {
  ListenerConfig cfg;
  cfg.listen = "0";
  Harness harness(cfg);

  {
    Client doomed = Client::connect_tcp(harness.listener.port());
    ASSERT_TRUE(doomed.ok());
    ASSERT_TRUE(
        doomed.send_bytes("{\"t\":1.0,\"kind\":\"detect\",\"pid\":0}\n"));
    ASSERT_TRUE(doomed.read_until("\"event\":\"detect\""));
    doomed.abort_close();  // RST, as if the producer crashed
  }

  Client next = Client::connect_tcp(harness.listener.port());
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(next.send_bytes(
      "{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":1}\n"));
  next.half_close();
  next.read_to_eof();
  EXPECT_NE(next.received().find("\"verdict\":\"clean\""), std::string::npos);
  EXPECT_EQ(harness.stop_and_join(), 0);
  EXPECT_NE(harness.log.str().find("\"event\":\"shutdown\",\"streams\":2,"),
            std::string::npos);
}

TEST(ListenerTest, GracefulStopDrainsLiveSessionsThroughEof) {
  ListenerConfig cfg;
  cfg.listen = "0";
  Harness harness(cfg);

  Client client = Client::connect_tcp(harness.listener.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.send_bytes(
      "{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":1}\n"
      "{\"t\":1.5,\"kind\":\"detect\",\"pid\":0}\n"));
  // The session is mid-stream (no EOF from us) when the stop lands; the
  // drain must still deliver its final metrics and eof verdict.
  ASSERT_TRUE(client.read_until("\"event\":\"detect\""));
  EXPECT_EQ(harness.stop_and_join(), 0);
  client.read_to_eof();
  EXPECT_NE(client.received().find("\"event\":\"metrics\""),
            std::string::npos);
  EXPECT_NE(client.received().find("\"verdict\":\"clean\""),
            std::string::npos);
  EXPECT_NE(client.received().find("\"records\":2"), std::string::npos);
  EXPECT_NE(harness.log.str().find("\"event\":\"shutdown\",\"streams\":1"),
            std::string::npos);
}

TEST(ListenerTest, IdleStreamIsEvictedThroughTheNormalFinishPath) {
  ListenerConfig cfg;
  cfg.listen = "0";
  cfg.idle_timeout_ms = 150;
  Harness harness(cfg);

  Client client = Client::connect_tcp(harness.listener.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.send_bytes(
      "{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":1}\n"
      "{\"t\":1.5,\"kind\":\"detect\",\"pid\":0}\n"));
  // Now wedge: send nothing and never half-close. The listener must evict
  // the stream on its own, draining the session through finish() so we
  // still get the final metrics and eof verdict before the close.
  client.read_to_eof();
  EXPECT_NE(client.received().find("\"event\":\"metrics\""),
            std::string::npos);
  EXPECT_NE(client.received().find("\"verdict\":\"clean\""),
            std::string::npos);
  EXPECT_NE(client.received().find("\"records\":2"), std::string::npos);

  // The eviction is recorded: a lifecycle log line plus the per-stream
  // cause counter in the server-wide snapshot (read once the loop thread
  // has joined).
  EXPECT_EQ(harness.stop_and_join(), 0);
  EXPECT_NE(harness.log.str().find("\"event\":\"idle_evict\",\"stream\":0"),
            std::string::npos);
  EXPECT_EQ(harness.listener.server_metrics().counters.at(
                labeled_metric("serve.stream", 0, "idle_evicted")),
            1u);

  // A fresh client that completes before the deadline is not evicted.
  Harness harness2(cfg);
  Client quick = Client::connect_tcp(harness2.listener.port());
  ASSERT_TRUE(quick.ok());
  ASSERT_TRUE(
      quick.send_bytes("{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":1}\n"));
  quick.half_close();
  quick.read_to_eof();
  EXPECT_NE(quick.received().find("\"exit\":0"), std::string::npos);
  EXPECT_EQ(harness2.stop_and_join(), 0);
  EXPECT_EQ(harness2.log.str().find("\"event\":\"idle_evict\""),
            std::string::npos);
}

TEST(ListenerTest, AggregatesExitCodesWithRejectionOutrankingViolations) {
  ListenerConfig cfg;
  cfg.listen = "0";
  cfg.session.soak.validity_horizon.lifetime = Duration::seconds(1);
  Harness harness(cfg);

  {  // clean stream → 0
    Client c = Client::connect_tcp(harness.listener.port());
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(
        c.send_bytes("{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":1}\n"));
    c.half_close();
    c.read_to_eof();
    EXPECT_NE(c.received().find("\"exit\":0"), std::string::npos);
  }
  {  // stale delivery → violations, 1
    Client c = Client::connect_tcp(harness.listener.port());
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.send_bytes(
        "{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":1}\n"
        "{\"t\":5.0,\"kind\":\"deliver\",\"pid\":0,\"msg\":\"strobe\","
        "\"seq\":1}\n"));
    c.half_close();
    c.read_to_eof();
    EXPECT_NE(c.received().find("\"exit\":1"), std::string::npos);
  }
  {  // strict rejection → 3, and it must win the aggregate
    Client c = Client::connect_tcp(harness.listener.port());
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.send_bytes("definitely not a trace record\n"));
    c.half_close();
    c.read_to_eof();
    EXPECT_NE(c.received().find("\"verdict\":\"rejected-input\""),
              std::string::npos);
  }
  EXPECT_EQ(harness.stop_and_join(), 3);
  EXPECT_NE(harness.log.str().find("\"event\":\"shutdown\",\"streams\":3,"),
            std::string::npos);
}

TEST(ListenerTest, ViolationsAloneAggregateToExitOne) {
  ListenerConfig cfg;
  cfg.listen = "0";
  cfg.session.soak.validity_horizon.lifetime = Duration::seconds(1);
  Harness harness(cfg);

  Client c = Client::connect_tcp(harness.listener.port());
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.send_bytes(
      "{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":1}\n"
      "{\"t\":5.0,\"kind\":\"deliver\",\"pid\":0,\"msg\":\"strobe\","
      "\"seq\":1}\n"));
  c.half_close();
  c.read_to_eof();
  EXPECT_EQ(harness.stop_and_join(), 1);
}

// Clients connect one at a time, so stream ids and the server-wide snapshot
// are deterministic: pin the whole snapshot. Stream 0 is clean, a client
// over --max-streams is turned away while it is live, stream 1 delivers a
// stale strobe (one violating record, one stale observation), and stream 2
// is rejected under strict mode.
TEST(ListenerTest, SequentialStreamsPinTheWholeServerSnapshot) {
  ListenerConfig cfg;
  cfg.listen = "0";
  cfg.max_streams = 1;
  cfg.session.soak.validity_horizon.lifetime = Duration::seconds(1);
  Harness harness(cfg);

  {  // stream 0: clean, holding the only slot while an extra client knocks
    Client c = Client::connect_tcp(harness.listener.port());
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.send_bytes(
        "{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":1}\n"
        "{\"t\":1.5,\"kind\":\"detect\",\"pid\":0}\n"));
    ASSERT_TRUE(c.read_until("\"event\":\"detect\""));
    Client extra = Client::connect_tcp(harness.listener.port());
    ASSERT_TRUE(extra.ok());
    EXPECT_NE(extra.read_to_eof().find("--max-streams capacity (1)"),
              std::string::npos);
    ASSERT_TRUE(c.send_bytes(
        "{\"t\":2.0,\"kind\":\"sense\",\"pid\":2,\"seq\":1}\n"));
    c.half_close();
    c.read_to_eof();
    EXPECT_NE(c.received().find("\"verdict\":\"clean\""), std::string::npos);
  }
  {  // stream 1: a strobe delivered after its validity horizon
    Client c = Client::connect_tcp(harness.listener.port());
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.send_bytes(
        "{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":1}\n"
        "{\"t\":5.0,\"kind\":\"deliver\",\"pid\":0,\"msg\":\"strobe\","
        "\"seq\":1}\n"));
    c.half_close();
    c.read_to_eof();
    EXPECT_NE(c.received().find("\"exit\":1"), std::string::npos);
  }
  {  // stream 2: strict rejection after one good record
    Client c = Client::connect_tcp(harness.listener.port());
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.send_bytes(
        "{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":1}\n"
        "definitely not a trace record\n"));
    c.half_close();
    c.read_to_eof();
    EXPECT_NE(c.received().find("\"verdict\":\"rejected-input\""),
              std::string::npos);
  }
  EXPECT_EQ(harness.stop_and_join(), 3);
  EXPECT_EQ(harness.listener.server_metrics().csv(),
            "name,kind,value\n"
            "serve.stream.0.records,counter,3\n"
            "serve.stream.0.stale,counter,0\n"
            "serve.stream.0.violations,counter,0\n"
            "serve.stream.1.records,counter,2\n"
            "serve.stream.1.stale,counter,1\n"
            "serve.stream.1.violations,counter,1\n"
            "serve.stream.2.records,counter,1\n"
            "serve.stream.2.stale,counter,0\n"
            "serve.stream.2.violations,counter,0\n"
            "serve.streams.accepted,counter,3\n"
            "serve.streams.over_limit,counter,1\n"
            "serve.stream.0.peak_pending,gauge,1\n"
            "serve.stream.1.peak_pending,gauge,1\n"
            "serve.stream.2.peak_pending,gauge,1\n");
}

TEST(ListenerTest, ServesOverAUnixSocketPathAndUnlinksIt) {
  const std::string path =
      "psn_listener_test_" + std::to_string(::getpid()) + ".sock";
  ListenerConfig cfg;
  cfg.listen = path;
  {
    Harness harness(cfg);
    EXPECT_EQ(harness.listener.port(), 0u);
    Client c = Client::connect_unix(path);
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(
        c.send_bytes("{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":1}\n"));
    c.half_close();
    c.read_to_eof();
    EXPECT_NE(c.received().find("\"verdict\":\"clean\""), std::string::npos);
    EXPECT_EQ(harness.stop_and_join(), 0);
  }
  // The listener's destructor removes the socket file.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

TEST(ListenerTest, BadListenSpecsAreConfigErrors) {
  std::ostringstream log;
  {
    ListenerConfig cfg;
    cfg.listen = "99999";  // all digits but not a port
    Listener listener(cfg, log);
    EXPECT_THROW(listener.open(), ConfigError);
  }
  {
    ListenerConfig cfg;
    cfg.listen = std::string(200, 'p');  // exceeds sun_path
    Listener listener(cfg, log);
    EXPECT_THROW(listener.open(), ConfigError);
  }
}

}  // namespace
}  // namespace psn::serve
