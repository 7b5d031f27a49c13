// svc::Server over loopback TCP (and friends): concurrent clients with
// per-connection response ordering, graceful shutdown under load,
// malformed-frame handling (oversized lines, garbage bytes, mid-request
// disconnects) that drops only the offending connection, the connection
// limit / request cap / idle timeout backstops, simultaneous Unix + TCP
// listeners sharing one design cache, and --listen endpoint parsing.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/error.hpp"
#include "benchdata/benchmarks.hpp"
#include "svc/analysis_service.hpp"
#include "svc/json.hpp"
#include "svc/server.hpp"
#include "svc/transport.hpp"

namespace sitime {
namespace {

// ---- a minimal blocking loopback client ------------------------------------

class TestClient {
 public:
  static TestClient connect_tcp(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&address),
                             sizeof(address));
    return TestClient(rc == 0 ? fd : (::close(fd), -1));
  }

  static TestClient connect_tcp6(std::uint16_t port) {
    const int fd = ::socket(AF_INET6, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in6 address{};
    address.sin6_family = AF_INET6;
    address.sin6_port = htons(port);
    ::inet_pton(AF_INET6, "::1", &address.sin6_addr);
    const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&address),
                             sizeof(address));
    return TestClient(rc == 0 ? fd : (::close(fd), -1));
  }

  static TestClient connect_unix(const std::string& path) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
    const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&address),
                             sizeof(address));
    return TestClient(rc == 0 ? fd : (::close(fd), -1));
  }

  TestClient(TestClient&& other) noexcept : fd_(other.fd_) {
    other.fd_ = -1;
    buffer_.swap(other.buffer_);
  }
  ~TestClient() { close(); }

  bool connected() const { return fd_ >= 0; }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void send(const std::string& text) {
    std::size_t sent = 0;
    while (sent < text.size()) {
      const ssize_t wrote =
          ::send(fd_, text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
      if (wrote < 0 && errno == EINTR) continue;
      ASSERT_GT(wrote, 0) << "client send failed: " << std::strerror(errno);
      sent += static_cast<std::size_t>(wrote);
    }
  }

  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

  /// One response line (newline stripped); false on EOF. A 30s receive
  /// timeout turns a hung server into a test failure instead of a hang.
  bool read_line(std::string& line) {
    while (true) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        line.assign(buffer_, 0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got < 0 && errno == EINTR) continue;
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        ADD_FAILURE() << "client receive timed out";
        return false;
      }
      if (got <= 0) {
        if (buffer_.empty()) return false;
        line.swap(buffer_);
        return true;
      }
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

  /// Every remaining line until EOF.
  std::vector<std::string> read_all() {
    std::vector<std::string> lines;
    std::string line;
    while (read_line(line)) lines.push_back(line);
    return lines;
  }

 private:
  explicit TestClient(int fd) : fd_(fd) {
    if (fd_ < 0) return;
    timeval window{};
    window.tv_sec = 30;  // hung-server backstop
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &window, sizeof(window));
  }

  int fd_ = -1;
  std::string buffer_;
};

// ---- harness ---------------------------------------------------------------

svc::ServerOptions quiet_options() {
  svc::ServerOptions options;
  options.log_lifecycle = false;
  return options;
}

/// An in-process svc::Server on an ephemeral loopback TCP port.
struct TcpHarness {
  explicit TcpHarness(svc::ServerOptions server_options = quiet_options(),
                      svc::ServiceOptions service_options = {})
      : service(service_options), server(service, server_options) {
    auto transport = std::make_unique<svc::TcpTransport>(
        svc::TcpTransport::Options{"127.0.0.1", 0});
    tcp = transport.get();
    server.add_transport(std::move(transport));
    server.start();
    port = tcp->bound_port();
  }

  ~TcpHarness() {
    server.stop();
    server.wait();
  }

  svc::AnalysisService service;
  svc::Server server;
  svc::TcpTransport* tcp = nullptr;
  std::uint16_t port = 0;
};

std::string bench_request_line(const std::string& id,
                               const std::string& bench) {
  return "{\"id\":\"" + id + "\",\"design\":{\"bench\":\"" + bench +
         "\"}}\n";
}

bool response_ok(const std::string& line) {
  return line.find("\"ok\":true") != std::string::npos;
}

std::string id_of(const std::string& line) {
  const std::size_t start = line.find("\"id\":\"");
  if (start == std::string::npos) return "";
  const std::size_t open = start + 6;
  return line.substr(open, line.find('"', open) - open);
}

/// The canonical report body embedded in a response line (the part that
/// must be byte-identical across transports, connections and cache
/// states).
std::string report_of(const std::string& line) {
  const std::size_t start = line.find("\"report\":");
  const std::size_t end = line.find(",\"cache_stats\"");
  if (start == std::string::npos || end == std::string::npos ||
      end <= start)
    return "";
  return line.substr(start + 9, end - start - 9);
}

// ---- tests -----------------------------------------------------------------

TEST(ParseListenEndpoint, AcceptsTheDeploymentMatrix) {
  const auto v4 = svc::parse_listen_endpoint("127.0.0.1:8080");
  EXPECT_EQ(v4.host, "127.0.0.1");
  EXPECT_EQ(v4.port, 8080);

  const auto ephemeral = svc::parse_listen_endpoint("localhost:0");
  EXPECT_EQ(ephemeral.host, "localhost");
  EXPECT_EQ(ephemeral.port, 0);

  const auto any = svc::parse_listen_endpoint(":9000");
  EXPECT_EQ(any.host, "");
  EXPECT_EQ(any.port, 9000);

  const auto v6 = svc::parse_listen_endpoint("[::1]:443");
  EXPECT_EQ(v6.host, "::1");
  EXPECT_EQ(v6.port, 443);

  EXPECT_THROW(svc::parse_listen_endpoint("no-port"), Error);
  EXPECT_THROW(svc::parse_listen_endpoint("host:"), Error);
  EXPECT_THROW(svc::parse_listen_endpoint("host:abc"), Error);
  EXPECT_THROW(svc::parse_listen_endpoint("host:70000"), Error);
  EXPECT_THROW(svc::parse_listen_endpoint("::1:443"), Error);
  EXPECT_THROW(svc::parse_listen_endpoint("[::1]443"), Error);
}

TEST(Server, TcpServesConcurrentClientsInPerConnectionOrder) {
  svc::ServerOptions options = quiet_options();
  options.admit = 4;
  TcpHarness harness(options);
  ASSERT_NE(harness.port, 0);

  const std::vector<std::string> designs = {"imec-ram-read-sbuf", "adfast",
                                            "ebergen"};
  constexpr int kClients = 4;
  std::vector<std::vector<std::string>> results(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client = TestClient::connect_tcp(harness.port);
      ASSERT_TRUE(client.connected());
      std::string payload;
      for (std::size_t d = 0; d < designs.size(); ++d)
        payload += bench_request_line(
            "c" + std::to_string(c) + "-" + std::to_string(d), designs[d]);
      payload += "{\"id\":\"c" + std::to_string(c) + "-stats\",\"stats\":true}\n";
      client.send(payload);
      client.shutdown_write();
      results[c] = client.read_all();
    });
  }
  for (std::thread& thread : clients) thread.join();

  // Per-connection order, every response ok, one report per design.
  std::vector<std::string> reports(designs.size());
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(results[c].size(), designs.size() + 1) << "client " << c;
    for (std::size_t d = 0; d < designs.size(); ++d) {
      const std::string& line = results[c][d];
      EXPECT_EQ(id_of(line),
                "c" + std::to_string(c) + "-" + std::to_string(d));
      EXPECT_TRUE(response_ok(line)) << line;
      const std::string report = report_of(line);
      ASSERT_FALSE(report.empty()) << line;
      if (reports[d].empty())
        reports[d] = report;  // first client seeds the expectation
      else
        EXPECT_EQ(report, reports[d])
            << "report drift across connections for " << designs[d];
    }
    const std::string& stats = results[c].back();
    EXPECT_EQ(id_of(stats), "c" + std::to_string(c) + "-stats");
    EXPECT_NE(stats.find("\"stats\":{"), std::string::npos) << stats;
    // The retired gate-slice keys stay in the stats object.
    EXPECT_NE(stats.find("\"gate_hits\":"), std::string::npos) << stats;
    EXPECT_NE(stats.find("\"gate_misses\":"), std::string::npos) << stats;
    EXPECT_NE(stats.find("\"gate_evictions\":"), std::string::npos) << stats;
    EXPECT_NE(stats.find("\"gate_bytes\":"), std::string::npos) << stats;
  }

  // However many clients raced, each design ran exactly one fresh flow.
  const svc::CacheStats stats = harness.service.stats();
  EXPECT_EQ(stats.misses, static_cast<long long>(designs.size()));
  EXPECT_EQ(stats.hits + stats.coalesced,
            static_cast<long long>((kClients - 1) * designs.size()));
  // The gate-slice tier is gone: its retired counters read 0.
  EXPECT_EQ(stats.gate_misses, 0);
  EXPECT_EQ(stats.gate_entries, 0);

  // The canonical body over TCP is byte-identical to what the service
  // itself renders — i.e. to the stdin transport, which embeds the same
  // canonical_json string.
  svc::AnalysisService reference;
  for (std::size_t d = 0; d < designs.size(); ++d) {
    const auto& bench = benchdata::benchmark(designs[d]);
    svc::AnalysisRequest request;
    request.name = bench.name;
    request.astg = bench.astg;
    request.eqn = bench.eqn;
    const svc::AnalysisResponse response = reference.analyze(request);
    ASSERT_TRUE(response.ok) << response.error;
    ASSERT_NE(response.canonical_json, nullptr);
    EXPECT_EQ(reports[d], *response.canonical_json) << designs[d];
  }

  EXPECT_EQ(harness.server.connections_accepted(), kClients);
  EXPECT_EQ(harness.server.connections_refused(), 0);
}

TEST(Server, GracefulShutdownDrainsInFlightRequestsUnderLoad) {
  svc::ServerOptions options = quiet_options();
  options.admit = 2;
  TcpHarness harness(options);

  // Client A proves the admitted-work contract: requests it has read
  // responses for are definitely in, so stop() must not lose them.
  TestClient drained = TestClient::connect_tcp(harness.port);
  ASSERT_TRUE(drained.connected());
  for (int r = 0; r < 3; ++r)
    drained.send(bench_request_line("a" + std::to_string(r), "adfast"));
  std::string line;
  for (int r = 0; r < 3; ++r) {
    ASSERT_TRUE(drained.read_line(line));
    EXPECT_EQ(id_of(line), "a" + std::to_string(r));
    EXPECT_TRUE(response_ok(line)) << line;
  }

  // Client B has requests racing the shutdown; whatever was admitted
  // must come back as complete, valid lines before EOF — never a torn
  // write or a hang.
  TestClient racing = TestClient::connect_tcp(harness.port);
  ASSERT_TRUE(racing.connected());
  racing.send(bench_request_line("b0", "ebergen") +
              bench_request_line("b1", "ebergen"));

  harness.server.stop();

  const std::vector<std::string> raced = racing.read_all();
  for (const std::string& response : raced) {
    EXPECT_TRUE(response.front() == '{' && response.back() == '}')
        << "torn response line: " << response;
  }
  // Client A sees the drain too: EOF, after any remaining responses.
  drained.read_all();

  // Stopped means stopped: the listener refuses new connections.
  TestClient late = TestClient::connect_tcp(harness.port);
  if (late.connected()) {
    late.send(bench_request_line("late", "adfast"));
    late.shutdown_write();
    const std::vector<std::string> lines = late.read_all();
    for (const std::string& response : lines)
      EXPECT_FALSE(response_ok(response))
          << "request served after stop(): " << response;
  }
  harness.server.wait();
  EXPECT_EQ(harness.server.active_connections(), 0);
}

TEST(Server, GarbageBytesGetAnErrorLineAndTheConnectionSurvives) {
  TcpHarness harness;
  TestClient client = TestClient::connect_tcp(harness.port);
  ASSERT_TRUE(client.connected());
  client.send("this is not json\n" + bench_request_line("after", "adfast"));
  client.shutdown_write();
  const std::vector<std::string> lines = client.read_all();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_FALSE(response_ok(lines[0])) << lines[0];
  EXPECT_NE(lines[0].find("\"error\""), std::string::npos) << lines[0];
  // The connection survived the garbage frame and stayed in order.
  EXPECT_EQ(id_of(lines[1]), "after");
  EXPECT_TRUE(response_ok(lines[1])) << lines[1];
}

TEST(Server, OversizedLineDropsOnlyTheOffendingConnection) {
  svc::ServerOptions options = quiet_options();
  options.max_line_bytes = 1024;
  TcpHarness harness(options);

  TestClient offender = TestClient::connect_tcp(harness.port);
  TestClient bystander = TestClient::connect_tcp(harness.port);
  ASSERT_TRUE(offender.connected());
  ASSERT_TRUE(bystander.connected());

  // The bystander has a request in flight while the offender blows the
  // frame limit; its ordering and its connection must be untouched.
  bystander.send(bench_request_line("b0", "adfast"));
  offender.send(std::string(4096, 'x'));  // no newline needed to trip it
  const std::vector<std::string> dropped = offender.read_all();
  ASSERT_EQ(dropped.size(), 1u);  // the farewell notice, then EOF
  EXPECT_FALSE(response_ok(dropped[0]));
  EXPECT_NE(dropped[0].find("closing connection"), std::string::npos)
      << dropped[0];

  bystander.send(bench_request_line("b1", "ebergen"));
  bystander.shutdown_write();
  const std::vector<std::string> kept = bystander.read_all();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(id_of(kept[0]), "b0");
  EXPECT_EQ(id_of(kept[1]), "b1");
  EXPECT_TRUE(response_ok(kept[0]));
  EXPECT_TRUE(response_ok(kept[1]));
}

TEST(Server, MidRequestDisconnectDoesNotPoisonOtherConnections) {
  TcpHarness harness;
  {
    // Half a request line, then a vanishing client.
    TestClient flake = TestClient::connect_tcp(harness.port);
    ASSERT_TRUE(flake.connected());
    flake.send("{\"design\":{\"bench\":\"adf");
    flake.close();
  }
  {
    // A full request whose response has nowhere to go.
    TestClient flake = TestClient::connect_tcp(harness.port);
    ASSERT_TRUE(flake.connected());
    flake.send(bench_request_line("gone", "ebergen"));
    flake.close();
  }
  // The server keeps serving fresh connections, in order.
  TestClient healthy = TestClient::connect_tcp(harness.port);
  ASSERT_TRUE(healthy.connected());
  healthy.send(bench_request_line("h0", "adfast") +
               bench_request_line("h1", "ebergen"));
  healthy.shutdown_write();
  const std::vector<std::string> lines = healthy.read_all();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(id_of(lines[0]), "h0");
  EXPECT_EQ(id_of(lines[1]), "h1");
  EXPECT_TRUE(response_ok(lines[0])) << lines[0];
  EXPECT_TRUE(response_ok(lines[1])) << lines[1];
}

TEST(Server, IdleTimeoutClosesASilentConnection) {
  svc::ServerOptions options = quiet_options();
  options.idle_timeout_ms = 200;
  TcpHarness harness(options);
  TestClient quiet = TestClient::connect_tcp(harness.port);
  ASSERT_TRUE(quiet.connected());
  // Send nothing: the server must hang up on its own.
  const std::vector<std::string> lines = quiet.read_all();
  EXPECT_TRUE(lines.empty());
  // The listener is still alive for non-idle clients.
  TestClient active = TestClient::connect_tcp(harness.port);
  ASSERT_TRUE(active.connected());
  active.send(bench_request_line("a", "adfast"));
  std::string line;
  ASSERT_TRUE(active.read_line(line));
  EXPECT_TRUE(response_ok(line)) << line;
}

TEST(Server, ConnectionLimitRefusesTheExcessConnection) {
  svc::ServerOptions options = quiet_options();
  options.max_connections = 1;
  TcpHarness harness(options);

  TestClient first = TestClient::connect_tcp(harness.port);
  ASSERT_TRUE(first.connected());
  // A round-trip guarantees the server has registered the connection
  // before the second one knocks.
  first.send(bench_request_line("f0", "adfast"));
  std::string line;
  ASSERT_TRUE(first.read_line(line));
  EXPECT_TRUE(response_ok(line));

  TestClient excess = TestClient::connect_tcp(harness.port);
  ASSERT_TRUE(excess.connected());
  const std::vector<std::string> refused = excess.read_all();
  ASSERT_EQ(refused.size(), 1u);
  EXPECT_FALSE(response_ok(refused[0]));
  EXPECT_NE(refused[0].find("server busy"), std::string::npos)
      << refused[0];
  EXPECT_EQ(harness.server.connections_refused(), 1);

  // The resident connection is unaffected.
  first.send(bench_request_line("f1", "ebergen"));
  ASSERT_TRUE(first.read_line(line));
  EXPECT_EQ(id_of(line), "f1");
  EXPECT_TRUE(response_ok(line));
}

TEST(Server, PerConnectionRequestCapDrainsThenCloses) {
  svc::ServerOptions options = quiet_options();
  options.max_requests_per_connection = 2;
  TcpHarness harness(options);
  TestClient client = TestClient::connect_tcp(harness.port);
  ASSERT_TRUE(client.connected());
  client.send(bench_request_line("r0", "adfast") +
              bench_request_line("r1", "ebergen") +
              bench_request_line("r2", "adfast"));
  const std::vector<std::string> lines = client.read_all();
  // Both admitted responses, then the cap notice, then EOF — the third
  // request is never admitted.
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(id_of(lines[0]), "r0");
  EXPECT_EQ(id_of(lines[1]), "r1");
  EXPECT_TRUE(response_ok(lines[0]));
  EXPECT_TRUE(response_ok(lines[1]));
  EXPECT_FALSE(response_ok(lines[2]));
  EXPECT_NE(lines[2].find("request cap"), std::string::npos) << lines[2];
}

TEST(Server, UnixAndTcpListenersServeOneSharedCache) {
  const std::string socket_path =
      "/tmp/sitime_server_test_" + std::to_string(::getpid()) + ".sock";
  svc::AnalysisService service;
  svc::Server server(service, quiet_options());
  auto tcp_transport = std::make_unique<svc::TcpTransport>(
      svc::TcpTransport::Options{"127.0.0.1", 0});
  auto* tcp = tcp_transport.get();
  server.add_transport(std::move(tcp_transport));
  server.add_transport(
      std::make_unique<svc::UnixSocketTransport>(socket_path));
  server.start();

  TestClient over_tcp = TestClient::connect_tcp(tcp->bound_port());
  TestClient over_unix = TestClient::connect_unix(socket_path);
  ASSERT_TRUE(over_tcp.connected());
  ASSERT_TRUE(over_unix.connected());
  for (TestClient* client : {&over_tcp, &over_unix}) {
    client->send(bench_request_line("x", "adfast"));
    client->shutdown_write();
  }
  const std::vector<std::string> tcp_lines = over_tcp.read_all();
  const std::vector<std::string> unix_lines = over_unix.read_all();
  ASSERT_EQ(tcp_lines.size(), 1u);
  ASSERT_EQ(unix_lines.size(), 1u);
  EXPECT_TRUE(response_ok(tcp_lines[0])) << tcp_lines[0];
  EXPECT_TRUE(response_ok(unix_lines[0])) << unix_lines[0];
  EXPECT_EQ(report_of(tcp_lines[0]), report_of(unix_lines[0]));

  // One design, two transports, ONE flow run: the cache is shared.
  const svc::CacheStats stats = service.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits + stats.coalesced, 1);

  server.stop();
  server.wait();
}

TEST(Server, Ipv6LoopbackListenerServes) {
  svc::AnalysisService service;
  svc::Server server(service, quiet_options());
  auto transport = std::make_unique<svc::TcpTransport>(
      svc::TcpTransport::Options{"::1", 0});
  auto* tcp = transport.get();
  server.add_transport(std::move(transport));
  try {
    server.start();
  } catch (const Error& error) {
    GTEST_SKIP() << "no IPv6 loopback here: " << error.what();
  }
  TestClient client = TestClient::connect_tcp6(tcp->bound_port());
  ASSERT_TRUE(client.connected());
  client.send(bench_request_line("v6", "adfast"));
  client.shutdown_write();
  const std::vector<std::string> lines = client.read_all();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(response_ok(lines[0])) << lines[0];

  server.stop();
  server.wait();
}

// Sanitizer builds inflate wall times severalfold; timing assertions get
// a wider budget there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SITIME_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SITIME_TEST_SANITIZED 1
#endif
#endif

/// Sends the plug request and waits (bounded) until a worker has dequeued
/// it and entered the armed one-shot worker_stall. The fault point is
/// polled only after dequeue, so unlike a fixed sleep this guarantees the
/// plug is off the queue before the test sends its followers. A plug the
/// age valve sheds at dequeue (a scheduler hiccup under a parallel test
/// run) never stalls; its overloaded line is drained and it is resent.
void plug_worker(TestClient& plug, const svc::Server& server) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    const long long shed_before = server.requests_shed();
    plug.send(bench_request_line("plug", "adfast"));
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < give_up) {
      if (svc::FaultInjector::instance().fired(
              svc::FaultPoint::worker_stall) == 1)
        return;
      if (server.requests_shed() > shed_before) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    std::string shed;
    ASSERT_TRUE(plug.read_line(shed));
  }
  FAIL() << "the plug request never reached the worker stall";
}

TEST(Server, DeadlineExceededIsStructuredFastAndLeavesTheServerServing) {
  if (!base::fault_injection_compiled_in())
    GTEST_SKIP() << "built without SITIME_FAULTS";
  svc::ServerOptions options = quiet_options();
  options.admit = 1;  // one worker, so the probe queues behind the plug
  TcpHarness harness(options);

  // A one-shot worker_stall pins the single worker for ~40 ms while it
  // carries the plug request, so the deadline_ms=1 probe provably spends
  // more than its whole budget queued — the deadline counts from
  // arrival, queueing time spends it, and the worker answers without
  // starting the analysis. (A real slow design would race the test
  // machine's speed; the stall is deterministic.)
  TestClient plug = TestClient::connect_tcp(harness.port);
  TestClient probe = TestClient::connect_tcp(harness.port);
  ASSERT_TRUE(plug.connected());
  ASSERT_TRUE(probe.connected());
  svc::FaultScope stall(svc::FaultPoint::worker_stall, /*nth=*/1);
  ASSERT_NO_FATAL_FAILURE(plug_worker(plug, harness.server));
  const auto start = std::chrono::steady_clock::now();
  probe.send(
      "{\"id\":\"probe\",\"design\":{\"bench\":\"adfast\"},"
      "\"deadline_ms\":1}\n");

  std::string line;
  ASSERT_TRUE(probe.read_line(line));
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  EXPECT_EQ(id_of(line), "probe");
  EXPECT_FALSE(response_ok(line)) << line;
  EXPECT_NE(line.find("\"code\":\"deadline_exceeded\""), std::string::npos)
      << line;
#if defined(SITIME_TEST_SANITIZED)
  EXPECT_LT(elapsed_ms, 2000.0);
#else
  EXPECT_LT(elapsed_ms, 100.0);  // the acceptance bound
#endif
  ASSERT_TRUE(plug.read_line(line));
  EXPECT_TRUE(response_ok(line)) << line;  // the plug was never affected

  // The server keeps serving: a request on another connection succeeds,
  // and the stats counters report the deadline event.
  TestClient after = TestClient::connect_tcp(harness.port);
  ASSERT_TRUE(after.connected());
  after.send(bench_request_line("after", "adfast") +
             "{\"id\":\"stats\",\"stats\":true}\n");
  ASSERT_TRUE(after.read_line(line));
  EXPECT_EQ(id_of(line), "after");
  EXPECT_TRUE(response_ok(line)) << line;
  ASSERT_TRUE(after.read_line(line));
  EXPECT_NE(line.find("\"deadline_exceeded\":1"), std::string::npos)
      << line;
  EXPECT_NE(line.find("\"shed\":0"), std::string::npos) << line;
  EXPECT_NE(line.find("\"cancelled_subtasks\":"), std::string::npos)
      << line;
}

TEST(Server, QueueDepthWatermarkShedsWithAnOverloadedResponse) {
  if (!base::fault_injection_compiled_in())
    GTEST_SKIP() << "built without SITIME_FAULTS";
  svc::ServerOptions options = quiet_options();
  options.admit = 1;
  options.max_queue_depth = 1;
  TcpHarness harness(options);

  TestClient plug = TestClient::connect_tcp(harness.port);
  TestClient second = TestClient::connect_tcp(harness.port);
  TestClient third = TestClient::connect_tcp(harness.port);
  ASSERT_TRUE(plug.connected());
  ASSERT_TRUE(second.connected());
  ASSERT_TRUE(third.connected());

  // The stalled plug occupies the single worker; the next request fills
  // the one-deep queue; whichever of the two followers arrives last is
  // shed at admission with the structured overloaded line.
  svc::FaultScope stall(svc::FaultPoint::worker_stall, /*nth=*/1);
  ASSERT_NO_FATAL_FAILURE(plug_worker(plug, harness.server));
  second.send(bench_request_line("q1", "adfast"));
  third.send(bench_request_line("q2", "adfast"));

  std::string second_line, third_line;
  ASSERT_TRUE(second.read_line(second_line));
  ASSERT_TRUE(third.read_line(third_line));
  const bool second_shed =
      second_line.find("\"code\":\"overloaded\"") != std::string::npos;
  const bool third_shed =
      third_line.find("\"code\":\"overloaded\"") != std::string::npos;
  EXPECT_TRUE(second_shed || third_shed) << second_line << "\n"
                                         << third_line;
  EXPECT_FALSE(second_shed && third_shed)
      << "both followers shed with a one-deep queue";
  EXPECT_TRUE(second_shed ? response_ok(third_line)
                          : response_ok(second_line));
  EXPECT_EQ(harness.server.requests_shed(), 1);

  // A shed connection is still a connection: the same client's next
  // request is served once the pressure is gone.
  std::string line;
  ASSERT_TRUE(plug.read_line(line));
  EXPECT_TRUE(response_ok(line));
  TestClient& shed_client = second_shed ? second : third;
  shed_client.send(bench_request_line("again", "ebergen"));
  ASSERT_TRUE(shed_client.read_line(line));
  EXPECT_EQ(id_of(line), "again");
  EXPECT_TRUE(response_ok(line)) << line;
}

TEST(Server, QueueAgeValveShedsStaleRequestsAtDequeue) {
  if (!base::fault_injection_compiled_in())
    GTEST_SKIP() << "built without SITIME_FAULTS";
  svc::ServerOptions options = quiet_options();
  options.admit = 1;
  options.max_queue_ms = 2;
  TcpHarness harness(options);

  TestClient plug = TestClient::connect_tcp(harness.port);
  TestClient stale = TestClient::connect_tcp(harness.port);
  ASSERT_TRUE(plug.connected());
  ASSERT_TRUE(stale.connected());

  // The follower queues behind the stalled (~40 ms) plug, so by the time
  // the worker reaches it, it has aged far past the 2 ms valve.
  svc::FaultScope stall(svc::FaultPoint::worker_stall, /*nth=*/1);
  ASSERT_NO_FATAL_FAILURE(plug_worker(plug, harness.server));
  const long long shed_before = harness.server.requests_shed();
  stale.send(bench_request_line("stale", "adfast"));

  std::string line;
  ASSERT_TRUE(stale.read_line(line));
  EXPECT_EQ(id_of(line), "stale");
  EXPECT_NE(line.find("\"code\":\"overloaded\""), std::string::npos)
      << line;
  EXPECT_NE(line.find("waited"), std::string::npos) << line;
  EXPECT_EQ(harness.server.requests_shed(), shed_before + 1);
  ASSERT_TRUE(plug.read_line(line));
  EXPECT_TRUE(response_ok(line)) << line;

  // With the pressure gone a request passes the valve (a couple of tries
  // tolerate a scheduler hiccup inflating an idle dequeue past 2 ms).
  bool served = false;
  for (int attempt = 0; attempt < 3 && !served; ++attempt) {
    stale.send(bench_request_line("retry", "adfast"));
    ASSERT_TRUE(stale.read_line(line));
    served = response_ok(line);
  }
  EXPECT_TRUE(served) << line;
}

TEST(Server, EmbeddedNulInDesignTextGetsAStructuredErrorAndSurvives) {
  TcpHarness harness;
  TestClient client = TestClient::connect_tcp(harness.port);
  ASSERT_TRUE(client.connected());
  // A JSON \u0000 escape decodes to a raw NUL inside the design text — the request
  // must fail structured, and the connection must keep serving.
  client.send(
      "{\"id\":\"nul\",\"design\":{\"astg\":\"a\\u0000b\","
      "\"name\":\"nul-design\"}}\n" +
      bench_request_line("after", "adfast"));
  client.shutdown_write();
  const std::vector<std::string> lines = client.read_all();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(id_of(lines[0]), "nul");
  EXPECT_FALSE(response_ok(lines[0])) << lines[0];
  EXPECT_NE(lines[0].find("\"code\":\"bad_request\""), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("NUL"), std::string::npos) << lines[0];
  EXPECT_EQ(id_of(lines[1]), "after");
  EXPECT_TRUE(response_ok(lines[1])) << lines[1];
}

TEST(Server, HugeDeadlineServesAndOutOfRangeJobsAreBadRequests) {
  TcpHarness harness;
  TestClient client = TestClient::connect_tcp(harness.port);
  ASSERT_TRUE(client.connected());
  // 1e13 ms would overflow the steady clock; the deadline saturates, so
  // the request is served instead of failing as already expired. A jobs
  // value outside [0, INT_MAX] is rejected instead of wrapping.
  client.send(
      "{\"id\":\"far\",\"design\":{\"bench\":\"adfast\"},"
      "\"deadline_ms\":10000000000000}\n"
      "{\"id\":\"wide\",\"design\":{\"bench\":\"adfast\"},"
      "\"jobs\":4294967297}\n"
      "{\"id\":\"negative\",\"design\":{\"bench\":\"adfast\"},"
      "\"jobs\":-1}\n" +
      bench_request_line("after", "adfast"));
  client.shutdown_write();
  const std::vector<std::string> lines = client.read_all();
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(id_of(lines[0]), "far");
  EXPECT_TRUE(response_ok(lines[0])) << lines[0];
  for (const int at : {1, 2}) {
    EXPECT_FALSE(response_ok(lines[at])) << lines[at];
    EXPECT_NE(lines[at].find("\"code\":\"bad_request\""), std::string::npos)
        << lines[at];
    EXPECT_NE(lines[at].find("'jobs'"), std::string::npos) << lines[at];
  }
  EXPECT_EQ(id_of(lines[3]), "after");
  EXPECT_TRUE(response_ok(lines[3])) << lines[3];
}

TEST(Server, TruncatedUtf8InDesignTextGetsAStructuredErrorAndSurvives) {
  TcpHarness harness;
  TestClient client = TestClient::connect_tcp(harness.port);
  ASSERT_TRUE(client.connected());
  // A raw 0xC3 lead byte with no continuation passes the JSON string
  // layer unvalidated; the request decode must catch it.
  client.send("{\"id\":\"trunc\",\"design\":{\"astg\":\"a\xC3x\","
              "\"name\":\"trunc-design\"}}\n" +
              bench_request_line("after", "adfast"));
  client.shutdown_write();
  const std::vector<std::string> lines = client.read_all();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(id_of(lines[0]), "trunc");
  EXPECT_FALSE(response_ok(lines[0])) << lines[0];
  EXPECT_NE(lines[0].find("\"code\":\"bad_request\""), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("UTF-8"), std::string::npos) << lines[0];
  EXPECT_EQ(id_of(lines[1]), "after");
  EXPECT_TRUE(response_ok(lines[1])) << lines[1];
}

TEST(Server, DroppedResponseWriteAffectsOnlyThatResponse) {
  if (!base::fault_injection_compiled_in())
    GTEST_SKIP() << "built without SITIME_FAULTS";
  TcpHarness harness;
  TestClient client = TestClient::connect_tcp(harness.port);
  ASSERT_TRUE(client.connected());
  // Warm the design (and finish all writes) before arming the fault.
  client.send(bench_request_line("warm", "adfast"));
  std::string line;
  ASSERT_TRUE(client.read_line(line));
  ASSERT_TRUE(response_ok(line));
  {
    svc::FaultScope drop(svc::FaultPoint::transport_write, /*nth=*/1);
    client.send(bench_request_line("d1", "adfast") +
                bench_request_line("d2", "adfast"));
    // d1's response write was dropped on the floor; d2's went through
    // unaffected, byte-identical to the warm response's report.
    ASSERT_TRUE(client.read_line(line));
    EXPECT_EQ(id_of(line), "d2") << line;
    EXPECT_TRUE(response_ok(line)) << line;
  }
  client.send(bench_request_line("d3", "adfast"));
  ASSERT_TRUE(client.read_line(line));
  EXPECT_EQ(id_of(line), "d3");
  EXPECT_TRUE(response_ok(line)) << line;
}

// ---- observability ---------------------------------------------------------

TEST(Server, TracedRequestNamesEveryPhaseAndKeepsReportBytesIdentical) {
  TcpHarness harness;
  TestClient client = TestClient::connect_tcp(harness.port);
  ASSERT_TRUE(client.connected());
  client.send("{\"id\":\"t0\",\"design\":{\"bench\":\"ebergen\"},"
              "\"trace_spans\":true}\n");
  std::string traced;
  ASSERT_TRUE(client.read_line(traced));
  ASSERT_TRUE(response_ok(traced)) << traced;

  const svc::JsonValue json = svc::parse_json(traced);
  const double wall = json.get("seconds").as_number();
  const svc::JsonValue& spans = json.get("spans");
  ASSERT_FALSE(spans.is_null()) << traced;
  const std::vector<svc::JsonValue>& items = spans.as_array();
  ASSERT_FALSE(items.empty());

  // The server's own queue-wait span opens the trace at t=0; every
  // phase the service reports as run appears as a span; the top-level
  // spans never sum past the wall time (gaps are unrepresented, so the
  // sum is a lower bound on the wall).
  EXPECT_EQ(items[0].get("name").as_string(), "queue_wait");
  EXPECT_EQ(items[0].get("start").as_number(), 0.0);
  std::vector<std::string> names;
  double top_level_total = 0.0;
  for (const svc::JsonValue& span : items) {
    names.push_back(span.get("name").as_string());
    if (span.get("in").is_null())
      top_level_total += span.get("seconds").as_number();
  }
  const std::string phases_run = json.get("phases_run").as_string();
  EXPECT_EQ(phases_run, "decompose+verify+derive");
  std::size_t begin = 0;
  while (begin < phases_run.size()) {
    std::size_t end = phases_run.find('+', begin);
    if (end == std::string::npos) end = phases_run.size();
    const std::string phase = phases_run.substr(begin, end - begin);
    EXPECT_NE(std::find(names.begin(), names.end(), phase), names.end())
        << "phase " << phase << " ran but has no span: " << traced;
    begin = end + 1;
  }
  const double queue_wait = items[0].get("seconds").as_number();
  EXPECT_LE(top_level_total, wall + queue_wait + 1e-9);

  // Tracing is envelope-only: the report bytes match a fresh untraced
  // run on a separate server (separate cache, so genuinely re-derived).
  TcpHarness reference;
  TestClient ref_client = TestClient::connect_tcp(reference.port);
  ASSERT_TRUE(ref_client.connected());
  ref_client.send(bench_request_line("u0", "ebergen"));
  std::string untraced;
  ASSERT_TRUE(ref_client.read_line(untraced));
  ASSERT_TRUE(response_ok(untraced)) << untraced;
  const std::size_t report_at = traced.find("\"report\":");
  const std::size_t spans_at = traced.find(",\"spans\":");
  ASSERT_NE(report_at, std::string::npos);
  ASSERT_NE(spans_at, std::string::npos);
  ASSERT_GT(spans_at, report_at);
  const std::string traced_report =
      traced.substr(report_at + 9, spans_at - report_at - 9);
  EXPECT_EQ(traced_report, report_of(untraced));
}

TEST(Server, StatsControlRequestReportsUptimeAndQueueState) {
  TcpHarness harness;
  TestClient client = TestClient::connect_tcp(harness.port);
  ASSERT_TRUE(client.connected());
  // The snapshot goes out only after the analysis response arrived: in
  // one burst the stats line could be handled while "w" is still in
  // flight on another worker and see an empty cache.
  std::string line;
  client.send(bench_request_line("w", "adfast"));
  ASSERT_TRUE(client.read_line(line));
  ASSERT_TRUE(response_ok(line)) << line;
  client.send("{\"id\":\"s\",\"stats\":true}\n");
  ASSERT_TRUE(client.read_line(line));
  ASSERT_TRUE(response_ok(line)) << line;
  const svc::JsonValue json = svc::parse_json(line);
  EXPECT_GE(json.get("uptime_seconds").as_number(), 0.0);
  // Both requests were answered before the snapshot: the queue is idle.
  EXPECT_EQ(json.get("queue_depth").as_number(), 0.0);
  EXPECT_EQ(json.get("queue_age_ms").as_number(), 0.0);
  // The legacy stats block stays intact underneath the new fields.
  const svc::JsonValue& stats = json.get("stats");
  ASSERT_FALSE(stats.is_null());
  EXPECT_EQ(stats.get("misses").as_number(), 1.0);
}

TEST(Server, MetricsControlRequestRendersPrometheusText) {
  TcpHarness harness;
  TestClient client = TestClient::connect_tcp(harness.port);
  ASSERT_TRUE(client.connected());
  // One cold run and one warm repeat populate the phase histograms and
  // both cache outcomes. The repeat goes out only after the cold
  // response arrived — in one burst the two could coalesce in flight
  // and the repeat would count as "coalesced", not "hit".
  std::string line;
  client.send(bench_request_line("c", "adfast"));
  ASSERT_TRUE(client.read_line(line));
  ASSERT_TRUE(response_ok(line)) << line;
  client.send(bench_request_line("h", "adfast"));
  ASSERT_TRUE(client.read_line(line));
  ASSERT_TRUE(response_ok(line)) << line;
  // And the scrape goes out alone too: in a burst it could render the
  // registry while "h" is still in flight on another worker.
  client.send("{\"id\":\"m\",\"metrics\":true}\n");
  ASSERT_TRUE(client.read_line(line));
  ASSERT_TRUE(response_ok(line)) << line;
  const svc::JsonValue json = svc::parse_json(line);
  const std::string text = json.get("metrics").as_string();

  // The exposition is real Prometheus text: typed families with the
  // counters this traffic must have produced.
  EXPECT_NE(text.find("# TYPE sitime_design_cache_requests_total counter"),
            std::string::npos);
  EXPECT_NE(
      text.find("sitime_design_cache_requests_total{outcome=\"hit\"} 1\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("sitime_design_cache_requests_total{outcome=\"miss\"} 1\n"),
      std::string::npos);
  EXPECT_NE(text.find("# TYPE sitime_phase_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE sitime_queue_wait_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("sitime_queue_wait_seconds_count 3\n"),
            std::string::npos)
      << "every handled line (control requests included) waits in the "
         "admission queue";
  EXPECT_NE(text.find("sitime_uptime_seconds"), std::string::npos);
  EXPECT_NE(text.find("sitime_connections_total{outcome=\"accepted\"} 1\n"),
            std::string::npos);

  // {"metrics": false} is rejected like {"stats": false}.
  client.send("{\"id\":\"bad\",\"metrics\":false}\n");
  ASSERT_TRUE(client.read_line(line));
  EXPECT_FALSE(response_ok(line)) << line;
}

TEST(Server, StartRequiresATransportAndStopsCleanlyWithoutTraffic) {
  svc::AnalysisService service;
  {
    svc::Server empty(service, quiet_options());
    EXPECT_THROW(empty.start(), Error);
  }
  // Start/stop with zero connections must not hang or leak threads.
  TcpHarness harness;
  EXPECT_EQ(harness.server.active_connections(), 0);
  EXPECT_EQ(harness.server.connections_accepted(), 0);
}

}  // namespace
}  // namespace sitime
