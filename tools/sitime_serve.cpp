// sitime_serve — resident analysis server: flag parsing around
// svc::Server + svc::AnalysisService.
//
// The serving machinery (transports, shared bounded admission,
// per-connection response ordering, the {"stats": true} control path,
// graceful shutdown) lives in src/svc/server; the NDJSON request and
// response schema is documented there and in tools/README.md.
//
// Transports (combinable; no flag = stdin/stdout):
//   --socket PATH        Unix stream socket
//   --listen HOST:PORT   TCP (IPv4/IPv6; [addr]:port for IPv6 literals;
//                        port 0 = kernel-assigned, printed on startup);
//                        repeatable
// A Unix socket and TCP listener(s) can serve simultaneously from one
// process, sharing one design cache. Socket servers drain gracefully on
// SIGINT/SIGTERM: new connections are refused, in-flight requests finish
// and their responses are emitted before exit.
//
// Options:
//   --jobs N             default per-request (component × gate)
//                        parallelism (0 = one per hardware thread,
//                        default 1)
//   --admit N            concurrent requests in flight, across all
//                        connections (default 4)
//   --cache-mb N         design-cache byte budget in MiB (default 256;
//                        0 disables caching, single-flight still applies)
//   --cache-dir DIR      persistent warm store: terminal design entries
//                        are spilled to DIR as they complete (they
//                        survive a process crash; after a power loss an
//                        entry may be recomputed) and reloaded at boot,
//                        so a restarted server serves the same designs
//                        as pure hits with byte-identical reports;
//                        corrupted or stale-version files are deleted
//                        and their designs run cold (see tools/README.md)
//   --warm               preload the embedded benchmark suite
//   --max-connections N  concurrent connection limit (default 256;
//                        0 = unlimited)
//   --max-requests N     per-connection request cap, a DoS backstop
//                        (default 0 = unlimited)
//   --idle-timeout-ms N  close socket connections idle this long
//                        (default 0 = never)
//   --write-timeout-ms N drop a response blocked this long on a client
//                        that stopped reading (default 30000; 0 = block
//                        forever)
//   --max-line-bytes N   longest accepted request line (default 4 MiB)
//   --max-queue-ms N     shed requests that waited longer than this in
//                        the shared admission queue with an immediate
//                        "overloaded" response (default 0 = never)
//   --max-queue-depth N  shed requests arriving while this many are
//                        already queued (default 0 = unbounded)
//   --slow-ms N          log the span breakdown of any request that took
//                        at least N ms (queue wait included) to stderr
//                        (default 0 = off)
//   --metrics            one-shot: print the Prometheus metric catalog
//                        (after an optional --warm) to stdout and exit —
//                        the same text a running server returns for the
//                        {"metrics": true} control request
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/error.hpp"
#include "svc/analysis_service.hpp"
#include "svc/server.hpp"
#include "svc/transport.hpp"

namespace {

struct ServeOptions {
  int jobs = 1;
  std::size_t cache_bytes = 256u << 20;
  std::string cache_dir;
  bool warm = false;
  bool metrics_once = false;
  std::string socket_path;
  std::vector<std::string> listen_endpoints;
  sitime::svc::ServerOptions server;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: sitime_serve [--jobs N] [--admit N] [--cache-mb N]\n"
      "                    [--cache-dir DIR] [--warm]\n"
      "                    [--socket PATH] [--listen HOST:PORT]...\n"
      "                    [--max-connections N] [--max-requests N]\n"
      "                    [--idle-timeout-ms N] [--write-timeout-ms N]\n"
      "                    [--max-line-bytes N] [--max-queue-ms N]\n"
      "                    [--max-queue-depth N] [--slow-ms N] [--metrics]\n"
      "reads one JSON request per line on stdin (or per socket/TCP\n"
      "connection), writes one JSON response per line; see\n"
      "tools/README.md\n");
  return 2;
}

// Graceful-shutdown plumbing: a signal handler cannot call
// svc::Server::stop() itself (not async-signal-safe), so it writes one
// byte into a self-pipe that a watcher thread blocks on. The flag lets
// phases that run before the server exists (the --warm preload) observe
// the shutdown request too.
int g_signal_pipe[2] = {-1, -1};
std::atomic<bool> g_shutdown{false};

void notify_signal_pipe(int) {
  g_shutdown.store(true, std::memory_order_relaxed);
  const char byte = 0;
  [[maybe_unused]] const ssize_t wrote =
      ::write(g_signal_pipe[1], &byte, 1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sitime;
  ServeOptions options;
  options.server.max_connections = 256;
  options.server.log_prefix = "sitime_serve";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (++i >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[i];
    };
    auto int_value = [&](const char* flag, long min, long max) -> long {
      const std::string text = value(flag);
      char* end = nullptr;
      const long parsed = std::strtol(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0' || parsed < min ||
          parsed > max) {
        std::fprintf(stderr, "error: %s needs an integer in [%ld, %ld]\n",
                     flag, min, max);
        std::exit(2);
      }
      return parsed;
    };
    if (arg == "--jobs" || arg == "-j") {
      options.jobs = static_cast<int>(int_value("--jobs", 0, 4096));
    } else if (arg == "--admit") {
      options.server.admit =
          static_cast<int>(int_value("--admit", 1, 4096));
    } else if (arg == "--cache-mb") {
      options.cache_bytes = static_cast<std::size_t>(
                                int_value("--cache-mb", 0, 1 << 20))
                            << 20;
    } else if (arg == "--cache-dir") {
      options.cache_dir = value("--cache-dir");
    } else if (arg == "--warm") {
      options.warm = true;
    } else if (arg == "--socket") {
      options.socket_path = value("--socket");
    } else if (arg == "--listen") {
      options.listen_endpoints.push_back(value("--listen"));
    } else if (arg == "--max-connections") {
      options.server.max_connections =
          static_cast<int>(int_value("--max-connections", 0, 1 << 20));
    } else if (arg == "--max-requests") {
      options.server.max_requests_per_connection =
          int_value("--max-requests", 0, 1L << 40);
    } else if (arg == "--idle-timeout-ms") {
      options.server.idle_timeout_ms =
          static_cast<int>(int_value("--idle-timeout-ms", 0, 1 << 30));
    } else if (arg == "--write-timeout-ms") {
      options.server.write_timeout_ms =
          static_cast<int>(int_value("--write-timeout-ms", 0, 1 << 30));
    } else if (arg == "--max-line-bytes") {
      options.server.max_line_bytes = static_cast<std::size_t>(
          int_value("--max-line-bytes", 0, 1L << 32));
    } else if (arg == "--max-queue-ms") {
      options.server.max_queue_ms =
          static_cast<int>(int_value("--max-queue-ms", 0, 1 << 30));
    } else if (arg == "--max-queue-depth") {
      options.server.max_queue_depth =
          static_cast<int>(int_value("--max-queue-depth", 0, 1 << 30));
    } else if (arg == "--slow-ms") {
      options.server.slow_ms =
          static_cast<int>(int_value("--slow-ms", 0, 1 << 30));
    } else if (arg == "--metrics") {
      options.metrics_once = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      return usage();
    }
  }

  const bool has_listener =
      !options.socket_path.empty() || !options.listen_endpoints.empty();

  // Socket servers run until a signal asks for the graceful drain; a
  // stdio server simply ends at stdin EOF (its reader cannot be
  // unblocked, so no handler is installed). The handlers go in BEFORE
  // the --warm preload, so a shutdown signal during warm stops between
  // designs instead of loading the rest of the suite first — the byte it
  // writes stays in the self-pipe, so a signal at any later point (even
  // before the watcher thread exists) still reaches server.stop().
  const bool handle_signals = has_listener && ::pipe(g_signal_pipe) == 0;
  if (handle_signals) {
    std::signal(SIGINT, notify_signal_pipe);
    std::signal(SIGTERM, notify_signal_pipe);
  }

  svc::ServiceOptions service_options;
  service_options.cache_budget_bytes = options.cache_bytes;
  service_options.jobs = options.jobs;
  service_options.cache_dir = options.cache_dir;
  svc::AnalysisService service(service_options);

  // Warm-start from the persistent store BEFORE --warm: designs already
  // on disk come back as pure hits, and the suite preload then computes
  // (and spills) only what the store was missing.
  if (!options.cache_dir.empty()) {
    const svc::DiskStore* store = service.disk_store();
    if (store == nullptr || !store->ok()) {
      std::fprintf(stderr, "sitime_serve: --cache-dir unusable: %s\n",
                   store != nullptr ? store->init_error().c_str()
                                    : "store not created");
      return 1;
    }
    const int loaded = service.warm_from_disk();
    const svc::CacheStats stats = service.stats();
    std::fprintf(stderr,
                 "sitime_serve: cache-dir '%s' loaded %d designs "
                 "(skipped %lld, corrupt %lld)\n",
                 options.cache_dir.c_str(), loaded, stats.disk_load_skips,
                 stats.disk_load_corrupt);
  }

  if (options.warm) {
    const int loaded = service.warm_benchmark_suite(
        handle_signals ? &g_shutdown : nullptr);
    const svc::CacheStats stats = service.stats();
    std::fprintf(stderr,
                 "sitime_serve: warmed %d designs (%d resident, %zu bytes)\n",
                 loaded, stats.entries, stats.bytes);
    if (g_shutdown.load(std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "sitime_serve: shutdown requested during warm; exiting\n");
      return 0;
    }
  }

  svc::Server server(service, options.server);

  // One-shot metric catalog: the Server's construction registered the
  // admission/queue metrics, so this prints the same families a running
  // server exposes through {"metrics": true} — warm first (--warm) for a
  // populated snapshot.
  if (options.metrics_once) {
    std::fputs(service.metrics().render_prometheus().c_str(), stdout);
    return 0;
  }

  try {
    if (!options.socket_path.empty())
      server.add_transport(
          std::make_unique<svc::UnixSocketTransport>(options.socket_path));
    for (const std::string& endpoint : options.listen_endpoints)
      server.add_transport(std::make_unique<svc::TcpTransport>(
          svc::parse_listen_endpoint(endpoint)));
    if (!has_listener)
      server.add_transport(std::make_unique<svc::StdioTransport>());
    server.start();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sitime_serve: %s\n", error.what());
    return 1;
  }

  std::thread signal_watcher;
  if (handle_signals) {
    signal_watcher = std::thread([&server] {
      char byte;
      while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
      }
      server.stop();
    });
  }

  server.wait();
  if (signal_watcher.joinable()) {
    notify_signal_pipe(0);  // wake the watcher if no signal ever fired
    signal_watcher.join();
  }
  return 0;
}
