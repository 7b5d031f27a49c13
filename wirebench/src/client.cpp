// wirebench_client — closed-loop TCP load generator for sitime_serve.
//
//   wirebench_client --workload NAME --seed N --seconds S --server BINARY
//                    --work DIR --golden DIR [--trace]
//
// One run: build the workload's request streams from the seed, compute
// the in-process reference for every design they name (checked against
// the committed golden digests on the default seed), launch the server
// several times to time set-up, then drive Workload::kConnections
// connections against the last launch for S seconds. Every connection
// sends its next request only after the previous response line arrived.
// Prints one JSON object (correct, attempted, failed, metrics, info) as
// the last line of stdout; wirebench/run.py selects the metrics the
// benchmark reports. --trace adds the svc.server layer, measured from the
// client side: client latency minus the service time the response
// reports, and the server's CPU seconds from /proc.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "metric_json.hpp"
#include "reference.hpp"
#include "svc/json.hpp"
#include "workload.hpp"

#ifndef WIREBENCH_BUILD_TYPE
#define WIREBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using Clock = std::chrono::steady_clock;
using wirebench::Expected;
using wirebench::Line;
using wirebench::Workload;

/// Server launches per run; set-up time is their median.
constexpr int kSetups = 21;
/// No response may take longer than this; the connection is then broken.
constexpr int kResponseTimeoutSeconds = 60;

/// The running server, so a fatal error still stops and reaps it.
std::atomic<pid_t> g_server_pid{-1};

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "wirebench_client: %s\n", message.c_str());
  const pid_t server = g_server_pid.exchange(-1);
  if (server > 0) {
    ::kill(server, SIGKILL);
    ::waitpid(server, nullptr, 0);
  }
  std::exit(2);
}

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double percentile(std::vector<double> values, double share) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double at = share * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(at);
  const std::size_t high = std::min(low + 1, values.size() - 1);
  return values[low] + (values[high] - values[low]) * (at - low);
}

// ---- server process ---------------------------------------------------------

/// One sitime_serve child with its stderr drained by a thread. The
/// destructor stops it (SIGTERM, then SIGKILL) and reaps it.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary,
                const std::vector<std::string>& args) {
    std::vector<std::string> argv_text{binary};
    argv_text.insert(argv_text.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& arg : argv_text) argv.push_back(arg.data());
    argv.push_back(nullptr);
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) die("pipe failed");
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) die("fork failed");
    if (pid_ == 0) {
      // Never outlive the benchmark, even if it is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(pipe_fds[1], STDERR_FILENO);
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(pipe_fds[1]);
    g_server_pid.store(pid_);
    drain_ = std::thread([this, fd = pipe_fds[0]] { drain(fd); });
  }

  ~ServerProcess() {
    stop();
    if (drain_.joinable()) drain_.join();
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }

  /// The TCP port from the startup line; dies if the server exits first.
  int wait_port() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!ready_.wait_for(lock, std::chrono::seconds(60),
                         [this] { return port_ > 0 || eof_; }) ||
        port_ <= 0)
      die("server did not start listening: " + tail_);
    return port_;
  }

  /// SIGTERM (graceful drain), SIGKILL after 10 s. Returns the exit
  /// status, or -1 when it had to be killed.
  int stop() {
    if (pid_ <= 0) return status_;
    pid_t registered = pid_;
    g_server_pid.compare_exchange_strong(registered, -1);
    ::kill(pid_, SIGTERM);
    const auto give_up = Clock::now() + std::chrono::seconds(10);
    int status = 0;
    while (true) {
      const pid_t done = ::waitpid(pid_, &status, WNOHANG);
      if (done == pid_) break;
      if (done < 0 && errno != EINTR) break;
      if (Clock::now() > give_up) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        status = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    status_ = status == -1 ? -1
              : WIFEXITED(status) ? WEXITSTATUS(status)
                                  : 128 + WTERMSIG(status);
    return status_;
  }

 private:
  void drain(int fd) {
    std::string pending;
    char buffer[4096];
    while (true) {
      const ssize_t got = ::read(fd, buffer, sizeof(buffer));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      pending.append(buffer, static_cast<std::size_t>(got));
      std::size_t newline;
      while ((newline = pending.find('\n')) != std::string::npos) {
        const std::string line = pending.substr(0, newline);
        pending.erase(0, newline + 1);
        std::lock_guard<std::mutex> lock(mutex_);
        tail_ = line;
        const auto at = line.find("listening on tcp ");
        if (at != std::string::npos && port_ <= 0) {
          port_ = std::atoi(line.c_str() + line.rfind(':') + 1);
          ready_.notify_all();
        }
      }
    }
    ::close(fd);
    std::lock_guard<std::mutex> lock(mutex_);
    eof_ = true;
    ready_.notify_all();
  }

  pid_t pid_ = -1;
  int status_ = -1;
  std::mutex mutex_;
  std::condition_variable ready_;
  int port_ = -1;
  bool eof_ = false;
  std::string tail_;  // last stderr line, for diagnostics
  std::thread drain_;
};

// ---- connection -------------------------------------------------------------

class Connection {
 public:
  explicit Connection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) die("socket failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval timeout{kResponseTimeoutSeconds, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(static_cast<std::uint16_t>(port));
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                  sizeof(address)) != 0)
      die("connect to 127.0.0.1:" + std::to_string(port) + " failed");
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool send_all(const std::string& text) {
    std::size_t sent = 0;
    while (sent < text.size()) {
      const ssize_t n = ::send(fd_, text.data() + sent, text.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next response line without its '\n'; valid until the next call.
  bool read_line(std::string_view& line) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
    std::size_t scanned = 0;
    while (true) {
      const void* newline = std::memchr(buffer_.data() + scanned, '\n',
                                        buffer_.size() - scanned);
      if (newline != nullptr) {
        const auto length = static_cast<std::size_t>(
            static_cast<const char*>(newline) - buffer_.data());
        line = std::string_view(buffer_.data(), length);
        consumed_ = length + 1;
        return true;
      }
      scanned = buffer_.size();
      const std::size_t old_size = buffer_.size();
      buffer_.resize(old_size + 65536);
      const ssize_t got = ::recv(fd_, buffer_.data() + old_size, 65536, 0);
      if (got < 0 && errno == EINTR) {
        buffer_.resize(old_size);
        continue;
      }
      if (got <= 0) {
        buffer_.resize(old_size);
        return false;
      }
      buffer_.resize(old_size + static_cast<std::size_t>(got));
    }
  }

  std::string request(const std::string& text) {
    std::string_view line;
    if (!send_all(text) || !read_line(line)) return "";
    return std::string(line);
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t consumed_ = 0;
};

// ---- response checking ------------------------------------------------------

std::string_view string_field(std::string_view line, std::string_view key) {
  const auto at = line.find(key);
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + key.size();
  const auto end = line.find('"', begin);
  return end == std::string_view::npos ? std::string_view{}
                                       : line.substr(begin, end - begin);
}

struct Checked {
  bool ok = false;       // "ok": true
  bool correct = false;  // verdict and report match the reference
  bool hit = false;      // "cache": "hit"
  double seconds = 0.0;  // service time the response reports
};

/// Checks one response line against the reference, touching only the few
/// fields it needs (the load generator must stay cheap next to a hit).
Checked check_response(std::string_view line, const Line& request,
                       const Expected& expected) {
  Checked out;
  out.ok = line.find(",\"ok\":true,") != std::string_view::npos;
  if (!out.ok) return out;
  out.hit = string_field(line, "\"cache\":\"") == "hit";
  const auto seconds = line.find("\"seconds\":");
  if (seconds != std::string_view::npos)
    out.seconds = std::strtod(line.data() + seconds + 10, nullptr);
  const bool si =
      line.find("\"speed_independent\":true") != std::string_view::npos;
  const std::string_view offender =
      si ? std::string_view{} : string_field(line, "\"offender\":\"");
  std::uint64_t digest = 0;
  const auto report = line.find(",\"report\":");
  if (report != std::string_view::npos) {
    const std::size_t begin = report + 10;
    const auto end = line.rfind(",\"cache_stats\":");
    if (end == std::string_view::npos || end < begin) return out;
    digest = wirebench::fnv1a64(line.substr(begin, end - begin));
  }
  const bool want_report = request.derive && expected.offender.empty();
  out.correct = expected.ok && offender == expected.offender &&
                digest == (want_report ? expected.digest : 0);
  return out;
}

// ---- the timed loop ---------------------------------------------------------

/// One answered request: when its response completed (seconds into the
/// window), how long it took, and whether it counts as an ok response.
struct Sample {
  double done_s = 0.0;
  double latency_ms = 0.0;
  bool ok = false;
};

struct ConnectionResult {
  std::vector<Sample> samples;
  std::vector<double> overhead_ms;  // latency minus reported service time
  long long attempted = 0;
  long long failed = 0;
  long long not_hit = 0;
  std::vector<char> sent;  // per design: sent at least once
  Clock::time_point finished;
  bool exhausted = false;
  std::string error;
};

void drive(int connection, Workload& workload,
           const std::vector<Expected>& expected,
           const std::vector<char>& suspect, int port,
           Clock::time_point start, Clock::time_point deadline,
           std::atomic<bool>& stop, ConnectionResult& result) {
  Connection socket(port);
  result.samples.reserve(1 << 20);
  result.overhead_ms.reserve(1 << 20);
  result.sent.assign(workload.designs.size(), 0);
  std::this_thread::sleep_until(start);
  std::string_view response;
  while (!stop.load(std::memory_order_relaxed) && Clock::now() < deadline) {
    const int index = workload.next(connection);
    if (index < 0) {
      result.exhausted = true;
      stop.store(true);
      break;
    }
    const Line& line = workload.lines[index];
    const auto sent_at = Clock::now();
    const bool answered =
        socket.send_all(line.text) && socket.read_line(response);
    const auto done_at = Clock::now();
    const double latency_ms = seconds_between(sent_at, done_at) * 1e3;
    ++result.attempted;
    result.sent[line.design] = 1;
    if (!answered) {
      ++result.failed;
      result.error = "connection lost or response timed out";
      break;
    }
    result.samples.push_back(
        Sample{seconds_between(start, done_at), latency_ms, false});
    const Checked checked =
        check_response(response, line, expected[line.design]);
    if (!checked.ok || !checked.correct || suspect[line.design]) {
      ++result.failed;
      if (result.error.empty())
        result.error = "mismatch on " + workload.designs[line.design].name +
                       ": " + std::string(response.substr(0, 300));
      continue;
    }
    result.samples.back().ok = true;
    if (!checked.hit) ++result.not_hit;
    result.overhead_ms.push_back(latency_ms - checked.seconds * 1e3);
  }
  result.finished = Clock::now();
}

/// Per-slice statistics of a run. Responses are cut, in completion order,
/// into consecutive slices of at least kSliceSamples (so a slice's 99th
/// percentile has ten samples beyond it); the run reports the median over
/// slices, which a burst of interference from outside the benchmark moves
/// less than it moves a whole-window statistic.
constexpr std::size_t kSliceSamples = 1000;

struct Slices {
  std::vector<double> throughput_rps, p50_ms, p99_ms;
};

Slices slice(std::vector<Sample> samples) {
  Slices out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.done_s < b.done_s;
            });
  const std::size_t n = samples.size();
  const std::size_t count = std::max<std::size_t>(1, n / kSliceSamples);
  double begin_s = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t from = i * n / count;
    const std::size_t to = (i + 1) * n / count;
    std::vector<double> latency;
    long long ok = 0;
    for (std::size_t j = from; j < to; ++j) {
      latency.push_back(samples[j].latency_ms);
      ok += samples[j].ok ? 1 : 0;
    }
    const double end_s = samples[to - 1].done_s;
    out.throughput_rps.push_back(
        end_s > begin_s ? static_cast<double>(ok) / (end_s - begin_s) : 0.0);
    out.p50_ms.push_back(percentile(latency, 0.5));
    out.p99_ms.push_back(percentile(latency, 0.99));
    begin_s = end_s;
  }
  return out;
}

// ---- /proc ------------------------------------------------------------------

double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

double cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::istringstream fields(text.substr(text.rfind(')') + 2));
  std::string field;
  double ticks = 0.0;
  // After the command name: state is field 3, utime 14, stime 15.
  for (int index = 3; index <= 15 && fields >> field; ++index)
    if (index >= 14) ticks += std::strtod(field.c_str(), nullptr);
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// ---- main -------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = wirebench::kDefaultSeed;
  int seconds = 10;
  bool trace = false;
  std::string server;
  std::string work;
  std::string golden;
  int write_golden = 0;  // > 0: write golden digests for this many designs
};

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (++i >= argc) die(arg + " needs a value");
      return argv[i];
    };
    if (arg == "--workload") options.workload = value();
    else if (arg == "--seed") options.seed = std::stoull(value());
    else if (arg == "--seconds") options.seconds = std::stoi(value());
    else if (arg == "--trace") options.trace = true;
    else if (arg == "--server") options.server = value();
    else if (arg == "--work") options.work = value();
    else if (arg == "--golden") options.golden = value();
    else if (arg == "--write-golden") options.write_golden = std::stoi(value());
    else die("unknown option " + arg);
  }
  if (options.workload.empty() || options.golden.empty())
    die("--workload and --golden are required");
  if (options.write_golden == 0 &&
      (options.server.empty() || options.work.empty()))
    die("--server and --work are required");
  return options;
}

/// Serial reference cost, relative to connections × seconds, that a
/// materialized stream must reach before timing starts: enough requests
/// that the closed loop does not run dry even when the server answers a
/// request faster than the serial cold reference computed it (per-request
/// jobs, and on edit_loop whatever the caches still hold). A stream that
/// does run dry ends the window early; the run says so on stderr.
constexpr double kStreamMargin = 1.6;

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  if (std::string(WIREBENCH_BUILD_TYPE) != "Release")
    die(std::string("refusing to measure a ") + WIREBENCH_BUILD_TYPE +
        " build; configure with -DCMAKE_BUILD_TYPE=Release");
  const int threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  std::unique_ptr<Workload> workload;
  try {
    workload = Workload::make(options.workload, options.seed);
  } catch (const std::exception& error) {
    die(error.what());
  }

  // Materialize the streams and their reference, before any timing.
  std::vector<Expected> expected;
  double reference_seconds = wirebench::compute_reference(
      workload->designs, workload->take_new_designs(), expected, threads);
  if (options.write_golden > 0) {
    while (!workload->unbounded() &&
           static_cast<int>(workload->designs.size()) < options.write_golden)
      workload->extend_round();
    wirebench::compute_reference(workload->designs,
                                 workload->take_new_designs(), expected,
                                 threads);
    if (options.seed != wirebench::kDefaultSeed ||
        !wirebench::write_golden(options.golden, options.workload, expected))
      die("golden digests are written for the default seed only");
    std::printf("wrote %zu golden digests\n", expected.size());
    return 0;
  }
  if (!workload->unbounded()) {
    const double budget =
        kStreamMargin * Workload::kConnections * options.seconds;
    while (reference_seconds < budget) {
      for (int round = 0; round < 4; ++round) workload->extend_round();
      reference_seconds += wirebench::compute_reference(
          workload->designs, workload->take_new_designs(), expected,
          threads);
    }
  }

  // Validity of the reference itself: every design analysed cleanly (and
  // verified speed independent unless an edit may break it), matches the
  // committed digests on the default seed, and the thesis design
  // reproduces the thesis lists.
  std::vector<char> suspect(workload->designs.size(), 0);
  std::vector<std::string> problems;
  const std::vector<std::string> golden =
      options.seed == wirebench::kDefaultSeed
          ? wirebench::read_golden(options.golden, options.workload)
          : std::vector<std::string>{};
  long long golden_checked = 0;
  for (std::size_t d = 0; d < workload->designs.size(); ++d) {
    const Expected& e = expected[d];
    std::string why;
    if (!e.ok)
      why = "in-process analysis failed: " + e.error;
    else if (!e.offender.empty() && workload->requires_si(static_cast<int>(d)))
      why = "not speed independent (gate " + e.offender + ")";
    else if (d < golden.size() && golden[d] != wirebench::golden_text(e))
      why = "reference differs from the golden digest";
    if (d < golden.size()) ++golden_checked;
    if (!why.empty()) {
      suspect[d] = 1;
      if (problems.size() < 5)
        problems.push_back(workload->designs[d].name + ": " + why);
    }
  }
  const std::string thesis = wirebench::check_thesis_lists(options.golden);
  if (!thesis.empty()) problems.push_back(thesis);

  // Set-up: the working-set store, then kSetups timed launches.
  ::mkdir(options.work.c_str(), 0755);
  const std::string store_dir = options.work + "/store";
  if (workload->store() == Workload::Store::prefilled &&
      !wirebench::fill_store(workload->designs, workload->store_designs(),
                             store_dir))
    die("store fill did not spill every working-set design");
  std::vector<double> setup_seconds;
  std::unique_ptr<ServerProcess> server;
  int port = -1;
  for (int launch = 0; launch < kSetups; ++launch) {
    std::vector<std::string> args{"--listen", "127.0.0.1:0"};
    const std::vector<std::string> flags = workload->server_flags();
    args.insert(args.end(), flags.begin(), flags.end());
    if (workload->store() == Workload::Store::prefilled) {
      args.insert(args.end(), {"--cache-dir", store_dir});
    } else if (workload->store() == Workload::Store::fresh) {
      args.insert(args.end(), {"--cache-dir", options.work + "/fresh-" +
                                                  std::to_string(launch)});
    }
    server.reset();  // stops the previous launch
    const auto launched = Clock::now();
    server = std::make_unique<ServerProcess>(options.server, args);
    port = server->wait_port();
    Connection probe(port);
    const std::string response =
        probe.request(workload->lines[workload->probe()].text);
    if (response.find(",\"ok\":true,") == std::string::npos)
      die("probe request failed: " + response.substr(0, 300));
    setup_seconds.push_back(seconds_between(launched, Clock::now()));
  }

  // The timed window. The server is idle between its set-up probe and the
  // window, so the CPU it spends in between is the window's.
  const double cpu_before = cpu_seconds(server->pid());
  const auto start = Clock::now() + std::chrono::milliseconds(50);
  const auto deadline = start + std::chrono::seconds(options.seconds);
  std::atomic<bool> stop{false};
  std::vector<ConnectionResult> results(Workload::kConnections);
  std::vector<std::thread> clients;
  for (int c = 0; c < Workload::kConnections; ++c)
    clients.emplace_back([&, c] {
      drive(c, *workload, expected, suspect, port, start, deadline, stop,
            results[c]);
    });
  for (std::thread& client : clients) client.join();

  // After the window: counters, memory and CPU of the server, then stop it.
  sitime::svc::JsonValue stats;
  std::string stats_text;
  {
    Connection control(port);
    const std::string response = control.request("{\"stats\":true}\n");
    const auto block = response.find("\"stats\":");
    if (block != std::string::npos)
      stats_text = response.substr(block + 8, response.size() - block - 9);
    try {
      stats = sitime::svc::parse_json(response).get("stats");
    } catch (const std::exception& error) {
      die(std::string("stats request failed: ") + error.what());
    }
  }
  auto stat = [&](const char* key) -> long long {
    return static_cast<long long>(stats.get(key).as_number());
  };
  const double rss_mb = peak_rss_mb(server->pid());
  const double server_cpu = cpu_seconds(server->pid());
  const double window_cpu = server_cpu - cpu_before;
  const int exit_status = server->stop();
  if (exit_status != 0)
    problems.push_back("server exited with status " +
                       std::to_string(exit_status));

  // Aggregate.
  std::vector<Sample> samples;
  std::vector<double> overhead;
  long long attempted = 0, failed = 0, not_hit = 0, ok = 0;
  auto finished = start;
  bool exhausted = false;
  std::vector<long long> distinct_sent(Workload::kConnections, 0);
  for (int c = 0; c < Workload::kConnections; ++c) {
    const ConnectionResult& r = results[c];
    samples.insert(samples.end(), r.samples.begin(), r.samples.end());
    for (const Sample& sample : r.samples) ok += sample.ok ? 1 : 0;
    overhead.insert(overhead.end(), r.overhead_ms.begin(),
                    r.overhead_ms.end());
    attempted += r.attempted;
    failed += r.failed;
    not_hit += r.not_hit;
    finished = std::max(finished, r.finished);
    exhausted |= r.exhausted;
    for (const char sent : r.sent) distinct_sent[c] += sent;
    if (!r.error.empty() && problems.size() < 8)
      problems.push_back("connection " + std::to_string(c) + ": " + r.error);
  }
  const double window = seconds_between(start, finished);
  if (exhausted)
    std::fprintf(stderr,
                 "wirebench_client: a request stream ran dry after %.2f s; "
                 "the window was shortened\n",
                 window);

  // Workload-validity guards: a run that fails one is invalid, not slow.
  std::vector<std::string> guards;
  if (options.workload == "cold_mix") {
    if (stat("hits") != 0 || stat("decomp_hits") != 0 ||
        stat("gate_hits") != 0)
      guards.push_back("cold_mix saw " + std::to_string(stat("hits")) +
                       " design, " + std::to_string(stat("decomp_hits")) +
                       " decomposition and " +
                       std::to_string(stat("gate_hits")) + " gate hits");
  } else if (options.workload == "warm_hits") {
    if (not_hit != 0)
      guards.push_back("warm_hits answered " + std::to_string(not_hit) +
                       " requests without a hit");
    if (stat("disk_loads") !=
        static_cast<long long>(workload->store_designs().size()))
      guards.push_back("warm_hits booted " +
                       std::to_string(stat("disk_loads")) +
                       " designs from the store");
  } else {
    // Every fresh version is a netlist-only edit of its session's STG, so
    // each one consults the decomposition cache. Once the session
    // outgrows its budget, resident versions starve the decomposition
    // level (shed priority design > decomposition), so hits are required
    // but not one per edit; the hit ratio is a traced metric.
    long long edits = 0;
    for (const long long sent : distinct_sent) edits += std::max(0LL, sent - 1);
    if (stat("decomp_hits") + stat("decomp_misses") < edits ||
        stat("decomp_hits") <= 0)
      guards.push_back("edit_loop: " + std::to_string(stat("decomp_hits")) +
                       " decomposition hits and " +
                       std::to_string(stat("decomp_misses")) +
                       " misses for " + std::to_string(edits) + " edits");
    if (stat("disk_writes") <= 0) guards.push_back("edit_loop spilled nothing");
    if (stat("evictions") + stat("decomp_evictions") +
            stat("gate_evictions") <=
        0)
      guards.push_back("edit_loop never evicted or shed under its budget");
  }
  if (samples.size() < kSliceSamples)
    std::fprintf(stderr,
                 "wirebench_client: only %zu latency samples; p99 wants "
                 "%zu or more\n",
                 samples.size(), kSliceSamples);
  for (const std::string& problem : problems)
    std::fprintf(stderr, "wirebench_client: %s\n", problem.c_str());
  for (const std::string& guard : guards)
    std::fprintf(stderr, "wirebench_client: invalid run: %s\n",
                 guard.c_str());

  wirebench::MetricsJson metrics;
  metrics.add("setup_s", percentile(setup_seconds, 0.5), "s");
  const Slices slices = slice(samples);
  metrics.add("throughput_rps", percentile(slices.throughput_rps, 0.5),
              "1/s");
  metrics.add("latency_p50_ms", percentile(slices.p50_ms, 0.5), "ms");
  metrics.add("latency_p99_ms", percentile(slices.p99_ms, 0.5), "ms");
  metrics.add("fail_ratio",
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 1.0,
              "ratio");
  metrics.add("peak_rss_mb", rss_mb, "MB");
  metrics.add("cpu_ms_per_request",
              ok > 0 ? window_cpu * 1e3 / static_cast<double>(ok) : 0.0, "ms");
  if (options.trace) {
    double busy = 0.0;
    for (const double ms : overhead) busy += ms / 1e3;
    metrics.add("svc.server.calls", static_cast<double>(overhead.size()),
                "count");
    metrics.add("svc.server.busy_s", busy, "s");
    metrics.add("svc.server.overhead_p50_ms", percentile(overhead, 0.5),
                "ms");
    metrics.add("svc.server.cpu_s", server_cpu, "s");
  }
  std::string slice_p99 = "[";
  for (const double ms : slices.p99_ms)
    slice_p99 += (slice_p99.size() > 1 ? ", " : "") + std::to_string(ms);
  slice_p99 += "]";
  const bool correct = failed == 0 && problems.empty() && guards.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}, \"info\": {\"samples\": %zu, "
      "\"slice_p99_ms\": %s, \"window_s\": %.6f, \"designs\": %zu, "
      "\"golden_checked\": %lld, \"reference_s\": %.3f, \"nproc\": %d, "
      "\"build_type\": \"%s\", \"exhausted\": %s, "
      "\"server_stats\": %s}}\n",
      correct ? "true" : "false", attempted, failed, metrics.str().c_str(),
      samples.size(), slice_p99.c_str(), window, workload->designs.size(),
      golden_checked, reference_seconds, threads, WIREBENCH_BUILD_TYPE,
      exhausted ? "true" : "false",
      stats_text.empty() ? "null" : stats_text.c_str());
  return 0;
}
