#include "svc/server.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#include "base/error.hpp"
#include "base/fault.hpp"
#include "benchdata/benchmarks.hpp"
#include "core/report.hpp"
#include "svc/analysis_service.hpp"
#include "svc/json.hpp"

namespace sitime::svc {

std::string read_text_file(const std::string& path) {
  std::ifstream stream(path);
  if (!stream) sitime::fail("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  return buffer.str();
}

std::string sibling_netlist_path(const std::string& design_path) {
  std::filesystem::path sibling(design_path);
  sibling.replace_extension(".eqn");
  std::error_code ignored;
  if (!std::filesystem::exists(sibling, ignored)) return "";
  return sibling.string();
}

namespace {

// ---- request protocol ------------------------------------------------------
// The NDJSON schema lives in tools/README.md; this block turns one request
// line into an AnalysisService call and renders the response line.

/// Renders an echoed "id" value (scalars only; anything else is dropped).
std::string render_id(const JsonValue& id) {
  using Kind = JsonValue::Kind;
  switch (id.kind()) {
    case Kind::string: {
      std::string quoted = "\"";
      quoted += core::json_escape(id.as_string());
      quoted += '"';
      return quoted;
    }
    case Kind::number: {
      const double number = id.as_number();
      char buffer[32];
      // The float-to-integer cast is only defined inside long long range;
      // anything else (huge ids, fractions) is echoed as a double.
      if (number >= -9.2e18 && number <= 9.2e18 &&
          number == static_cast<double>(static_cast<long long>(number)))
        std::snprintf(buffer, sizeof(buffer), "%lld",
                      static_cast<long long>(number));
      else
        std::snprintf(buffer, sizeof(buffer), "%.17g", number);
      return buffer;
    }
    case Kind::boolean: return id.as_bool() ? "true" : "false";
    default: return "";
  }
}

/// Rejects design text the flow could never parse but whose failure mode
/// would be confusing (or worse) downstream: embedded NUL bytes (a JSON
/// "\u0000" escape decodes to a raw NUL, which C-string plumbing silently
/// truncates at) and truncated or invalid UTF-8 (raw bytes >= 0x80 pass
/// the JSON string layer unvalidated). Throwing here turns both into a
/// structured per-request error that leaves the connection serving.
void validate_design_text(const char* field, const std::string& text) {
  for (std::size_t i = 0; i < text.size();) {
    const unsigned char byte = static_cast<unsigned char>(text[i]);
    if (byte == 0)
      sitime::fail(std::string("request: '") + field +
                   "' contains an embedded NUL byte at offset " +
                   std::to_string(i));
    if (byte < 0x80) {
      ++i;
      continue;
    }
    int extra = 0;
    if ((byte & 0xe0) == 0xc0)
      extra = 1;
    else if ((byte & 0xf0) == 0xe0)
      extra = 2;
    else if ((byte & 0xf8) == 0xf0)
      extra = 3;
    else
      sitime::fail(std::string("request: '") + field +
                   "' is not valid UTF-8 (stray continuation byte at "
                   "offset " +
                   std::to_string(i) + ")");
    if (i + static_cast<std::size_t>(extra) >= text.size())
      sitime::fail(std::string("request: '") + field +
                   "' is not valid UTF-8 (truncated sequence at offset " +
                   std::to_string(i) + ")");
    for (int k = 1; k <= extra; ++k)
      if ((static_cast<unsigned char>(text[i + static_cast<std::size_t>(
                                               k)]) &
           0xc0) != 0x80)
        sitime::fail(std::string("request: '") + field +
                     "' is not valid UTF-8 (truncated sequence at offset " +
                     std::to_string(i) + ")");
    i += 1 + static_cast<std::size_t>(extra);
  }
}

/// Builds the service request from one parsed JSON request line.
/// `arrival` is when the request line came off the wire: a "deadline_ms"
/// budget counts from there, so queueing time spends the budget too.
AnalysisRequest build_request(const JsonValue& json,
                              std::chrono::steady_clock::time_point arrival) {
  AnalysisRequest request;
  const JsonValue& design = json.get("design");
  if (design.is_string()) {
    const std::string& path = design.as_string();
    request.name = path;
    request.astg = read_text_file(path);
    std::string eqn_path = json.string_or("eqn", "");
    if (eqn_path.empty()) eqn_path = sibling_netlist_path(path);
    if (!eqn_path.empty()) request.eqn = read_text_file(eqn_path);
  } else if (design.is_object()) {
    const std::string bench_name = design.string_or("bench", "");
    if (!bench_name.empty()) {
      const auto& bench = benchdata::benchmark(bench_name);
      request.name = bench.name;
      request.astg = bench.astg;
      request.eqn = bench.eqn;
    } else {
      request.astg = design.string_or("astg", "");
      if (request.astg.empty())
        sitime::fail("request: design object needs 'astg' or 'bench'");
      request.eqn = design.string_or("eqn", "");
      request.name = design.string_or("name", "(inline)");
    }
  } else {
    sitime::fail("request: 'design' must be a path or an object");
  }
  const std::string mode = json.string_or("mode", "derive");
  if (mode == "verify")
    request.mode = RequestMode::verify;
  else if (mode == "derive")
    request.mode = RequestMode::derive;
  else
    sitime::fail("request: unknown mode '" + mode + "'");
  const long long jobs = json.int_or("jobs", 0);
  if (jobs < 0 || jobs > std::numeric_limits<int>::max())
    sitime::fail("request: 'jobs' must be in [0, 2147483647]");
  request.jobs = static_cast<int>(jobs);
  const JsonValue& trace = json.get("trace_spans");
  if (!trace.is_null()) request.trace_spans = trace.as_bool();
  validate_design_text("astg", request.astg);
  validate_design_text("eqn", request.eqn);
  const long long deadline_ms = json.int_or("deadline_ms", 0);
  if (deadline_ms < 0) sitime::fail("request: 'deadline_ms' must be >= 0");
  request.cancel =
      core::CancelToken(core::Deadline::after_ms(deadline_ms, arrival));
  return request;
}

std::string render_seconds(double seconds) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6f", seconds);
  return buffer;
}

/// Renders the "spans" JSON array of a traced request: the server's own
/// queue_wait span first, then the service spans shifted behind it (span
/// offsets are relative to when the SERVICE saw the request).
std::string render_spans(const std::vector<TraceSpan>& spans,
                         double queue_wait) {
  std::string out = "[{\"name\":\"queue_wait\",\"start\":0.000000";
  out += ",\"seconds\":" + render_seconds(queue_wait) + "}";
  for (const TraceSpan& span : spans) {
    out += ",{\"name\":\"" + core::json_escape(span.name) + "\"";
    out += ",\"start\":" + render_seconds(span.start + queue_wait);
    out += ",\"seconds\":" + render_seconds(span.seconds);
    if (!span.detail.empty())
      out += ",\"detail\":\"" + core::json_escape(span.detail) + "\"";
    if (!span.in.empty())
      out += ",\"in\":\"" + core::json_escape(span.in) + "\"";
    out += "}";
  }
  out += "]";
  return out;
}

void append_cache_stats(std::ostringstream& out, const CacheStats& stats,
                        long long shed) {
  out << "{\"hits\":" << stats.hits << ",\"misses\":" << stats.misses
      << ",\"upgrades\":" << stats.upgrades
      << ",\"coalesced\":" << stats.coalesced
      << ",\"evictions\":" << stats.evictions
      << ",\"failures\":" << stats.failures
      << ",\"deadline_exceeded\":" << stats.deadline_exceeded
      << ",\"cancelled_subtasks\":" << stats.cancelled_subtasks
      << ",\"shed\":" << shed
      << ",\"decompose_runs\":" << stats.decompose_runs
      << ",\"verify_runs\":" << stats.verify_runs
      << ",\"derive_runs\":" << stats.derive_runs
      << ",\"entries\":" << stats.entries << ",\"bytes\":" << stats.bytes
      << ",\"budget_bytes\":" << stats.budget_bytes
      << ",\"sg_entries\":" << stats.sg_cache_entries
      << ",\"sg_hits\":" << stats.sg_cache_hits
      << ",\"sg_misses\":" << stats.sg_cache_misses
      << ",\"decomp_hits\":" << stats.decomp_hits
      << ",\"decomp_misses\":" << stats.decomp_misses
      << ",\"decomp_evictions\":" << stats.decomp_evictions
      << ",\"decomp_entries\":" << stats.decomp_entries
      << ",\"decomp_bytes\":" << stats.decomp_bytes
      << ",\"gate_hits\":" << stats.gate_hits
      << ",\"gate_misses\":" << stats.gate_misses
      << ",\"gate_evictions\":" << stats.gate_evictions
      << ",\"gate_entries\":" << stats.gate_entries
      << ",\"gate_bytes\":" << stats.gate_bytes
      << ",\"disk_writes\":" << stats.disk_writes
      << ",\"disk_write_errors\":" << stats.disk_write_errors
      << ",\"disk_loads\":" << stats.disk_loads
      << ",\"disk_load_skips\":" << stats.disk_load_skips
      << ",\"disk_load_corrupt\":" << stats.disk_load_corrupt << "}";
}

ServerOptions normalized(ServerOptions options) {
  if (options.admit < 1) options.admit = 1;
  return options;
}

}  // namespace

// ---- Connection ------------------------------------------------------------

/// One client connection: its transport channel plus the in-order
/// emission state (responses finish out of order on the shared workers;
/// each connection reorders its own).
struct Server::Connection {
  explicit Connection(std::unique_ptr<Channel> transport)
      : channel(std::move(transport)) {}

  std::unique_ptr<Channel> channel;
  std::mutex mutex;
  std::condition_variable window_open;  // an emission slot freed
  std::map<long, std::string> ready;    // finished out-of-order responses
  long next_emit = 0;
  long sequence = 0;
  bool emitting = false;  // one emitter at a time keeps lines in order
};

// ---- Server ----------------------------------------------------------------

Server::Server(AnalysisService& service, ServerOptions options)
    : service_(service), options_(normalized(std::move(options))) {
  register_metrics();
}

Server::~Server() {
  stop();
  wait();
  // Every thread that could scrape through our gauge callbacks is joined;
  // drop them before the state they read goes away.
  service_.metrics().remove_callbacks(this);
}

void Server::register_metrics() {
  base::MetricsRegistry& registry = service_.metrics();
  const char* kConns = "sitime_connections_total";
  const char* kConnsHelp =
      "Connections by admission outcome: accepted, or refused at the "
      "connection limit.";
  conns_accepted_ =
      &registry.counter(kConns, kConnsHelp, "outcome=\"accepted\"");
  conns_refused_ =
      &registry.counter(kConns, kConnsHelp, "outcome=\"refused\"");
  const char* kShed = "sitime_requests_shed_total";
  const char* kShedHelp =
      "Requests answered with the overloaded response, by shedding valve "
      "(queue depth at admission, queue age at dequeue).";
  shed_depth_ = &registry.counter(kShed, kShedHelp, "valve=\"depth\"");
  shed_age_ = &registry.counter(kShed, kShedHelp, "valve=\"age\"");
  queue_wait_seconds_ = &registry.histogram(
      "sitime_queue_wait_seconds",
      "Time a request spent in the shared admission queue before a worker "
      "picked it up (or a shedding valve answered it).",
      base::MetricHistogram::default_latency_bounds());

  registry.callback(this, "sitime_uptime_seconds",
                    "Seconds since this server was constructed.", "gauge",
                    "", [this] {
                      return std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() -
                                 start_time_)
                          .count();
                    });
  registry.callback(this, "sitime_queue_depth",
                    "Requests currently waiting in the shared admission "
                    "queue.",
                    "gauge", "", [this] {
                      int depth = 0;
                      double age = 0.0;
                      queue_state(depth, age);
                      return static_cast<double>(depth);
                    });
  registry.callback(this, "sitime_queue_oldest_age_seconds",
                    "Age of the oldest queued request (0 when the queue "
                    "is empty).",
                    "gauge", "", [this] {
                      int depth = 0;
                      double age = 0.0;
                      queue_state(depth, age);
                      return age;
                    });
  registry.callback(this, "sitime_connections_active",
                    "Connections currently open.", "gauge", "", [this] {
                      return static_cast<double>(active_connections());
                    });
}

void Server::queue_state(int& depth, double& oldest_age_seconds) const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  depth = static_cast<int>(queue_.size());
  oldest_age_seconds =
      queue_.empty() ? 0.0
                     : std::chrono::duration<double>(
                           std::chrono::steady_clock::now() -
                           queue_.front().arrival)
                           .count();
}

void Server::add_transport(std::unique_ptr<Transport> transport) {
  transports_.push_back(std::move(transport));
}

void Server::start() {
  if (transports_.empty()) sitime::fail("svc::Server: no transports added");
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    if (started_) sitime::fail("svc::Server: already started");
    started_ = true;
  }
  ChannelLimits limits;
  limits.max_line_bytes = options_.max_line_bytes;
  limits.idle_timeout_ms = options_.idle_timeout_ms;
  limits.write_timeout_ms = options_.write_timeout_ms;
  for (const auto& transport : transports_) {
    transport->open(limits);
    log("listening on " + transport->describe());
  }
  workers_.reserve(static_cast<std::size_t>(options_.admit));
  for (int t = 0; t < options_.admit; ++t)
    workers_.emplace_back([this] { worker_loop(); });
  accept_threads_.reserve(transports_.size());
  for (const auto& transport : transports_)
    accept_threads_.emplace_back(
        [this, raw = transport.get()] { accept_loop(*raw); });
}

void Server::wait() {
  std::lock_guard<std::mutex> wait_lock(wait_mutex_);
  // Accept threads exit when their transport is exhausted (stdio: the
  // one connection handed out; sockets: stop()).
  for (std::thread& acceptor : accept_threads_)
    if (acceptor.joinable()) acceptor.join();
  {
    std::unique_lock<std::mutex> lock(conns_mutex_);
    all_drained_.wait(lock, [&] { return active_ == 0; });
  }
  // Every reader has drained: the queue can only shrink now, and the
  // workers drain it fully before exiting.
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    workers_down_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_)
    if (worker.joinable()) worker.join();
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    if (!started_ || stopping_) return;
    stopping_ = true;
    // Unblock every reader: it observes EOF, drains its admitted
    // responses (the workers keep running until wait()), and closes.
    for (const auto& conn : conns_) conn->channel->shutdown_read();
  }
  for (const auto& transport : transports_) transport->shutdown();
  log("shutting down: draining in-flight requests");
}

int Server::serve() {
  start();
  wait();
  return 0;
}

int Server::active_connections() const {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  return active_;
}

long long Server::connections_accepted() const {
  return conns_accepted_->value();
}

long long Server::connections_refused() const {
  return conns_refused_->value();
}

void Server::accept_loop(Transport& transport) {
  while (true) {
    std::unique_ptr<Channel> channel = transport.accept();
    if (channel == nullptr) return;  // transport exhausted
    std::shared_ptr<Connection> conn;
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      if (stopping_) continue;  // refused; the channel closes right here
      if (options_.max_connections > 0 &&
          active_ >= options_.max_connections) {
        conns_refused_->inc();
        channel->write_line(
            "{\"ok\":false,\"error\":\"server busy: connection limit " +
            std::to_string(options_.max_connections) + " reached\"}");
        continue;
      }
      ++active_;
      conns_accepted_->inc();
      conn = std::make_shared<Connection>(std::move(channel));
      conns_.insert(conn);
    }
    // Reader threads are detached so a long-running server does not
    // accumulate one joinable handle per connection ever served; the
    // registry lets stop() reach them and wait() outlive them.
    std::thread([this, conn] {
      reader_loop(conn);
      std::lock_guard<std::mutex> lock(conns_mutex_);
      conns_.erase(conn);
      if (--active_ == 0) all_drained_.notify_all();
    }).detach();
  }
}

void Server::reader_loop(const std::shared_ptr<Connection>& conn) {
  std::string line;
  long long admitted = 0;
  std::string farewell;  // emitted after the drain, before closing
  bool reading = true;
  while (reading) {
    switch (conn->channel->read_line(line)) {
      case Channel::ReadStatus::eof:
        reading = false;
        continue;
      case Channel::ReadStatus::idle:
        reading = false;  // silently close an idle connection
        continue;
      case Channel::ReadStatus::oversized:
        farewell =
            "{\"ok\":false,\"error\":\"request line exceeds " +
            std::to_string(options_.max_line_bytes) +
            " bytes; closing connection\"}";
        reading = false;
        continue;
      case Channel::ReadStatus::line:
        break;
    }
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    // The request "arrives" when its line comes off the wire: deadline_ms
    // budgets and the queue-age shedding valve both start here, so time
    // spent waiting for an emission slot or a worker spends the budget.
    const auto arrival = std::chrono::steady_clock::now();
    long seq;
    {
      std::unique_lock<std::mutex> lock(conn->mutex);
      conn->window_open.wait(lock, [&] {
        return conn->sequence - conn->next_emit < options_.admit;
      });
      seq = conn->sequence++;
    }
    bool shed_at_admission = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (options_.max_queue_depth > 0 &&
          static_cast<int>(queue_.size()) >= options_.max_queue_depth)
        shed_at_admission = true;  // respond outside queue_mutex_
      else
        queue_.push_back(Job{conn, seq, std::move(line), arrival});
    }
    if (shed_at_admission) {
      // The depth watermark fired: answer immediately through the same
      // per-connection ordering machinery a worker would use, so the
      // overloaded line cannot overtake an earlier admitted response.
      // The request never entered the queue, so its queue wait is the
      // (tiny) admission time itself.
      queue_wait_seconds_->observe(std::chrono::duration<double>(
                                       std::chrono::steady_clock::now() -
                                       arrival)
                                       .count());
      std::string response = overload_response(
          line,
          "server overloaded: admission queue depth limit " +
              std::to_string(options_.max_queue_depth) + " reached",
          *shed_depth_);
      std::unique_lock<std::mutex> lock(conn->mutex);
      conn->ready.emplace(seq, std::move(response));
      flush_ready(*conn, lock);
    } else {
      work_ready_.notify_one();
    }
    if (options_.max_requests_per_connection > 0 &&
        ++admitted >= options_.max_requests_per_connection) {
      farewell =
          "{\"ok\":false,\"error\":\"per-connection request cap " +
          std::to_string(options_.max_requests_per_connection) +
          " reached; closing connection\"}";
      reading = false;
    }
  }
  if (!farewell.empty()) {
    // The farewell is sequenced like a response: emitted strictly after
    // every admitted response of this connection, by whoever holds the
    // emitter flag (writing it directly here could overtake a response
    // whose emitter has claimed its slot but not yet written the bytes).
    std::unique_lock<std::mutex> lock(conn->mutex);
    conn->ready.emplace(conn->sequence++, std::move(farewell));
    flush_ready(*conn, lock);
  }
  // Drain: the workers still hold admitted lines of this connection;
  // every one of them (and the farewell) is emitted before the
  // connection closes.
  {
    std::unique_lock<std::mutex> lock(conn->mutex);
    conn->window_open.wait(lock,
                           [&] { return conn->next_emit == conn->sequence; });
  }
}

void Server::worker_loop() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      work_ready_.wait(lock,
                       [&] { return workers_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    // The dequeue-side shedding valve: a request that sat in the queue
    // past max_queue_ms is already late — answering it with an immediate
    // overloaded line keeps the backlog from compounding (every stale
    // request the workers skip is analysis time given to a fresh one).
    const auto waited = std::chrono::steady_clock::now() - job.arrival;
    queue_wait_seconds_->observe(
        std::chrono::duration<double>(waited).count());
    std::string response;
    if (options_.max_queue_ms > 0) {
      const long long waited_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(waited)
              .count();
      if (waited_ms > options_.max_queue_ms)
        response = overload_response(
            job.line,
            "server overloaded: request waited " +
                std::to_string(waited_ms) +
                " ms in the admission queue (limit " +
                std::to_string(options_.max_queue_ms) + " ms)",
            *shed_age_);
    }
    if (response.empty()) {
      // Fault point: the handler stalls before the analysis runs,
      // simulating a slow request pinning a shared worker. The
      // queue-timing tests (deadline spent in the queue, the age valve,
      // the depth watermark) use a one-shot stall as a deterministic
      // plug instead of racing a real design's runtime.
      if (base::fault_fires(base::FaultPoint::worker_stall))
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
      response = handle_line(job.line, job.arrival);
    }
    std::unique_lock<std::mutex> lock(job.conn->mutex);
    job.conn->ready.emplace(job.seq, std::move(response));
    flush_ready(*job.conn, lock);
  }
}

/// Handles one request line; never throws. Returns the response line
/// (without the trailing newline). Error responses always carry a
/// machine-readable "code": "bad_request" for anything the server itself
/// rejects (unparseable line, malformed design text, bad fields), the
/// AnalysisResponse error_code ("deadline_exceeded", "cancelled",
/// "invalid_request", "analysis_error") for failures from the service.
std::string Server::handle_line(
    const std::string& line, std::chrono::steady_clock::time_point arrival) {
  // Everything between the wire read and this point — admission window,
  // shared queue, the worker picking the job up — is the request's queue
  // wait: the first span of a traced request.
  const double queue_wait =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    arrival)
          .count();
  std::string id;
  std::string name;
  try {
    const JsonValue json = parse_json(line);
    id = render_id(json.get("id"));

    // Control request: {"stats": true} returns the live counters without
    // touching the design cache, plus the process-level snapshot fields
    // (uptime, live queue state) that only make sense server-side.
    const JsonValue& stats_flag = json.get("stats");
    if (!stats_flag.is_null()) {
      if (!stats_flag.as_bool())
        sitime::fail("request: 'stats' must be true when present");
      int depth = 0;
      double oldest_age = 0.0;
      queue_state(depth, oldest_age);
      const double uptime = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() -
                                start_time_)
                                .count();
      std::ostringstream out;
      out << "{";
      if (!id.empty()) out << "\"id\":" << id << ",";
      out << "\"ok\":true,\"uptime_seconds\":" << render_seconds(uptime)
          << ",\"queue_depth\":" << depth
          << ",\"queue_age_ms\":" << render_seconds(oldest_age * 1000.0)
          << ",\"stats\":";
      append_cache_stats(out, service_.stats(), requests_shed());
      out << "}";
      return out.str();
    }

    // Control request: {"metrics": true} renders the full registry in
    // Prometheus text exposition format (one JSON string; a scraper
    // unescapes it — see tools/README.md for the recipe).
    const JsonValue& metrics_flag = json.get("metrics");
    if (!metrics_flag.is_null()) {
      if (!metrics_flag.as_bool())
        sitime::fail("request: 'metrics' must be true when present");
      std::ostringstream out;
      out << "{";
      if (!id.empty()) out << "\"id\":" << id << ",";
      out << "\"ok\":true,\"metrics\":\""
          << core::json_escape(service_.metrics().render_prometheus())
          << "\"}";
      return out.str();
    }

    AnalysisRequest request = build_request(json, arrival);
    name = request.name;
    // Slow-request logging needs the spans even when the client did not
    // ask for them; they reach the response only when it did.
    const bool want_spans = request.trace_spans;
    if (options_.slow_ms > 0) request.trace_spans = true;
    const AnalysisResponse response = service_.analyze(request);

    if (options_.slow_ms > 0) {
      const double total_ms = (queue_wait + response.seconds) * 1000.0;
      if (total_ms >= static_cast<double>(options_.slow_ms)) {
        std::string breakdown =
            "queue_wait=" + render_seconds(queue_wait) + "s";
        for (const TraceSpan& span : response.spans)
          breakdown += " " + span.name + "=" +
                       render_seconds(span.seconds) + "s";
        // Diagnostics, not a lifecycle notice: emitted regardless of
        // log_lifecycle.
        std::fprintf(stderr,
                     "%s: slow request (%.1f ms >= %d ms): design=\"%s\" "
                     "%s\n",
                     options_.log_prefix.c_str(), total_ms,
                     options_.slow_ms, name.c_str(), breakdown.c_str());
      }
    }

    std::ostringstream out;
    out << "{";
    if (!id.empty()) out << "\"id\":" << id << ",";
    out << "\"design\":\"" << core::json_escape(name) << "\"";
    if (!response.ok) {
      out << ",\"ok\":false,\"code\":\""
          << core::json_escape(response.error_code.empty()
                                   ? "analysis_error"
                                   : response.error_code)
          << "\",\"error\":\"" << core::json_escape(response.error)
          << "\"";
      // A traced failure keeps the spans of the phases that did run — a
      // deadline kill reports where the budget went.
      if (want_spans)
        out << ",\"spans\":" << render_spans(response.spans, queue_wait);
      out << "}";
      return out.str();
    }
    out << ",\"ok\":true,\"cache\":\"" << response.cache_state
        << "\",\"phases_run\":\"" << core::json_escape(response.phases_run)
        << "\",\"key\":\"" << response.key << "\"";
    out << ",\"seconds\":" << render_seconds(response.seconds);
    out << ",\"speed_independent\":"
        << (response.speed_independent ? "true" : "false");
    if (!response.speed_independent)
      out << ",\"offender\":\""
          << core::json_escape(response.verify_offender) << "\"";
    if (response.canonical_json != nullptr)
      out << ",\"report\":" << *response.canonical_json;
    if (want_spans)
      out << ",\"spans\":" << render_spans(response.spans, queue_wait);
    out << ",\"cache_stats\":";
    append_cache_stats(out, service_.stats(), requests_shed());
    out << "}";
    return out.str();
  } catch (const std::exception& error) {
    std::ostringstream out;
    out << "{";
    if (!id.empty()) out << "\"id\":" << id << ",";
    if (!name.empty())
      out << "\"design\":\"" << core::json_escape(name) << "\",";
    out << "\"ok\":false,\"code\":\"bad_request\",\"error\":\""
        << core::json_escape(error.what()) << "\"}";
    return out.str();
  }
}

std::string Server::overload_response(const std::string& line,
                                      const std::string& why,
                                      base::MetricCounter& valve) {
  valve.inc();
  std::string id;
  try {
    id = render_id(parse_json(line).get("id"));
  } catch (const std::exception&) {
    // A line too malformed to echo an id from still gets the overloaded
    // response: under shedding the server never spends parse-error
    // handling on a request it will not serve anyway.
  }
  std::ostringstream out;
  out << "{";
  if (!id.empty()) out << "\"id\":" << id << ",";
  out << "\"ok\":false,\"code\":\"overloaded\",\"error\":\""
      << core::json_escape(why) << "\"}";
  return out.str();
}

/// Drains every consecutive ready response of one connection, WRITING
/// OUTSIDE THE LOCK so a slow reader (a stalled socket client) cannot
/// stall the shared workers beyond the one carrying its response. The
/// `emitting` flag makes whoever holds it the sole writer; responses
/// that become ready meanwhile are picked up by its next sweep.
void Server::flush_ready(Connection& conn,
                         std::unique_lock<std::mutex>& lock) {
  if (conn.emitting) return;  // the active emitter will sweep ours up
  conn.emitting = true;
  while (!conn.ready.empty() &&
         conn.ready.begin()->first == conn.next_emit) {
    std::vector<std::string> batch;
    while (!conn.ready.empty() &&
           conn.ready.begin()->first == conn.next_emit) {
      batch.push_back(std::move(conn.ready.begin()->second));
      conn.ready.erase(conn.ready.begin());
      ++conn.next_emit;
    }
    conn.window_open.notify_all();
    lock.unlock();
    for (const std::string& response : batch)
      conn.channel->write_line(response);
    lock.lock();
  }
  conn.emitting = false;
  // The drain predicate (next_emit == sequence) may have just turned
  // true with no further emission to signal it.
  conn.window_open.notify_all();
}

void Server::log(const std::string& message) const {
  if (!options_.log_lifecycle) return;
  std::fprintf(stderr, "%s: %s\n", options_.log_prefix.c_str(),
               message.c_str());
}

}  // namespace sitime::svc
