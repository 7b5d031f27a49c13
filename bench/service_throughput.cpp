// Service throughput: cold vs warm requests/sec through the resident
// AnalysisService over the bundled benchmark suite, plus the coalescing
// behaviour under concurrent identical requests. Emits one JSON document
// (committed as BENCH_service.json at the repo root).
//
// "cold" = every request runs the full flow (cache cleared between
// requests is approximated by a fresh service per round); "warm" = the
// suite is resident and every request is a cache hit. The warm/cold ratio
// is the headline number a server deployment buys from the design cache.
// Warm hits come in two lanes: "warm" repeats each design's exact bytes
// (the exact-bytes index answers without parsing), "warm_variant" sends
// canonically equal text with other bytes (a leading comment), which is
// parsed and keyed before it hits.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "benchdata/benchmarks.hpp"
#include "host_load.hpp"
#include "svc/analysis_service.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

sitime::svc::AnalysisRequest request_for(
    const sitime::benchdata::Benchmark& bench) {
  sitime::svc::AnalysisRequest request;
  request.name = bench.name;
  request.astg = bench.astg;
  request.eqn = bench.eqn;
  return request;
}

/// Value of one sample in a Prometheus rendering; 0 when absent.
double sample(const std::string& text, const std::string& series) {
  const auto at = text.find("\n" + series + " ");
  if (at == std::string::npos) return 0;
  return std::stod(text.substr(at + series.size() + 2));
}

struct WarmLane {
  int hits = 0;
  double seconds = 0.0;
  long long exact_hits = 0;
};

/// Sends `requests` `rounds` times to a service that holds them all and
/// counts the cache hits, the wall time, and the exact-bytes index hits.
WarmLane run_warm_lane(sitime::svc::AnalysisService& service,
                       const std::vector<sitime::svc::AnalysisRequest>&
                           requests,
                       int rounds) {
  const char* kExact = "sitime_exact_request_hits_total";
  const double exact_before =
      sample(service.metrics().render_prometheus(), kExact);
  WarmLane lane;
  const auto start = Clock::now();
  for (int round = 0; round < rounds; ++round)
    for (const auto& request : requests)
      if (service.analyze(request).cache_hit) ++lane.hits;
  lane.seconds = seconds_since(start);
  lane.exact_hits = static_cast<long long>(
      sample(service.metrics().render_prometheus(), kExact) - exact_before);
  return lane;
}

}  // namespace

int main() {
  using namespace sitime;
  const sitime::bench::HostLoad host;
  const auto& suite = benchdata::all_benchmarks();
  const int warm_rounds = 200;

  // Cold: a fresh service answers the whole suite once (every request is a
  // miss; this measures parse + decompose + verify + derive + render).
  svc::AnalysisService service;
  const auto cold_start = Clock::now();
  int cold_ok = 0;
  for (const auto& bench : suite)
    if (service.analyze(request_for(bench)).ok) ++cold_ok;
  const double cold_seconds = seconds_since(cold_start);

  // Warm: the same suite again, many rounds, all hits — first with each
  // design's exact bytes, then with a comment line prepended.
  std::vector<svc::AnalysisRequest> exact_requests;
  std::vector<svc::AnalysisRequest> variant_requests;
  for (const auto& bench : suite) {
    exact_requests.push_back(request_for(bench));
    variant_requests.push_back(request_for(bench));
    variant_requests.back().astg = "# variant\n" + bench.astg;
  }
  const WarmLane warm = run_warm_lane(service, exact_requests, warm_rounds);
  const WarmLane variant =
      run_warm_lane(service, variant_requests, warm_rounds);

  const svc::CacheStats sequential = service.stats();

  // Concurrent identical requests: single-flight must keep the flow-run
  // count at one per design however many clients race.
  constexpr int kClients = 8;
  svc::AnalysisService contended;
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
      clients.emplace_back([&contended, &suite] {
        for (const auto& bench : suite)
          contended.analyze(request_for(bench));
      });
    for (std::thread& client : clients) client.join();
  }
  const svc::CacheStats contended_stats = contended.stats();

  const double cold_rps = cold_ok / cold_seconds;
  const double warm_rps = warm.hits / warm.seconds;
  const double variant_rps = variant.hits / variant.seconds;
  std::printf("{\n");
  std::printf("  \"bench\": \"service_throughput\",\n");
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"suite_designs\": %zu,\n", suite.size());
  std::printf("  \"cold\": {\"requests\": %d, \"seconds\": %.6f, "
              "\"requests_per_sec\": %.1f},\n",
              cold_ok, cold_seconds, cold_rps);
  std::printf("  \"warm\": {\"requests\": %d, \"rounds\": %d, "
              "\"seconds\": %.6f, \"requests_per_sec\": %.1f, "
              "\"exact_hits\": %lld, \"seconds_per_request\": %.9f},\n",
              warm.hits, warm_rounds, warm.seconds, warm_rps,
              warm.exact_hits, warm.seconds / warm.hits);
  std::printf("  \"warm_variant\": {\"requests\": %d, \"rounds\": %d, "
              "\"seconds\": %.6f, \"requests_per_sec\": %.1f, "
              "\"exact_hits\": %lld, \"seconds_per_request\": %.9f},\n",
              variant.hits, warm_rounds, variant.seconds, variant_rps,
              variant.exact_hits, variant.seconds / variant.hits);
  std::printf("  \"warm_speedup\": %.1f,\n",
              warm_rps > 0 && cold_rps > 0 ? warm_rps / cold_rps : 0.0);
  std::printf("  \"sequential_cache\": {\"hits\": %lld, \"misses\": %lld, "
              "\"hit_rate\": %.4f, \"entries\": %d, \"bytes\": %zu},\n",
              sequential.hits, sequential.misses,
              static_cast<double>(sequential.hits) /
                  static_cast<double>(sequential.hits + sequential.misses),
              sequential.entries, sequential.bytes);
  std::printf("  \"concurrent\": {\"clients\": %d, \"requests\": %zu, "
              "\"flow_runs\": %lld, \"coalesced\": %lld, \"hits\": %lld, "
              "\"single_flight_held\": %s},\n",
              kClients, suite.size() * kClients, contended_stats.misses,
              contended_stats.coalesced, contended_stats.hits,
              contended_stats.misses ==
                      static_cast<long long>(suite.size())
                  ? "true"
                  : "false");
  host.print_json();
  std::printf("\n}\n");
  return 0;
}
