// Boot-path benchmark for the persistent warm store (--cache-dir):
// time-to-first-warm-response of a cold process against one restarted
// over a populated store. Emits one JSON document (committed as
// BENCH_warm_boot.json at the repo root).
//
// Three lanes over the embedded benchmark suite:
//   - cold:  a fresh service with no store; every request runs the full
//            flow (parse + decompose + verify + derive + render).
//   - spill: a fresh service WITH a store; same cold work, plus the
//            spill of every terminal entry (temp file + rename, no
//            fsync) — the write-side overhead of the warm store.
//   - warm:  a brand-new service booted over the spilled store;
//            warm_from_disk() decodes and re-validates every file, and
//            every request is then a pure cache hit.
// "Time to first warm response" is boot (construction + any disk load)
// plus the first request's wall time: the latency a client sees after a
// restart, which the store turns from a full flow run into a decode.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
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
  request.mode = sitime::svc::RequestMode::derive;
  return request;
}

/// One boot + full-suite pass: construction, optional disk warm-load,
/// first response, then the rest of the suite.
struct Lane {
  double construct_seconds = 0.0;
  double disk_load_seconds = 0.0;  // warm_from_disk(); 0 for cold lanes
  double first_response_seconds = 0.0;
  double suite_seconds = 0.0;  // all requests, first included
  int loaded = 0;
  sitime::svc::CacheStats stats;

  double time_to_first_response() const {
    return construct_seconds + disk_load_seconds + first_response_seconds;
  }
};

Lane run_lane(const std::string& cache_dir) {
  using namespace sitime;
  Lane lane;
  svc::ServiceOptions options;
  options.jobs = 1;
  options.cache_dir = cache_dir;

  const auto construct_start = Clock::now();
  svc::AnalysisService service(options);
  lane.construct_seconds = seconds_since(construct_start);

  if (!cache_dir.empty()) {
    const auto load_start = Clock::now();
    lane.loaded = service.warm_from_disk();
    lane.disk_load_seconds = seconds_since(load_start);
  }

  const auto suite_start = Clock::now();
  bool first = true;
  for (const auto& bench : benchdata::all_benchmarks()) {
    const auto request_start = Clock::now();
    const svc::AnalysisResponse response =
        service.analyze(request_for(bench));
    if (!response.ok) std::abort();
    if (first) {
      lane.first_response_seconds = seconds_since(request_start);
      first = false;
    }
  }
  lane.suite_seconds = seconds_since(suite_start);
  lane.stats = service.stats();
  return lane;
}

void print_lane(const char* name, const Lane& lane, bool last = false) {
  std::printf(
      "  \"%s\": {\"construct_seconds\": %.6f, "
      "\"disk_load_seconds\": %.6f, "
      "\"first_response_seconds\": %.6f, \"suite_seconds\": %.6f, "
      "\"time_to_first_response_seconds\": %.6f,\n"
      "   \"designs_loaded_from_disk\": %d, \"cache_hits\": %lld, "
      "\"cache_misses\": %lld, \"decompose_runs\": %lld, "
      "\"verify_runs\": %lld, \"derive_runs\": %lld, "
      "\"disk_writes\": %lld, \"disk_loads\": %lld}%s\n",
      name, lane.construct_seconds, lane.disk_load_seconds,
      lane.first_response_seconds, lane.suite_seconds,
      lane.time_to_first_response(), lane.loaded, lane.stats.hits,
      lane.stats.misses, lane.stats.decompose_runs, lane.stats.verify_runs,
      lane.stats.derive_runs, lane.stats.disk_writes, lane.stats.disk_loads,
      last ? "" : ",");
}

}  // namespace

int main() {
  using namespace sitime;
  const sitime::bench::HostLoad host;

  char dir_template[] = "/tmp/sitime_warm_boot_XXXXXX";
  const char* cache_dir = ::mkdtemp(dir_template);
  if (cache_dir == nullptr) return 1;

  const int designs =
      static_cast<int>(benchdata::all_benchmarks().size());

  // Cold: no store anywhere — the restart baseline without --cache-dir.
  const Lane cold = run_lane("");
  // Spill: cold work + store writes; populates the store on disk.
  const Lane spill = run_lane(cache_dir);
  std::uintmax_t store_bytes = 0;
  int store_files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(cache_dir)) {
    store_bytes += entry.file_size();
    ++store_files;
  }
  // Warm: a new process booting over that store serves pure hits.
  const Lane warm = run_lane(cache_dir);
  std::filesystem::remove_all(cache_dir);

  // The warm lane must not have run a single phase — that is the whole
  // point of the store, and the number this benchmark exists to track.
  if (warm.stats.decompose_runs != 0 || warm.stats.verify_runs != 0 ||
      warm.stats.derive_runs != 0 || warm.stats.misses != 0 ||
      warm.loaded != designs) {
    std::fprintf(stderr, "warm lane ran phases; store did not warm\n");
    return 1;
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"warm_boot\",\n");
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"designs\": %d,\n", designs);
  std::printf("  \"store_files\": %d,\n", store_files);
  std::printf("  \"store_bytes\": %ju,\n", store_bytes);
  print_lane("cold", cold);
  print_lane("spill", spill);
  print_lane("warm", warm);
  std::printf("  \"first_response_speedup\": %.2f,\n",
              warm.time_to_first_response() > 0
                  ? cold.time_to_first_response() /
                        warm.time_to_first_response()
                  : 0.0);
  std::printf("  \"suite_speedup\": %.2f,\n",
              warm.suite_seconds > 0
                  ? cold.suite_seconds / warm.suite_seconds
                  : 0.0);
  std::printf("  \"spill_overhead_seconds\": %.6f,\n",
              spill.suite_seconds - cold.suite_seconds);
  host.print_json();
  std::printf("\n}\n");
  return 0;
}
