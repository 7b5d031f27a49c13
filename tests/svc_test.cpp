// The resident analysis service: content-addressed caching (repeats are
// answered without re-running the flow and serve byte-identical canonical
// reports at any worker count), LRU eviction under a byte budget,
// single-flight coalescing of concurrent identical requests, and the
// decomposition-reuse flow overloads it is built on. Plus the minimal JSON
// reader the serve loop parses requests with.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "base/error.hpp"
#include "base/thread_pool.hpp"
#include "benchdata/benchmarks.hpp"
#include "core/flow.hpp"
#include "core/report.hpp"
#include "svc/analysis_service.hpp"
#include "svc/footprint.hpp"
#include "svc/json.hpp"

namespace sitime {
namespace {

svc::AnalysisRequest bench_request(const std::string& name,
                                   svc::RequestMode mode =
                                       svc::RequestMode::derive) {
  const auto& bench = benchdata::benchmark(name);
  svc::AnalysisRequest request;
  request.name = bench.name;
  request.astg = bench.astg;
  request.eqn = bench.eqn;
  request.mode = mode;
  return request;
}

TEST(AnalysisService, RepeatIsServedFromCacheWithoutRerunningTheFlow) {
  svc::AnalysisService service;
  const svc::AnalysisResponse fresh =
      service.analyze(bench_request("imec-ram-read-sbuf"));
  ASSERT_TRUE(fresh.ok) << fresh.error;
  EXPECT_EQ(fresh.cache_state, "fresh");
  EXPECT_FALSE(fresh.cache_hit);
  EXPECT_TRUE(fresh.speed_independent);
  EXPECT_EQ(fresh.key.size(), 16u);
  ASSERT_NE(fresh.report, nullptr);
  ASSERT_NE(fresh.canonical_json, nullptr);
  EXPECT_FALSE(fresh.canonical_json->empty());

  const svc::AnalysisResponse hit =
      service.analyze(bench_request("imec-ram-read-sbuf"));
  ASSERT_TRUE(hit.ok);
  EXPECT_EQ(hit.cache_state, "hit");
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.key, fresh.key);
  // Cached and fresh share the identical rendered body (the very same
  // objects — serving a hit copies pointers, not payloads).
  EXPECT_EQ(hit.report.get(), fresh.report.get());
  EXPECT_EQ(hit.canonical_json.get(), fresh.canonical_json.get());

  const svc::CacheStats stats = service.stats();
  EXPECT_EQ(stats.misses, 1);  // exactly one flow run
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(AnalysisService, CanonicalReportsAreByteIdenticalAcrossWorkerCounts) {
  // Fresh at jobs=1, fresh at jobs=8 (separate service: separate cache),
  // and a cache hit must all render the same canonical bytes — the
  // acceptance contract of the design cache.
  svc::ServiceOptions serial;
  serial.jobs = 1;
  svc::AnalysisService service1(serial);
  svc::ServiceOptions parallel;
  parallel.jobs = 8;
  svc::AnalysisService service8(parallel);

  for (const auto& bench : benchdata::all_benchmarks()) {
    const svc::AnalysisResponse fresh1 =
        service1.analyze(bench_request(bench.name));
    const svc::AnalysisResponse fresh8 =
        service8.analyze(bench_request(bench.name));
    const svc::AnalysisResponse hit8 =
        service8.analyze(bench_request(bench.name));
    ASSERT_TRUE(fresh1.ok && fresh8.ok && hit8.ok) << bench.name;
    EXPECT_EQ(fresh1.key, fresh8.key) << bench.name;
    ASSERT_NE(fresh1.canonical_json, nullptr) << bench.name;
    ASSERT_NE(fresh8.canonical_json, nullptr) << bench.name;
    EXPECT_EQ(*fresh1.canonical_json, *fresh8.canonical_json) << bench.name;
    EXPECT_EQ(hit8.cache_state, "hit") << bench.name;
    EXPECT_EQ(*hit8.canonical_json, *fresh8.canonical_json) << bench.name;
  }
}

TEST(AnalysisService, LruEvictionHonoursTheByteBudget) {
  // Probe the resident size of two designs, then replay them through a
  // budget that fits either alone but not both.
  std::size_t size_a = 0, size_b = 0;
  {
    svc::AnalysisService probe;
    ASSERT_TRUE(probe.analyze(bench_request("adfast")).ok);
    size_a = probe.stats().bytes;
    ASSERT_TRUE(probe.analyze(bench_request("atod")).ok);
    size_b = probe.stats().bytes - size_a;
  }
  ASSERT_GT(size_a, 0u);
  ASSERT_GT(size_b, 0u);

  svc::ServiceOptions options;
  options.cache_budget_bytes = std::max(size_a, size_b);
  svc::AnalysisService service(options);

  ASSERT_TRUE(service.analyze(bench_request("adfast")).ok);
  EXPECT_EQ(service.stats().entries, 1);
  ASSERT_TRUE(service.analyze(bench_request("atod")).ok);  // evicts adfast
  {
    const svc::CacheStats stats = service.stats();
    EXPECT_EQ(stats.entries, 1);
    EXPECT_EQ(stats.evictions, 1);
    EXPECT_LE(stats.bytes, stats.budget_bytes);
  }
  // atod stayed resident, adfast was evicted and must re-run.
  EXPECT_EQ(service.analyze(bench_request("atod")).cache_state, "hit");
  EXPECT_EQ(service.analyze(bench_request("adfast")).cache_state, "fresh");
  EXPECT_EQ(service.stats().misses, 3);
}

TEST(AnalysisService, OversizedEntryIsServedButNeverFlushesResidents) {
  // An entry bigger than the whole budget must not be retained — and must
  // not evict the residents that do fit on its way through.
  std::size_t size_small = 0, size_large = 0;
  {
    svc::AnalysisService probe;
    ASSERT_TRUE(probe.analyze(bench_request("adfast")).ok);
    size_small = probe.stats().bytes;
    ASSERT_TRUE(probe.analyze(bench_request("imec-ram-read-sbuf")).ok);
    size_large = probe.stats().bytes - size_small;
  }
  ASSERT_LT(size_small, size_large);  // adfast is the smaller design

  svc::ServiceOptions options;
  options.cache_budget_bytes = size_small;  // fits adfast, not imec
  svc::AnalysisService service(options);
  ASSERT_TRUE(service.analyze(bench_request("adfast")).ok);
  EXPECT_EQ(service.stats().entries, 1);
  // The oversized design is answered but not retained, and adfast stays.
  ASSERT_TRUE(service.analyze(bench_request("imec-ram-read-sbuf")).ok);
  const svc::CacheStats stats = service.stats();
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(service.analyze(bench_request("adfast")).cache_state, "hit");
  EXPECT_EQ(service.analyze(bench_request("imec-ram-read-sbuf")).cache_state,
            "fresh");
}

TEST(AnalysisService, ZeroBudgetDisablesRetentionButStillAnswers) {
  svc::ServiceOptions options;
  options.cache_budget_bytes = 0;
  svc::AnalysisService service(options);
  EXPECT_EQ(service.analyze(bench_request("adfast")).cache_state, "fresh");
  EXPECT_EQ(service.analyze(bench_request("adfast")).cache_state, "fresh");
  const svc::CacheStats stats = service.stats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(AnalysisService, SingleFlightCoalescesConcurrentIdenticalRequests) {
  // N threads fire the same design at one service: exactly one flow run;
  // everyone shares its entry byte-for-byte. At jobs=2 the runner's flow
  // runs on the shared pool and helps its own pool tasks while the plain
  // threads coalescing on it wait — the shape of a check_hazard batch.
  constexpr int kThreads = 8;
  for (const int jobs : {1, 2}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    svc::ServiceOptions options;
    options.jobs = jobs;
    svc::AnalysisService service(options);
    std::vector<svc::AnalysisResponse> responses(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&service, &responses, t] {
        responses[t] = service.analyze(bench_request("imec-ram-read-sbuf"));
      });
    for (std::thread& thread : threads) thread.join();

    int fresh = 0;
    for (const svc::AnalysisResponse& response : responses) {
      ASSERT_TRUE(response.ok) << response.error;
      EXPECT_EQ(response.key, responses[0].key);
      ASSERT_NE(response.canonical_json, nullptr);
      EXPECT_EQ(*response.canonical_json, *responses[0].canonical_json);
      if (response.cache_state == "fresh") ++fresh;
    }
    EXPECT_EQ(fresh, 1);
    const svc::CacheStats stats = service.stats();
    EXPECT_EQ(stats.misses, 1);  // no duplicate flow runs
    EXPECT_EQ(stats.hits + stats.coalesced, kThreads - 1);
    EXPECT_EQ(stats.entries, 1);
  }
}

TEST(AnalysisService, PoolTaskCallersAreRefusedBeforeTouchingTheCache) {
  // A request issued from inside a pool task could wait on a duplicate's
  // run stolen onto its own help-while-wait stack and never wake. The
  // service refuses such callers up front: every response is an
  // analysis_error, counted as a failure, and no entry or run exists.
  constexpr int kRequests = 8;
  svc::AnalysisService service;
  base::ThreadPool pool(2);
  std::vector<svc::AnalysisResponse> responses(kRequests);
  base::TaskGroup group(pool);
  for (int i = 0; i < kRequests; ++i)
    group.run([&service, &responses, i] {
      responses[i] = service.analyze(bench_request("imec-ram-read-sbuf"));
    });
  group.wait();
  for (const svc::AnalysisResponse& response : responses) {
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.error_code, "analysis_error");
    EXPECT_EQ(response.report, nullptr);
  }
  const svc::CacheStats stats = service.stats();
  EXPECT_EQ(stats.failures, kRequests);
  EXPECT_EQ(stats.misses, 0);
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.decompose_runs, 0);
}

TEST(AnalysisService, VerifyThenDeriveLazilyUpgradesOneEntry) {
  // The acceptance probe of the mode-independent cache: a verify request
  // followed by a derive request for the same design holds exactly ONE
  // entry, runs decompose_flow exactly once, and the upgraded report is
  // byte-identical to cold derive runs at jobs=1 and jobs=8.
  svc::ServiceOptions upgrading;
  upgrading.jobs = 8;  // the lazy derive phase runs parallel
  svc::AnalysisService service(upgrading);

  const svc::AnalysisResponse verify = service.analyze(
      bench_request("imec-ram-read-sbuf", svc::RequestMode::verify));
  ASSERT_TRUE(verify.ok) << verify.error;
  EXPECT_TRUE(verify.speed_independent);
  EXPECT_EQ(verify.cache_state, "fresh");
  EXPECT_EQ(verify.phases_run, "decompose+verify");
  EXPECT_EQ(verify.report, nullptr);  // verify responses carry no report
  EXPECT_EQ(verify.canonical_json, nullptr);
  {
    const svc::CacheStats stats = service.stats();
    EXPECT_EQ(stats.entries, 1);
    EXPECT_EQ(stats.misses, 1);
    EXPECT_EQ(stats.decompose_runs, 1);
    EXPECT_EQ(stats.verify_runs, 1);
    EXPECT_EQ(stats.derive_runs, 0);
  }

  const svc::AnalysisResponse derive =
      service.analyze(bench_request("imec-ram-read-sbuf"));
  ASSERT_TRUE(derive.ok) << derive.error;
  EXPECT_EQ(derive.key, verify.key);  // one mode-independent address
  EXPECT_EQ(derive.cache_state, "upgraded");
  EXPECT_EQ(derive.phases_run, "derive");  // only the missing phase ran
  ASSERT_NE(derive.report, nullptr);
  ASSERT_NE(derive.canonical_json, nullptr);
  {
    const svc::CacheStats stats = service.stats();
    EXPECT_EQ(stats.entries, 1);      // still one entry
    EXPECT_EQ(stats.misses, 1);       // the upgrade is not a fresh run
    EXPECT_EQ(stats.upgrades, 1);
    EXPECT_EQ(stats.decompose_runs, 1);  // decompose never re-ran
    EXPECT_EQ(stats.verify_runs, 1);
    EXPECT_EQ(stats.derive_runs, 1);
  }

  // Byte-identity against cold derive runs at both worker counts.
  for (const int jobs : {1, 8}) {
    svc::ServiceOptions cold_options;
    cold_options.jobs = jobs;
    svc::AnalysisService cold(cold_options);
    const svc::AnalysisResponse fresh =
        cold.analyze(bench_request("imec-ram-read-sbuf"));
    ASSERT_TRUE(fresh.ok);
    EXPECT_EQ(fresh.key, derive.key);
    ASSERT_NE(fresh.canonical_json, nullptr);
    EXPECT_EQ(*fresh.canonical_json, *derive.canonical_json)
        << "jobs=" << jobs;
  }

  // Both modes are now plain hits on the fully derived entry.
  EXPECT_EQ(service.analyze(bench_request("imec-ram-read-sbuf",
                                          svc::RequestMode::verify))
                .cache_state,
            "hit");
  EXPECT_EQ(service.analyze(bench_request("imec-ram-read-sbuf"))
                .cache_state,
            "hit");
}

TEST(AnalysisService, DeriveEntryAnswersVerifyForFree) {
  svc::AnalysisService service;
  ASSERT_TRUE(service.analyze(bench_request("adfast")).ok);
  const svc::AnalysisResponse verify =
      service.analyze(bench_request("adfast", svc::RequestMode::verify));
  ASSERT_TRUE(verify.ok);
  EXPECT_EQ(verify.cache_state, "hit");
  EXPECT_TRUE(verify.phases_run.empty());
  EXPECT_TRUE(verify.speed_independent);
  EXPECT_EQ(verify.report, nullptr);  // the verify contract is verdict-only
  const svc::CacheStats stats = service.stats();
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.upgrades, 0);
  EXPECT_EQ(stats.verify_runs, 1);  // from the derive run, shared
}

TEST(AnalysisService, ConcurrentVerifyAndDeriveShareParseAndDecompose) {
  // Per-(entry, phase) single-flight: whatever the interleaving, the two
  // modes share one parse + decompose (decompose_runs == 1) and one entry.
  for (int round = 0; round < 4; ++round) {
    svc::AnalysisService service;
    svc::AnalysisResponse verify_response, derive_response;
    std::thread verifier([&] {
      verify_response = service.analyze(
          bench_request("imec-ram-read-sbuf", svc::RequestMode::verify));
    });
    std::thread deriver([&] {
      derive_response =
          service.analyze(bench_request("imec-ram-read-sbuf"));
    });
    verifier.join();
    deriver.join();
    ASSERT_TRUE(verify_response.ok) << verify_response.error;
    ASSERT_TRUE(derive_response.ok) << derive_response.error;
    EXPECT_EQ(verify_response.key, derive_response.key);
    ASSERT_NE(derive_response.canonical_json, nullptr);

    const svc::CacheStats stats = service.stats();
    EXPECT_EQ(stats.entries, 1);
    EXPECT_EQ(stats.decompose_runs, 1) << "round " << round;
    EXPECT_EQ(stats.verify_runs, 1);
    EXPECT_EQ(stats.derive_runs, 1);
    // One request ran fresh; the other coalesced onto its phases, hit the
    // finished entry, or upgraded it — never a second decompose.
    EXPECT_EQ(stats.misses, 1);
    EXPECT_EQ(stats.hits + stats.coalesced + stats.upgrades, 1);
  }
}

TEST(AnalysisService, FailedUpgradeKeepsTheVerifiedEntry) {
  // A derive phase that blows the step budget fails the request but must
  // not poison the entry: the decomposition + verdict stay resident and a
  // verify request is still a hit.
  svc::ServiceOptions options;
  options.expand.max_steps = 1;  // derive cannot finish under this budget
  svc::AnalysisService service(options);
  const svc::AnalysisResponse verify = service.analyze(
      bench_request("imec-ram-read-sbuf", svc::RequestMode::verify));
  ASSERT_TRUE(verify.ok) << verify.error;

  const svc::AnalysisResponse derive =
      service.analyze(bench_request("imec-ram-read-sbuf"));
  EXPECT_FALSE(derive.ok);
  EXPECT_FALSE(derive.error.empty());

  const svc::CacheStats stats = service.stats();
  EXPECT_EQ(stats.failures, 1);
  EXPECT_EQ(stats.entries, 1);      // the verified entry survived
  EXPECT_EQ(stats.decompose_runs, 1);
  EXPECT_EQ(service.analyze(bench_request("imec-ram-read-sbuf",
                                          svc::RequestMode::verify))
                .cache_state,
            "hit");
}

TEST(AnalysisService, ByteAccountingCoversTheRealPayloads) {
  // The calibrated footprint must at least cover the payloads the entry
  // demonstrably owns, and a lazy upgrade must grow the charge (report +
  // canonical JSON + constraint sets join the entry).
  svc::AnalysisService service;
  const svc::AnalysisResponse verify = service.analyze(
      bench_request("imec-ram-read-sbuf", svc::RequestMode::verify));
  ASSERT_TRUE(verify.ok);
  const std::size_t verified_bytes = service.stats().bytes;
  ASSERT_GT(verified_bytes, 0u);

  const svc::AnalysisResponse derive =
      service.analyze(bench_request("imec-ram-read-sbuf"));
  ASSERT_TRUE(derive.ok);
  const std::size_t derived_bytes = service.stats().bytes;
  EXPECT_GT(derived_bytes, verified_bytes);
  ASSERT_NE(derive.canonical_json, nullptr);
  ASSERT_NE(derive.netlist_eqn, nullptr);
  EXPECT_GT(derived_bytes - verified_bytes, derive.canonical_json->size());
  EXPECT_GT(verified_bytes,
            derive.netlist_eqn->size());  // netlist was already charged
}

TEST(AnalysisService, MalformedRequestsFailWithoutPoisoningTheCache) {
  svc::AnalysisService service;
  svc::AnalysisRequest request;
  request.name = "broken";
  request.astg = "this is not an astg file";
  const svc::AnalysisResponse response = service.analyze(request);
  EXPECT_FALSE(response.ok);
  EXPECT_FALSE(response.error.empty());
  const svc::CacheStats stats = service.stats();
  EXPECT_EQ(stats.failures, 1);
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.misses, 0);
}

TEST(AnalysisService, ContentAddressingIgnoresNamesAndWhitespace) {
  // The same design under a different display name and with reformatted
  // astg text (extra comments/blank lines) maps to the same entry.
  const auto& bench = benchdata::benchmark("adfast");
  svc::AnalysisService service;
  ASSERT_TRUE(service.analyze(bench_request("adfast")).ok);

  svc::AnalysisRequest renamed;
  renamed.name = "some/other/path.g";
  renamed.astg = "# a comment the canonicalizer drops\n" + bench.astg;
  renamed.eqn = bench.eqn;
  const svc::AnalysisResponse response = service.analyze(renamed);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.cache_state, "hit");
  EXPECT_EQ(service.stats().misses, 1);
}

TEST(AnalysisService, WarmBenchmarkSuiteMakesTheWholeSuiteResident) {
  svc::AnalysisService service;
  const int loaded = service.warm_benchmark_suite();
  EXPECT_EQ(loaded,
            static_cast<int>(benchdata::all_benchmarks().size()));
  const svc::CacheStats stats = service.stats();
  EXPECT_EQ(stats.entries, loaded);
  for (const auto& bench : benchdata::all_benchmarks())
    EXPECT_EQ(service.analyze(bench_request(bench.name)).cache_state, "hit")
        << bench.name;
}

// ---- trace spans ---------------------------------------------------------

// Index of the span named `name` in `spans`, or -1.
int span_index(const std::vector<svc::TraceSpan>& spans,
               const std::string& name) {
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name == name) return static_cast<int>(i);
  return -1;
}

TEST(AnalysisService, TraceSpansNameEveryPhaseAndNestTheExpansion) {
  svc::AnalysisService service;

  // Untraced requests pay nothing and return no spans.
  const svc::AnalysisResponse quiet = service.analyze(bench_request("fifo"));
  ASSERT_TRUE(quiet.ok) << quiet.error;
  EXPECT_TRUE(quiet.spans.empty());

  svc::AnalysisRequest request = bench_request("ebergen");
  request.trace_spans = true;
  const svc::AnalysisResponse cold = service.analyze(request);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.phases_run, "decompose+verify+derive");

  // Every phase that ran appears as a span, in execution order, tagged
  // as a cold run; the expansion aggregate nests inside derive.
  const int parse = span_index(cold.spans, "parse");
  const int decompose = span_index(cold.spans, "decompose");
  const int verify = span_index(cold.spans, "verify");
  const int derive = span_index(cold.spans, "derive");
  const int expand = span_index(cold.spans, "expand");
  ASSERT_GE(parse, 0);
  ASSERT_GE(decompose, 0);
  ASSERT_GE(verify, 0);
  ASSERT_GE(derive, 0);
  ASSERT_GE(expand, 0);
  EXPECT_LT(parse, decompose);
  EXPECT_LT(decompose, verify);
  EXPECT_LT(verify, derive);
  for (const int at : {parse, decompose, verify, derive}) {
    EXPECT_EQ(cold.spans[at].detail, "cold") << cold.spans[at].name;
    EXPECT_TRUE(cold.spans[at].in.empty()) << cold.spans[at].name;
  }
  EXPECT_EQ(cold.spans[expand].in, "derive");
  EXPECT_LE(cold.spans[expand].seconds, cold.spans[derive].seconds);
  EXPECT_NE(cold.spans[expand].detail.find("jobs="), std::string::npos);

  // Top-level spans (empty `in`) are laid out back to back from the
  // start of handling: non-overlapping and within the wall time.
  double cursor = 0.0;
  double top_level_total = 0.0;
  for (const svc::TraceSpan& span : cold.spans) {
    if (!span.in.empty()) continue;
    EXPECT_GE(span.start + 1e-9, cursor) << span.name;
    cursor = span.start + span.seconds;
    top_level_total += span.seconds;
  }
  EXPECT_LE(top_level_total, cold.seconds + 1e-9);

  // A traced repeat is a cache hit: parse plus the cache span, no phases.
  const svc::AnalysisResponse hit = service.analyze(request);
  ASSERT_TRUE(hit.ok);
  EXPECT_EQ(hit.cache_state, "hit");
  const int cache = span_index(hit.spans, "cache");
  ASSERT_GE(cache, 0);
  EXPECT_EQ(hit.spans[cache].detail, "hit");
  EXPECT_LT(span_index(hit.spans, "parse"), cache);
  EXPECT_EQ(span_index(hit.spans, "decompose"), -1);

  // Tracing is envelope-only: the canonical report bytes match a fresh
  // untraced run of the same design.
  svc::AnalysisService untraced_service;
  const svc::AnalysisResponse untraced =
      untraced_service.analyze(bench_request("ebergen"));
  ASSERT_NE(cold.canonical_json, nullptr);
  ASSERT_NE(untraced.canonical_json, nullptr);
  EXPECT_EQ(*cold.canonical_json, *untraced.canonical_json);
}

TEST(AnalysisService, TraceSpansTagLazyUpgradesAsUpgrade) {
  svc::AnalysisService service;
  const svc::AnalysisResponse verified =
      service.analyze(bench_request("adfast", svc::RequestMode::verify));
  ASSERT_TRUE(verified.ok);

  svc::AnalysisRequest request =
      bench_request("adfast", svc::RequestMode::derive);
  request.trace_spans = true;
  const svc::AnalysisResponse upgraded = service.analyze(request);
  ASSERT_TRUE(upgraded.ok);
  EXPECT_EQ(upgraded.phases_run, "derive");

  // Only derive ran, and its span says it was a cache upgrade, not a
  // cold run; decompose/verify were served by the resident entry.
  const int derive = span_index(upgraded.spans, "derive");
  ASSERT_GE(derive, 0);
  EXPECT_EQ(upgraded.spans[derive].detail, "upgrade");
  EXPECT_EQ(span_index(upgraded.spans, "decompose"), -1);
  EXPECT_EQ(span_index(upgraded.spans, "verify"), -1);
}

// ---- cancellation and deadlines ------------------------------------------

TEST(AnalysisServiceCancel, ExpiredDeadlineFailsFastWithStructuredCode) {
  svc::AnalysisService service;
  svc::AnalysisRequest request = bench_request("adfast");
  request.cancel = core::CancelToken(core::Deadline::after_ms(
      1, std::chrono::steady_clock::now() - std::chrono::milliseconds(50)));
  const auto start = std::chrono::steady_clock::now();
  const svc::AnalysisResponse response = service.analyze(request);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, "deadline_exceeded");
  EXPECT_FALSE(response.error.empty());
  EXPECT_LT(elapsed_ms, 100.0);
  const svc::CacheStats stats = service.stats();
  EXPECT_EQ(stats.failures, 1);
  EXPECT_EQ(stats.deadline_exceeded, 1);
  EXPECT_EQ(stats.entries, 0);
  // A retry with no budget runs clean.
  const svc::AnalysisResponse retry =
      service.analyze(bench_request("adfast"));
  ASSERT_TRUE(retry.ok) << retry.error;
  EXPECT_EQ(retry.cache_state, "fresh");
}

TEST(AnalysisServiceCancel, PreCancelledFlagFailsWithCancelledCode) {
  svc::AnalysisService service;
  core::CancelSource source;
  source.request_cancel();
  svc::AnalysisRequest request = bench_request("adfast");
  request.cancel = source.token();
  const svc::AnalysisResponse response = service.analyze(request);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, "cancelled");
  EXPECT_NE(response.error.find("cancelled during"), std::string::npos)
      << response.error;
  // An entry with nothing past the parse is not retained.
  EXPECT_EQ(service.stats().entries, 0);
  ASSERT_TRUE(service.analyze(bench_request("adfast")).ok);
}

TEST(AnalysisServiceCancel, CancelledUpgradeParksEntryAndRerunsOnlyDerive) {
  // A verify entry whose derive upgrade is cancelled must keep its
  // decomposition + verdict, and the larger-budget retry runs ONLY the
  // derive phase — the resume-from-completed-phases contract.
  svc::AnalysisService service;
  const svc::AnalysisResponse verified = service.analyze(
      bench_request("imec-ram-read-sbuf", svc::RequestMode::verify));
  ASSERT_TRUE(verified.ok) << verified.error;

  core::CancelSource source;
  source.request_cancel();
  svc::AnalysisRequest cancelled = bench_request("imec-ram-read-sbuf");
  cancelled.cancel = source.token();
  const svc::AnalysisResponse failed = service.analyze(cancelled);
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(failed.error_code, "cancelled");

  EXPECT_EQ(service.analyze(bench_request("imec-ram-read-sbuf",
                                          svc::RequestMode::verify))
                .cache_state,
            "hit");
  const svc::AnalysisResponse retry =
      service.analyze(bench_request("imec-ram-read-sbuf"));
  ASSERT_TRUE(retry.ok) << retry.error;
  EXPECT_EQ(retry.cache_state, "upgraded");
  EXPECT_EQ(retry.phases_run, "derive");
  EXPECT_EQ(service.stats().decompose_runs, 1);

  // Byte-identical to a never-cancelled service's report.
  svc::AnalysisService reference;
  const svc::AnalysisResponse clean =
      reference.analyze(bench_request("imec-ram-read-sbuf"));
  ASSERT_TRUE(clean.ok);
  ASSERT_NE(retry.canonical_json, nullptr);
  ASSERT_NE(clean.canonical_json, nullptr);
  EXPECT_EQ(*retry.canonical_json, *clean.canonical_json);
}

TEST(CancellationStress, MidRunCancelNeverChangesTheRerunReport) {
  // A cancel landing anywhere inside a jobs=4 run must never leak
  // partial state (SgCache entries, half-advanced phases) into the
  // answer: whatever the interleaving, the rerun's canonical report is
  // byte-identical to a serial never-cancelled run's. This is the
  // TSan-targeted stress: the cancel flag races every hot-loop poll.
  svc::ServiceOptions serial;
  serial.jobs = 1;
  svc::AnalysisService reference(serial);
  const svc::AnalysisResponse clean =
      reference.analyze(bench_request("imec-ram-read-sbuf"));
  ASSERT_TRUE(clean.ok) << clean.error;
  ASSERT_NE(clean.canonical_json, nullptr);

  for (int round = 0; round < 6; ++round) {
    svc::ServiceOptions options;
    options.jobs = 4;
    svc::AnalysisService service(options);
    core::CancelSource source;
    svc::AnalysisRequest request = bench_request("imec-ram-read-sbuf");
    request.cancel = source.token();
    svc::AnalysisResponse raced;
    std::thread runner([&] { raced = service.analyze(request); });
    std::this_thread::sleep_for(std::chrono::microseconds(200 * round));
    source.request_cancel();
    runner.join();
    if (!raced.ok)
      EXPECT_EQ(raced.error_code, "cancelled") << raced.error;

    const svc::AnalysisResponse rerun =
        service.analyze(bench_request("imec-ram-read-sbuf"));
    ASSERT_TRUE(rerun.ok) << "round " << round << ": " << rerun.error;
    ASSERT_NE(rerun.canonical_json, nullptr);
    EXPECT_EQ(*rerun.canonical_json, *clean.canonical_json)
        << "round " << round;
  }
}

TEST(AnalysisService, WarmStopFlagExitsBetweenDesigns) {
  svc::AnalysisService service;
  std::atomic<bool> stop{true};
  EXPECT_EQ(service.warm_benchmark_suite(&stop), 0);
  EXPECT_EQ(service.stats().entries, 0);
}

// ---- deterministic fault injection ---------------------------------------

TEST(FaultInjection, EveryFlowPointFailsStructuredAndRecovers) {
  if (!base::fault_injection_compiled_in())
    GTEST_SKIP() << "built without SITIME_FAULTS";
  svc::AnalysisService reference;
  const svc::AnalysisResponse clean =
      reference.analyze(bench_request("imec-ram-read-sbuf"));
  ASSERT_TRUE(clean.ok);
  ASSERT_NE(clean.canonical_json, nullptr);

  for (const svc::FaultPoint point :
       {svc::FaultPoint::parse, svc::FaultPoint::decompose,
        svc::FaultPoint::sg_build}) {
    svc::AnalysisService service;
    {
      svc::FaultScope fault(point, /*nth=*/1);
      const svc::AnalysisResponse failed =
          service.analyze(bench_request("imec-ram-read-sbuf"));
      EXPECT_FALSE(failed.ok) << base::fault_point_name(point);
      EXPECT_EQ(failed.error_code, "analysis_error")
          << base::fault_point_name(point);
      EXPECT_NE(failed.error.find("injected fault"), std::string::npos)
          << failed.error;
    }
    // Out of scope the injector is inert; the service recovered and the
    // rerun's report is byte-identical to the fault-free reference.
    const svc::AnalysisResponse recovered =
        service.analyze(bench_request("imec-ram-read-sbuf"));
    ASSERT_TRUE(recovered.ok)
        << base::fault_point_name(point) << ": " << recovered.error;
    ASSERT_NE(recovered.canonical_json, nullptr);
    EXPECT_EQ(*recovered.canonical_json, *clean.canonical_json)
        << base::fault_point_name(point);
  }
}

TEST(FaultInjection, CacheInsertFaultServesTheResponseButSkipsRetention) {
  if (!base::fault_injection_compiled_in())
    GTEST_SKIP() << "built without SITIME_FAULTS";
  svc::AnalysisService service;
  {
    svc::FaultScope fault(svc::FaultPoint::cache_insert, /*nth=*/1);
    const svc::AnalysisResponse served =
        service.analyze(bench_request("adfast"));
    ASSERT_TRUE(served.ok) << served.error;  // the response is unaffected
    EXPECT_EQ(service.stats().entries, 0);   // retention was skipped
  }
  const svc::AnalysisResponse rerun =
      service.analyze(bench_request("adfast"));
  ASSERT_TRUE(rerun.ok);
  EXPECT_EQ(rerun.cache_state, "fresh");  // nothing was resident
  EXPECT_EQ(service.stats().entries, 1);
}

TEST(FaultInjection, SeededFaultStormKeepsEveryResponseWellFormed) {
  if (!base::fault_injection_compiled_in())
    GTEST_SKIP() << "built without SITIME_FAULTS";
  // Reference canonicals from a fault-free service.
  std::map<std::string, std::string> reference;
  {
    svc::AnalysisService clean;
    for (const auto& bench : benchdata::all_benchmarks()) {
      const svc::AnalysisResponse response =
          clean.analyze(bench_request(bench.name));
      ASSERT_TRUE(response.ok) << bench.name << ": " << response.error;
      ASSERT_NE(response.canonical_json, nullptr);
      reference[bench.name] = *response.canonical_json;
    }
  }
  // CI sweeps SITIME_FAULT_SEED over several seeds; 1 is the default.
  const std::uint64_t seed = base::fault_env_seed(1);
  long long failures = 0;
  {
    base::FaultScope storm(seed, /*period=*/3);
    svc::AnalysisService service;
    for (int round = 0; round < 3; ++round)
      for (const auto& bench : benchdata::all_benchmarks()) {
        const svc::AnalysisResponse response =
            service.analyze(bench_request(bench.name));
        if (response.ok) {
          // A response that made it out must be byte-identical to the
          // fault-free answer — faults fail requests, never skew them.
          if (response.canonical_json != nullptr)
            EXPECT_EQ(*response.canonical_json, reference[bench.name])
                << "seed " << seed << " perturbed " << bench.name;
        } else {
          ++failures;
          EXPECT_FALSE(response.error.empty()) << bench.name;
          EXPECT_FALSE(response.error_code.empty()) << bench.name;
        }
      }
  }
  EXPECT_GT(failures, 0) << "storm at period 3 never fired";
  // Out of scope the injector is inert again: a clean service matches.
  svc::AnalysisService after;
  const svc::AnalysisResponse response =
      after.analyze(bench_request("imec-ram-read-sbuf"));
  ASSERT_TRUE(response.ok) << response.error;
  ASSERT_NE(response.canonical_json, nullptr);
  EXPECT_EQ(*response.canonical_json, reference["imec-ram-read-sbuf"]);
}

// ---- decomposition reuse (the flow API the service is built on) ---------

TEST(FlowDecompositionReuse, OneDecompositionFeedsVerifyAndDerive) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);

  const core::FlowDecomposition decomposition =
      core::decompose_flow(stg, circuit);
  EXPECT_EQ(core::verify_speed_independent(decomposition, circuit),
            core::verify_speed_independent(stg, circuit));

  core::FlowOptions options;
  const core::FlowResult reused =
      core::derive_timing_constraints(decomposition, stg, circuit, options);
  const core::FlowResult classic =
      core::derive_timing_constraints(stg, circuit, options);
  EXPECT_EQ(reused.before, classic.before);
  EXPECT_EQ(reused.after, classic.after);
  EXPECT_EQ(reused.state_count, classic.state_count);
  EXPECT_EQ(reused.mg_component_count, classic.mg_component_count);
}

TEST(FlowSharedSgCache, ExternalCacheCarriesHitsAcrossRuns) {
  const auto& bench = benchdata::benchmark("adfast");
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);

  sg::SgCache shared;
  core::FlowOptions options;
  options.sg_cache = &shared;
  const core::FlowResult first =
      core::derive_timing_constraints(stg, circuit, options);
  const core::FlowResult second =
      core::derive_timing_constraints(stg, circuit, options);
  // The first run populated the shared cache, so the second run's delta
  // has strictly fewer misses — and identical constraints.
  EXPECT_LT(second.cache_misses, first.cache_misses);
  EXPECT_EQ(second.before, first.before);
  EXPECT_EQ(second.after, first.after);
  EXPECT_EQ(shared.hits(), first.cache_hits + second.cache_hits);
}

/// The value of the sample `series` in a Prometheus exposition, or -1
/// when absent.
double sample(const std::string& text, const std::string& series) {
  const auto at = text.find("\n" + series + " ");
  if (at == std::string::npos) return -1;
  return std::stod(text.substr(at + series.size() + 2));
}

TEST(FlowSharedSgCache, EverySgBuildLatencyIsOneSgCacheMiss) {
  // Verify-only runs: no verify build throws, so every miss completes its
  // build and makes exactly one latency observation.
  svc::AnalysisService service;
  for (const auto& bench : benchdata::all_benchmarks()) {
    const svc::AnalysisResponse response =
        service.analyze(bench_request(bench.name, svc::RequestMode::verify));
    ASSERT_TRUE(response.ok) << bench.name << ": " << response.error;
  }
  const std::string text = service.metrics().render_prometheus();
  const double misses = sample(text, "sitime_sg_cache_misses_total");
  EXPECT_GT(misses, 0);
  EXPECT_EQ(sample(text, "sitime_sg_build_seconds_count"), misses);
  EXPECT_EQ(service.stats().sg_cache_misses, misses);
}

TEST(LocalStgMemoService, VerifyProjectsEachJobOnceAndChargesTheMemo) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  const core::FlowDecomposition decomposition =
      core::decompose_flow(stg, circuit);
  const std::size_t bare = svc::footprint(decomposition);
  ASSERT_EQ(core::verify_speed_independent(decomposition, circuit), "");
  const std::size_t with_memo = svc::footprint(decomposition);
  EXPECT_GT(with_memo, bare);
  const double jobs = static_cast<double>(decomposition.jobs.size());

  svc::AnalysisService service;
  ASSERT_TRUE(service
                  .analyze(bench_request(bench.name, svc::RequestMode::verify))
                  .ok);
  std::string text = service.metrics().render_prometheus();
  EXPECT_EQ(sample(text, "sitime_local_stg_memo_misses_total"), jobs);
  EXPECT_EQ(sample(text, "sitime_local_stg_memo_hits_total"), 0);
  // The verified entry pays for the decomposition with its memo, on top
  // of the STG and netlist it holds.
  EXPECT_GE(service.stats().bytes, sizeof(core::FlowDecomposition) +
                                       with_memo + svc::footprint(stg) +
                                       svc::footprint(circuit));

  // The derive upgrade projects nothing.
  ASSERT_TRUE(service.analyze(bench_request(bench.name)).ok);
  text = service.metrics().render_prometheus();
  EXPECT_EQ(sample(text, "sitime_local_stg_memo_misses_total"), jobs);
  EXPECT_EQ(sample(text, "sitime_local_stg_memo_hits_total"), jobs);
}

TEST(JobOutcomeMemoService, AnEditRerunsOnlyItsGateAndTheOutcomesAreCharged) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  const core::FlowDecomposition decomposition =
      core::decompose_flow(stg, circuit);
  ASSERT_EQ(core::verify_speed_independent(decomposition, circuit), "");
  const std::size_t verified = svc::footprint(decomposition);
  core::derive_timing_constraints(decomposition, stg, circuit, {});
  // The derivations are charged on top of the verdicts, each outcome as
  // its own footprint plus its map node.
  EXPECT_GT(svc::footprint(decomposition), verified);
  std::size_t outcomes = 0;
  for (const core::MemoizedOutcome& slot : decomposition.memoized_outcomes())
    outcomes += svc::footprint(slot.outcome);
  EXPECT_GE(svc::footprint(decomposition), outcomes);
  ASSERT_EQ(decomposition.memoized_outcomes().size(),
            decomposition.jobs.size());
  const double jobs = static_cast<double>(decomposition.jobs.size());

  // A cold derive computes every job's outcome; an edit of one gate of
  // the same STG computes only that gate's (one job per MG component).
  svc::AnalysisService service;
  ASSERT_TRUE(service.analyze(bench_request(bench.name)).ok);
  const auto counters = [&service](const char* outcome, const char* phase) {
    return sample(service.metrics().render_prometheus(),
                  std::string("sitime_job_outcome_memo_") + outcome +
                      "_total{phase=\"" + phase + "\"}");
  };
  for (const char* phase : {"verify", "derive"}) {
    EXPECT_EQ(counters("misses", phase), jobs) << phase;
    EXPECT_EQ(counters("hits", phase), 0) << phase;
  }
  svc::AnalysisRequest edited = bench_request(bench.name);
  const std::string gate = "ack = ";
  const auto at = edited.eqn.find(gate);
  ASSERT_NE(at, std::string::npos);
  edited.eqn.insert(at + gate.size(), "i0' + ");
  const svc::AnalysisResponse response = service.analyze(edited);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.cache_state, "fresh");
  const double components =
      static_cast<double>(decomposition.component_stgs.size());
  for (const char* phase : {"verify", "derive"}) {
    EXPECT_EQ(counters("misses", phase), jobs + components) << phase;
    EXPECT_EQ(counters("hits", phase), jobs - components) << phase;
  }
  svc::ServiceOptions off;
  off.cache_budget_bytes = 0;
  svc::AnalysisService cold(off);
  const svc::AnalysisResponse reference = cold.analyze(edited);
  ASSERT_TRUE(reference.ok) << reference.error;
  EXPECT_EQ(*response.canonical_json, *reference.canonical_json);
}

TEST(LocalStgMemoService, ResidentBytesStayUnderATightBudget) {
  // Calibrate on an unlimited budget, then rerun the traffic (verify then
  // derive of every bundled design, then its netlist-free form, which
  // shares the decomposition) under a third of what it left resident: the
  // charge, memo included, never exceeds the budget.
  std::vector<svc::AnalysisRequest> traffic;
  for (const auto& bench : benchdata::all_benchmarks()) {
    traffic.push_back(bench_request(bench.name, svc::RequestMode::verify));
    traffic.push_back(bench_request(bench.name));
    svc::AnalysisRequest edited = bench_request(bench.name);
    edited.eqn.clear();
    traffic.push_back(edited);
  }
  svc::AnalysisService wide;
  for (const svc::AnalysisRequest& request : traffic)
    ASSERT_TRUE(wide.analyze(request).ok) << request.name;
  ASSERT_EQ(wide.stats().evictions, 0);

  svc::ServiceOptions options;
  options.cache_budget_bytes = wide.stats().bytes / 3;
  svc::AnalysisService tight(options);
  for (const svc::AnalysisRequest& request : traffic) {
    ASSERT_TRUE(tight.analyze(request).ok) << request.name;
    const svc::CacheStats stats = tight.stats();
    EXPECT_LE(stats.bytes, stats.budget_bytes) << request.name;
  }
  EXPECT_GT(tight.stats().evictions, 0);
}

// ---- the exact-bytes index ----------------------------------------------

/// Detail of the response's "parse" span ("exact" when the exact-bytes
/// index answered, "cold" when the request was parsed); the request must
/// have set trace_spans.
std::string parse_detail(const svc::AnalysisResponse& response) {
  const int at = span_index(response.spans, "parse");
  return at < 0 ? "(none)" : response.spans[at].detail;
}

double exact_hits(svc::AnalysisService& service) {
  return sample(service.metrics().render_prometheus(),
                "sitime_exact_request_hits_total");
}

svc::AnalysisRequest traced(svc::AnalysisRequest request) {
  request.trace_spans = true;
  return request;
}

TEST(ExactBytesIndex, VerifyThenDeriveUpgradeSkipsTheParseAndMatchesCold) {
  svc::AnalysisService cold;
  const svc::AnalysisResponse reference =
      cold.analyze(bench_request("imec-ram-read-sbuf"));
  ASSERT_TRUE(reference.ok) << reference.error;

  svc::AnalysisService service;
  const svc::AnalysisResponse verified = service.analyze(traced(
      bench_request("imec-ram-read-sbuf", svc::RequestMode::verify)));
  ASSERT_TRUE(verified.ok) << verified.error;
  EXPECT_EQ(parse_detail(verified), "cold");
  EXPECT_EQ(service.exact_slots(), 1u);
  EXPECT_EQ(exact_hits(service), 0);

  const svc::AnalysisResponse upgraded =
      service.analyze(traced(bench_request("imec-ram-read-sbuf")));
  ASSERT_TRUE(upgraded.ok) << upgraded.error;
  EXPECT_EQ(upgraded.cache_state, "upgraded");
  EXPECT_EQ(upgraded.phases_run, "derive");
  EXPECT_EQ(parse_detail(upgraded), "exact");
  EXPECT_EQ(exact_hits(service), 1);
  EXPECT_EQ(upgraded.key, reference.key);
  ASSERT_NE(upgraded.canonical_json, nullptr);
  EXPECT_EQ(*upgraded.canonical_json, *reference.canonical_json);
  ASSERT_NE(upgraded.netlist_eqn, nullptr);
  EXPECT_EQ(*upgraded.netlist_eqn, *reference.netlist_eqn);

  // The parse histogram still counts every request, exact ones included.
  EXPECT_EQ(sample(service.metrics().render_prometheus(),
                   "sitime_phase_seconds_count{phase=\"parse\","
                   "source=\"cold\"}"),
            2);
}

TEST(ExactBytesIndex, ByteVariantTakesTheCanonicalPathToTheSameEntry) {
  const auto& bench = benchdata::benchmark("adfast");
  svc::AnalysisService service;
  const svc::AnalysisResponse first =
      service.analyze(bench_request("adfast"));
  ASSERT_TRUE(first.ok) << first.error;

  svc::AnalysisRequest variant = bench_request("adfast");
  variant.astg = "# a comment the canonicalizer drops\n" + bench.astg;
  const svc::AnalysisResponse response = service.analyze(traced(variant));
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.cache_state, "hit");
  EXPECT_EQ(response.key, first.key);
  EXPECT_EQ(parse_detail(response), "cold");
  EXPECT_EQ(response.canonical_json.get(), first.canonical_json.get());
  // Only the entry's creator registered its bytes; the variant stays
  // on the canonical path every time.
  EXPECT_EQ(service.exact_slots(), 1u);
  EXPECT_EQ(parse_detail(service.analyze(traced(variant))), "cold");
  EXPECT_EQ(exact_hits(service), 0);
}

TEST(ExactBytesIndex, SplitPointAndNetlistPresenceNeverAlias) {
  // ("astg\n", "eqn") and ("astg", "\neqn") concatenate to the same
  // bytes; the length prefix keeps them apart. Both parse to the same
  // design, so the second is a canonical hit, not an exact one.
  const auto& imec = benchdata::benchmark("imec-ram-read-sbuf");
  ASSERT_EQ(imec.astg.back(), '\n');
  svc::AnalysisService service;
  ASSERT_TRUE(service.analyze(bench_request(imec.name)).ok);
  svc::AnalysisRequest moved = bench_request(imec.name);
  moved.astg.pop_back();
  moved.eqn = "\n" + imec.eqn;
  const svc::AnalysisResponse split = service.analyze(traced(moved));
  ASSERT_TRUE(split.ok) << split.error;
  EXPECT_EQ(split.cache_state, "hit");
  EXPECT_EQ(parse_detail(split), "cold");
  EXPECT_EQ(exact_hits(service), 0);

  // A netlist-free request and an explicit one of the same STG are two
  // designs: neither may be answered with the other's entry.
  const svc::AnalysisResponse free_form =
      service.analyze(bench_request("adfast"));
  ASSERT_TRUE(free_form.ok) << free_form.error;
  ASSERT_NE(free_form.netlist_eqn, nullptr);
  svc::AnalysisRequest explicit_form = bench_request("adfast");
  explicit_form.eqn = *free_form.netlist_eqn;
  svc::AnalysisService reference;
  const svc::AnalysisResponse expected = reference.analyze(explicit_form);
  ASSERT_TRUE(expected.ok) << expected.error;
  ASSERT_NE(expected.key, free_form.key);

  const svc::AnalysisResponse response =
      service.analyze(traced(explicit_form));
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.cache_state, "fresh");
  EXPECT_EQ(parse_detail(response), "cold");
  EXPECT_EQ(response.key, expected.key);
  EXPECT_EQ(*response.canonical_json, *expected.canonical_json);
  // Each form now hits its own entry by its own bytes.
  const svc::AnalysisResponse free_again =
      service.analyze(traced(bench_request("adfast")));
  EXPECT_EQ(parse_detail(free_again), "exact");
  EXPECT_EQ(free_again.key, free_form.key);
  const svc::AnalysisResponse explicit_again =
      service.analyze(traced(explicit_form));
  EXPECT_EQ(parse_detail(explicit_again), "exact");
  EXPECT_EQ(explicit_again.key, expected.key);
  EXPECT_EQ(exact_hits(service), 2);
}

TEST(ExactBytesIndex, EvictedEntryFallsBackToTheCanonicalPath) {
  std::size_t size_a = 0, size_b = 0;
  {
    svc::AnalysisService probe;
    ASSERT_TRUE(probe.analyze(bench_request("adfast")).ok);
    size_a = probe.stats().bytes;
    ASSERT_TRUE(probe.analyze(bench_request("atod")).ok);
    size_b = probe.stats().bytes - size_a;
  }
  svc::ServiceOptions options;
  options.cache_budget_bytes = std::max(size_a, size_b);
  svc::AnalysisService service(options);

  const svc::AnalysisResponse first =
      service.analyze(bench_request("adfast"));
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_TRUE(service.analyze(bench_request("atod")).ok);  // evicts adfast
  ASSERT_EQ(service.stats().evictions, 1);

  const svc::AnalysisResponse again =
      service.analyze(traced(bench_request("adfast")));
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.cache_state, "fresh");
  EXPECT_EQ(parse_detail(again), "cold");
  EXPECT_EQ(again.key, first.key);
  EXPECT_EQ(*again.canonical_json, *first.canonical_json);
  EXPECT_EQ(exact_hits(service), 0);
  // The re-created entry registered its bytes again; atod, now evicted,
  // misses the index too.
  EXPECT_EQ(parse_detail(service.analyze(traced(bench_request("adfast")))),
            "exact");
  EXPECT_EQ(parse_detail(service.analyze(traced(bench_request("atod")))),
            "cold");
  EXPECT_LE(service.stats().bytes, service.stats().budget_bytes);
}

TEST(ExactBytesIndex, ZeroBudgetLeavesTheIndexEmpty) {
  svc::ServiceOptions options;
  options.cache_budget_bytes = 0;
  svc::AnalysisService service(options);
  for (int round = 0; round < 3; ++round) {
    const svc::AnalysisResponse response =
        service.analyze(traced(bench_request("adfast")));
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.cache_state, "fresh");
    EXPECT_EQ(parse_detail(response), "cold");
  }
  EXPECT_EQ(service.exact_slots(), 0u);
  EXPECT_EQ(exact_hits(service), 0);
}

TEST(ExactBytesIndex, TheIndexCopyIsChargedToItsEntry) {
  // Trailing blank lines in the netlist change the request bytes but
  // nothing the entry parses or keys, so only the index's copy of the
  // text can account for the difference.
  const std::string padding(20000, '\n');
  svc::AnalysisService plain;
  const svc::AnalysisResponse reference =
      plain.analyze(bench_request("imec-ram-read-sbuf"));
  ASSERT_TRUE(reference.ok) << reference.error;
  svc::AnalysisService padded;
  svc::AnalysisRequest request = bench_request("imec-ram-read-sbuf");
  request.eqn += padding;
  const svc::AnalysisResponse response = padded.analyze(request);
  ASSERT_TRUE(response.ok) << response.error;
  ASSERT_EQ(response.key, reference.key);
  EXPECT_GE(padded.stats().bytes, plain.stats().bytes + padding.size());
}

TEST(ExactBytesIndex, AnSTGCommentLeavesNoSlackInTheChargedKey) {
  // The same design sent behind a 20 000-byte STG comment and bare, with
  // the bare request's netlist padded so both request texts (and so both
  // exact-bytes index copies) are equally long. The entries parse to the
  // same STG, netlist and key, so the charges can differ only by slack
  // left in the canonical key.
  const std::string comment = "#" + std::string(20000, 'x') + "\n";
  svc::AnalysisRequest padded = bench_request("imec-ram-read-sbuf");
  padded.astg = comment + padded.astg;
  svc::AnalysisRequest bare = bench_request("imec-ram-read-sbuf");
  bare.eqn += std::string(comment.size() +
                              std::to_string(padded.astg.size()).size() -
                              std::to_string(bare.astg.size()).size(),
                          '\n');
  ASSERT_EQ(std::to_string(padded.astg.size()).size() + padded.astg.size() +
                padded.eqn.size(),
            std::to_string(bare.astg.size()).size() + bare.astg.size() +
                bare.eqn.size());

  svc::AnalysisService padded_service;
  const svc::AnalysisResponse padded_response = padded_service.analyze(padded);
  ASSERT_TRUE(padded_response.ok) << padded_response.error;
  svc::AnalysisService bare_service;
  const svc::AnalysisResponse bare_response = bare_service.analyze(bare);
  ASSERT_TRUE(bare_response.ok) << bare_response.error;
  ASSERT_EQ(padded_response.key, bare_response.key);
  EXPECT_EQ(padded_service.stats().bytes, bare_service.stats().bytes);
}

TEST(ExactBytesIndex, ParseFaultStillFiresOnAByteExactRepeat) {
  if (!base::fault_injection_compiled_in())
    GTEST_SKIP() << "built without SITIME_FAULTS";
  svc::AnalysisService service;
  const svc::AnalysisResponse first =
      service.analyze(bench_request("imec-ram-read-sbuf"));
  ASSERT_TRUE(first.ok) << first.error;
  {
    svc::FaultScope fault(svc::FaultPoint::parse, /*nth=*/1);
    const svc::AnalysisResponse failed =
        service.analyze(bench_request("imec-ram-read-sbuf"));
    EXPECT_FALSE(failed.ok);
    EXPECT_EQ(failed.error_code, "analysis_error");
    EXPECT_NE(failed.error.find("injected fault"), std::string::npos)
        << failed.error;
  }
  EXPECT_EQ(exact_hits(service), 0);
  const svc::AnalysisResponse served =
      service.analyze(bench_request("imec-ram-read-sbuf"));
  ASSERT_TRUE(served.ok) << served.error;
  EXPECT_EQ(served.cache_state, "hit");
  EXPECT_EQ(exact_hits(service), 1);
}

TEST(ExactBytesIndexRace, IdenticalAndVariantRequestsUnderEvictionMatchCold) {
  // Four threads send byte-identical and byte-variant requests of three
  // designs, both modes, under a budget that fits the largest design
  // alone: the index sees creations, hits, evictions and re-creations
  // concurrently, and every answer must still be the cold one.
  const std::vector<std::string> names = {"adfast", "atod",
                                          "imec-ram-read-sbuf"};
  std::map<std::string, svc::AnalysisResponse> cold;
  std::size_t largest = 0;
  for (const std::string& name : names) {
    svc::AnalysisService fresh;
    cold[name] = fresh.analyze(bench_request(name));
    ASSERT_TRUE(cold[name].ok) << name << ": " << cold[name].error;
    largest = std::max(largest, fresh.stats().bytes);
  }
  svc::ServiceOptions options;
  options.cache_budget_bytes = largest;
  options.jobs = 2;
  svc::AnalysisService service(options);

  constexpr int kThreads = 4;
  constexpr int kRounds = 24;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const std::string& name = names[(t + round) % names.size()];
        svc::AnalysisRequest request = bench_request(
            name, (t + round) % 3 == 0 ? svc::RequestMode::verify
                                       : svc::RequestMode::derive);
        if ((t * kRounds + round) % 4 == 1)
          request.astg = "# variant " + std::to_string(t) + "\n" +
                         request.astg;
        const svc::AnalysisResponse response = service.analyze(request);
        const svc::AnalysisResponse& expected = cold[name];
        bool same = response.ok && response.key == expected.key &&
                    response.speed_independent ==
                        expected.speed_independent &&
                    response.netlist_eqn != nullptr &&
                    *response.netlist_eqn == *expected.netlist_eqn;
        if (request.mode == svc::RequestMode::derive)
          same = same && response.canonical_json != nullptr &&
                 *response.canonical_json == *expected.canonical_json;
        if (!same) mismatches.fetch_add(1);
      }
    });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  const svc::CacheStats stats = service.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.bytes, stats.budget_bytes);
  EXPECT_GT(exact_hits(service), 0);
}

// ---- cache provenance in reports -----------------------------------------

TEST(FlowReportProvenance, ToJsonCarriesCacheProvenanceWhenPresent) {
  svc::AnalysisService service;
  const svc::AnalysisResponse response =
      service.analyze(bench_request("adfast"));
  ASSERT_TRUE(response.ok);
  core::FlowReport report = *response.report;
  report.design = "adfast";
  report.cache_state = response.cache_state;
  const std::string json = core::to_json(report);
  EXPECT_NE(json.find("\"cache_provenance\""), std::string::npos);
  EXPECT_NE(json.find("\"content_hash\": \"" + response.key + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"state\": \"fresh\""), std::string::npos);

  // The canonical body embeds the content hash but never the volatile
  // fields (timings, worker counts, cache counters).
  ASSERT_NE(response.canonical_json, nullptr);
  const std::string& canonical = *response.canonical_json;
  EXPECT_NE(canonical.find(response.key), std::string::npos);
  EXPECT_EQ(canonical.find("seconds"), std::string::npos);
  EXPECT_EQ(canonical.find("cache_state"), std::string::npos);
  EXPECT_EQ(canonical.find('\n'), std::string::npos);
}

// ---- the minimal JSON reader ---------------------------------------------

TEST(SvcJson, ParsesTheWholeValueGrammar) {
  const svc::JsonValue value = svc::parse_json(
      R"({"s": "a\"b\\c\nA", "n": -2.5e1, "i": 42, "b": true,)"
      R"( "z": null, "a": [1, "two", {"k": false}], "o": {"x": 1}})");
  ASSERT_TRUE(value.is_object());
  EXPECT_EQ(value.get("s").as_string(), "a\"b\\c\nA");
  EXPECT_DOUBLE_EQ(value.get("n").as_number(), -25.0);
  EXPECT_EQ(value.int_or("i", 0), 42);
  EXPECT_TRUE(value.get("b").as_bool());
  EXPECT_TRUE(value.get("z").is_null());
  EXPECT_TRUE(value.get("missing").is_null());
  ASSERT_EQ(value.get("a").as_array().size(), 3u);
  EXPECT_EQ(value.get("a").as_array()[1].as_string(), "two");
  EXPECT_FALSE(value.get("a").as_array()[2].get("k").as_bool());
  EXPECT_EQ(value.get("o").get("x").as_number(), 1.0);
  EXPECT_EQ(value.string_or("s", "?"), "a\"b\\c\nA");
  EXPECT_EQ(value.string_or("missing", "fallback"), "fallback");
  EXPECT_EQ(value.int_or("missing", 7), 7);
}

TEST(SvcJson, CombinesSurrogatePairsIntoValidUtf8) {
  // 😀 is U+1F600; the reader must emit the single 4-byte UTF-8
  // sequence, not two 3-byte CESU-8 surrogate halves.
  const svc::JsonValue value =
      svc::parse_json("{\"s\": \"\\ud83d\\ude00\"}");
  EXPECT_EQ(value.get("s").as_string(), "\xf0\x9f\x98\x80");
  EXPECT_THROW(svc::parse_json(R"(["\ud83d"])"), Error);   // lone high
  EXPECT_THROW(svc::parse_json(R"(["\ude00"])"), Error);   // lone low
  EXPECT_THROW(svc::parse_json(R"(["\ud83dA"])"), Error);  // broken pair
}

TEST(SvcJson, RejectsMalformedDocuments) {
  EXPECT_THROW(svc::parse_json(""), Error);
  EXPECT_THROW(svc::parse_json("{"), Error);
  EXPECT_THROW(svc::parse_json("{\"a\": }"), Error);
  EXPECT_THROW(svc::parse_json("[1, 2"), Error);
  EXPECT_THROW(svc::parse_json("\"unterminated"), Error);
  EXPECT_THROW(svc::parse_json("tru"), Error);
  EXPECT_THROW(svc::parse_json("12x"), Error);
  EXPECT_THROW(svc::parse_json("{} trailing"), Error);
  EXPECT_THROW(svc::parse_json("{\"a\": 1} {\"b\": 2}"), Error);
}

TEST(SvcJson, AccessorsThrowOnKindMismatch) {
  const svc::JsonValue value = svc::parse_json(R"({"n": 1, "s": "x"})");
  EXPECT_THROW(value.get("n").as_string(), Error);
  EXPECT_THROW(value.get("s").as_number(), Error);
  EXPECT_THROW(value.get("s").get("member"), Error);
  EXPECT_THROW(value.int_or("s", 0), Error);
  EXPECT_THROW(svc::parse_json(R"({"f": 1.5})").int_or("f", 0), Error);
}

}  // namespace
}  // namespace sitime
