// Incremental edits through the service's two cache tiers: an edited
// design whose whole-design key misses reuses the STG's cached
// decomposition and still produces output byte-identical to a cold run at
// any worker count. Also covers the shared byte budget (designs take
// priority over decompositions), retention faults, and the counters of an
// edit session under a tight budget.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "benchdata/benchmarks.hpp"
#include "svc/analysis_service.hpp"

namespace sitime {
namespace {

/// The editor's keystroke, as the tests and benches model it: duplicate the
/// first cube of `gate`'s equation. parse_eqn/write_eqn keep cube order and
/// duplicates, so the edit survives canonicalization and changes the
/// whole-design content key — while the gate still computes the same
/// function, so the design stays speed independent and its STG (the
/// decomposition-cache key) is untouched.
std::string duplicate_first_cube(const std::string& eqn,
                                 const std::string& gate) {
  const std::string lhs = gate + " = ";
  const auto at = eqn.find(lhs);
  EXPECT_NE(at, std::string::npos) << "no equation for " << gate;
  const auto rhs = at + lhs.size();
  auto end = eqn.find('+', rhs);
  const auto semi = eqn.find(';', rhs);
  if (end == std::string::npos || semi < end) end = semi;
  const std::string first = eqn.substr(rhs, end - rhs);
  std::string mutated = eqn;
  mutated.insert(rhs, first + " + ");
  return mutated;
}

svc::AnalysisRequest derive_request(const std::string& name,
                                    const std::string& astg,
                                    const std::string& eqn, int jobs = 0) {
  svc::AnalysisRequest request;
  request.name = name;
  request.astg = astg;
  request.eqn = eqn;
  request.mode = svc::RequestMode::derive;
  request.jobs = jobs;
  return request;
}

TEST(IncrementalService, NetlistOnlyEditReusesDecomposition) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");

  svc::AnalysisService service;
  const auto cold =
      service.analyze(derive_request(bench.name, bench.astg, bench.eqn));
  ASSERT_TRUE(cold.ok) << cold.error;
  const svc::CacheStats stats = service.stats();
  EXPECT_EQ(stats.decomp_hits, 0);
  EXPECT_EQ(stats.decomp_misses, 1);
  EXPECT_EQ(stats.decomp_entries, 1);
  EXPECT_GT(stats.decomp_bytes, 0u);
  EXPECT_EQ(stats.decompose_runs, 1);

  // Netlist-only edit: the whole-design key misses but the STG is
  // untouched, so the decomposition cache serves the entire
  // FlowDecomposition — the global-SG rebuild is skipped, which the
  // unchanged decompose_runs counter proves.
  const std::string mutated = duplicate_first_cube(bench.eqn, "ack");
  const auto delta =
      service.analyze(derive_request(bench.name, bench.astg, mutated));
  ASSERT_TRUE(delta.ok) << delta.error;
  EXPECT_EQ(delta.cache_state, "fresh");
  EXPECT_NE(delta.phases_run.find("decompose"), std::string::npos);
  const svc::CacheStats after = service.stats();
  EXPECT_EQ(after.decomp_hits, 1);
  EXPECT_EQ(after.decomp_misses, 1);
  EXPECT_EQ(after.decompose_runs, stats.decompose_runs);

  // Byte-identical to a service that never had a cache tier.
  ASSERT_NE(delta.canonical_json, nullptr);
  svc::ServiceOptions off;
  off.cache_budget_bytes = 0;
  svc::AnalysisService fresh(off);
  const auto reference =
      fresh.analyze(derive_request(bench.name, bench.astg, mutated));
  ASSERT_TRUE(reference.ok) << reference.error;
  ASSERT_NE(reference.canonical_json, nullptr);
  EXPECT_EQ(*reference.canonical_json, *delta.canonical_json);
  // A disabled decomposition cache records no traffic at all.
  const svc::CacheStats off_stats = fresh.stats();
  EXPECT_EQ(off_stats.decomp_hits + off_stats.decomp_misses, 0);
  EXPECT_EQ(off_stats.decomp_bytes, 0u);
}

TEST(IncrementalService, ReportBytesIdenticalAcrossCacheTemperatures) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const std::string mutated = duplicate_first_cube(bench.eqn, "ack");

  // Reference: every cache tier disabled, service-default worker count.
  svc::ServiceOptions off;
  off.cache_budget_bytes = 0;
  svc::AnalysisService cold_service(off);
  const auto reference =
      cold_service.analyze(derive_request(bench.name, bench.astg, mutated));
  ASSERT_TRUE(reference.ok) << reference.error;
  ASSERT_NE(reference.canonical_json, nullptr);

  for (int jobs : {1, 8}) {
    svc::AnalysisService service;  // both cache tiers on
    // Cold (fills the design and decomposition tiers).
    const auto cold = service.analyze(
        derive_request(bench.name, bench.astg, bench.eqn, jobs));
    ASSERT_TRUE(cold.ok) << cold.error;
    // Decomp-hit: the edited design reuses the decomposition.
    const auto warm = service.analyze(
        derive_request(bench.name, bench.astg, mutated, jobs));
    ASSERT_TRUE(warm.ok) << warm.error;
    ASSERT_NE(warm.canonical_json, nullptr);
    EXPECT_EQ(*warm.canonical_json, *reference.canonical_json)
        << "jobs=" << jobs;
    EXPECT_GT(service.stats().decomp_hits, 0);
    // Full hit: the memoized rendering is served verbatim — the very
    // same RenderedReport object, never re-rendered.
    const auto full = service.analyze(
        derive_request(bench.name, bench.astg, mutated, jobs));
    ASSERT_TRUE(full.ok) << full.error;
    EXPECT_EQ(full.cache_state, "hit");
    ASSERT_NE(full.canonical_json, nullptr);
    EXPECT_EQ(*full.canonical_json, *reference.canonical_json)
        << "jobs=" << jobs;
    ASSERT_NE(full.rendered, nullptr);
    ASSERT_NE(warm.rendered, nullptr);
    EXPECT_EQ(full.rendered.get(), warm.rendered.get());
    EXPECT_EQ(full.rendered->json_body, warm.rendered->json_body);
  }
}

TEST(IncrementalService, DecompCacheHitSpanCarriesProvenance) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  svc::AnalysisService service;
  ASSERT_TRUE(
      service.analyze(derive_request(bench.name, bench.astg, bench.eqn)).ok);

  auto traced = derive_request(bench.name, bench.astg,
                               duplicate_first_cube(bench.eqn, "ack"));
  traced.trace_spans = true;
  const auto delta = service.analyze(traced);
  ASSERT_TRUE(delta.ok) << delta.error;
  // The decompose phase appears in phases_run and gets a span, but its
  // provenance says the decomposition came from the cache — it must not
  // read as a cold decompose.
  bool saw_decompose = false;
  for (const svc::TraceSpan& span : delta.spans)
    if (span.name == "decompose") {
      saw_decompose = true;
      EXPECT_EQ(span.detail, "cache=decomp");
    }
  EXPECT_TRUE(saw_decompose);
}

/// The retired gate-slice counters, which always read 0.
void expect_no_gate_tier(const svc::CacheStats& stats) {
  EXPECT_EQ(stats.gate_hits, 0);
  EXPECT_EQ(stats.gate_misses, 0);
  EXPECT_EQ(stats.gate_evictions, 0);
  EXPECT_EQ(stats.gate_entries, 0);
  EXPECT_EQ(stats.gate_bytes, 0u);
}

TEST(IncrementalService, DecompositionsShedBeforeDesigns) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");

  // Calibrate the two tiers' appetites under an unlimited budget.
  svc::AnalysisService wide;
  ASSERT_TRUE(
      wide.analyze(derive_request(bench.name, bench.astg, bench.eqn)).ok);
  const svc::CacheStats wide_stats = wide.stats();
  ASSERT_GT(wide_stats.bytes, 0u);
  ASSERT_GT(wide_stats.decomp_bytes, 0u);
  EXPECT_LE(wide_stats.bytes + wide_stats.decomp_bytes,
            wide_stats.budget_bytes);
  expect_no_gate_tier(wide_stats);

  // A budget that fits the design but not design + decomposition: the
  // design survives, the decomposition sheds.
  svc::ServiceOptions squeeze;
  squeeze.cache_budget_bytes = wide_stats.bytes + wide_stats.decomp_bytes / 2;
  svc::AnalysisService tight(squeeze);
  ASSERT_TRUE(
      tight.analyze(derive_request(bench.name, bench.astg, bench.eqn)).ok);
  const svc::CacheStats tight_stats = tight.stats();
  EXPECT_EQ(tight_stats.entries, 1);  // design keeps priority
  EXPECT_EQ(tight_stats.decomp_entries, 0);
  EXPECT_GT(tight_stats.decomp_evictions, 0);
  EXPECT_LE(tight_stats.bytes + tight_stats.decomp_bytes,
            tight_stats.budget_bytes);
  expect_no_gate_tier(tight_stats);

  // Budget 0 disables both tiers.
  svc::ServiceOptions off;
  off.cache_budget_bytes = 0;
  svc::AnalysisService disabled(off);
  ASSERT_TRUE(
      disabled.analyze(derive_request(bench.name, bench.astg, bench.eqn))
          .ok);
  const svc::CacheStats off_stats = disabled.stats();
  EXPECT_EQ(off_stats.decomp_hits + off_stats.decomp_misses, 0);
  EXPECT_EQ(off_stats.decomp_bytes, 0u);
  expect_no_gate_tier(off_stats);
}

TEST(IncrementalService, DecompCacheInsertFaultSkipsRetentionOnly) {
  if (!base::fault_injection_compiled_in()) GTEST_SKIP();
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");

  svc::AnalysisService service;
  {
    svc::FaultScope one(base::FaultPoint::decomp_cache_insert, /*nth=*/1);
    const auto response =
        service.analyze(derive_request(bench.name, bench.astg, bench.eqn));
    ASSERT_TRUE(response.ok) << response.error;  // retention-only fault
  }
  EXPECT_GT(base::FaultInjector::instance().fired(
                base::FaultPoint::decomp_cache_insert),
            0u);
  const svc::CacheStats stats = service.stats();
  EXPECT_EQ(stats.decomp_entries, 0);
  EXPECT_EQ(stats.decomp_misses, 1);

  // The dropped decomposition recomputes on demand: the netlist edit
  // misses, decomposes again, and this insert sticks.
  const std::string mutated = duplicate_first_cube(bench.eqn, "ack");
  const auto delta =
      service.analyze(derive_request(bench.name, bench.astg, mutated));
  ASSERT_TRUE(delta.ok) << delta.error;
  const svc::CacheStats after = service.stats();
  EXPECT_EQ(after.decomp_misses, 2);
  EXPECT_EQ(after.decomp_entries, 1);
  EXPECT_EQ(after.decompose_runs, 2);
}

TEST(IncrementalService, RetainedSynthesisServesNetlistFreeRequests) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");

  // Calibrate: a netlist-free run under an unlimited budget, to learn the
  // design entry's and the decomposition's resident footprints.
  svc::AnalysisService wide;
  const auto first =
      wide.analyze(derive_request(bench.name, bench.astg, ""));
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_NE(first.canonical_json, nullptr);
  const svc::CacheStats wide_stats = wide.stats();
  ASSERT_GT(wide_stats.bytes, wide_stats.decomp_bytes);

  // A budget below the design entry but above the decomposition: the
  // design is dropped at publish, the decomposition (with its retained
  // synthesized circuit) stays.
  svc::ServiceOptions squeeze;
  squeeze.cache_budget_bytes =
      wide_stats.decomp_bytes + (wide_stats.bytes - wide_stats.decomp_bytes) / 2;
  svc::AnalysisService tight(squeeze);
  const auto cold = tight.analyze(derive_request(bench.name, bench.astg, ""));
  ASSERT_TRUE(cold.ok) << cold.error;
  const svc::CacheStats cold_stats = tight.stats();
  ASSERT_EQ(cold_stats.entries, 0);  // over budget -> not retained
  ASSERT_EQ(cold_stats.decomp_entries, 1);
  ASSERT_EQ(cold_stats.decompose_runs, 1);

  // The repeat misses the design level but hits the decomposition —
  // synthesis AND the global-SG rebuild are both skipped, and the bytes
  // match the wide run exactly.
  const auto warm = tight.analyze(derive_request(bench.name, bench.astg, ""));
  ASSERT_TRUE(warm.ok) << warm.error;
  const svc::CacheStats warm_stats = tight.stats();
  EXPECT_EQ(warm_stats.decomp_hits, 1);
  EXPECT_EQ(warm_stats.decompose_runs, 1);
  ASSERT_NE(warm.canonical_json, nullptr);
  EXPECT_EQ(*warm.canonical_json, *first.canonical_json);
  ASSERT_NE(warm.netlist_eqn, nullptr);
  ASSERT_NE(first.netlist_eqn, nullptr);
  EXPECT_EQ(*warm.netlist_eqn, *first.netlist_eqn);

  // An explicit-netlist insert records no synthesis products, so a
  // netlist-free request must re-synthesize once — and its insert
  // upgrades the resident entry in place for the next one.
  svc::AnalysisService explicit_first;
  ASSERT_TRUE(
      explicit_first
          .analyze(derive_request(bench.name, bench.astg, bench.eqn))
          .ok);
  const auto synth =
      explicit_first.analyze(derive_request(bench.name, bench.astg, ""));
  ASSERT_TRUE(synth.ok) << synth.error;
  const svc::CacheStats upgraded = explicit_first.stats();
  EXPECT_EQ(upgraded.decomp_hits, 0);
  EXPECT_EQ(upgraded.decomp_misses, 2);
  EXPECT_EQ(upgraded.decomp_entries, 1);  // one STG, upgraded in place
  EXPECT_EQ(upgraded.decompose_runs, 2);
}

/// The first `count` gate names of a canonical netlist (one equation a
/// line, "gate = ...").
std::vector<std::string> first_gates(const std::string& eqn,
                                     std::size_t count) {
  std::vector<std::string> gates;
  for (std::size_t line = 0; line < eqn.size() && gates.size() < count;) {
    gates.push_back(eqn.substr(line, eqn.find(" = ", line) - line));
    const auto next = eqn.find('\n', line);
    if (next == std::string::npos) break;
    line = next + 1;
  }
  return gates;
}

/// A scripted editor session over three designs: verify then derive (a
/// lazy upgrade), the synthesized netlist sent back explicitly, two
/// single-gate edits, a netlist-free repeat, then the originals again.
void edit_session(svc::AnalysisService& service) {
  static const char* const kDesigns[] = {"imec-ram-read-sbuf", "chu133",
                                         "fifo"};
  for (const char* name : kDesigns) {
    const auto& bench = benchdata::benchmark(name);
    auto verify = derive_request(bench.name, bench.astg, bench.eqn);
    verify.mode = svc::RequestMode::verify;
    ASSERT_TRUE(service.analyze(verify).ok) << name;
    const auto derived =
        service.analyze(derive_request(bench.name, bench.astg, bench.eqn));
    ASSERT_TRUE(derived.ok) << name;
    ASSERT_NE(derived.netlist_eqn, nullptr);
    const std::string eqn = *derived.netlist_eqn;
    ASSERT_TRUE(
        service.analyze(derive_request(bench.name, bench.astg, eqn)).ok);
    for (const std::string& gate : first_gates(eqn, 2))
      ASSERT_TRUE(service
                      .analyze(derive_request(bench.name, bench.astg,
                                              duplicate_first_cube(eqn, gate)))
                      .ok)
          << name << " " << gate;
    ASSERT_TRUE(
        service.analyze(derive_request(bench.name, bench.astg, "")).ok);
  }
  for (const char* name : kDesigns) {
    const auto& bench = benchdata::benchmark(name);
    ASSERT_TRUE(
        service.analyze(derive_request(bench.name, bench.astg, bench.eqn))
            .ok);
  }
}

TEST(IncrementalService, TightBudgetEditSessionPinsEveryTiersCounters) {
  // Calibrate on an unlimited budget, then replay the session under
  // three eighths of what it left resident: tight enough that both tiers
  // evict. The counters are pinned, so any change to a charge, to the
  // eviction order inside a tier, or to the shed order across tiers shows.
  svc::AnalysisService wide;
  ASSERT_NO_FATAL_FAILURE(edit_session(wide));
  const svc::CacheStats wide_stats = wide.stats();
  EXPECT_EQ(wide_stats.evictions + wide_stats.decomp_evictions, 0);

  svc::ServiceOptions options;
  options.cache_budget_bytes =
      (wide_stats.bytes + wide_stats.decomp_bytes) * 3 / 8;
  svc::AnalysisService tight(options);
  ASSERT_NO_FATAL_FAILURE(edit_session(tight));
  const svc::CacheStats stats = tight.stats();
  EXPECT_LE(stats.bytes + stats.decomp_bytes, stats.budget_bytes);

  EXPECT_EQ(stats.hits, 4);
  EXPECT_EQ(stats.misses, 14);
  EXPECT_EQ(stats.upgrades, 3);
  EXPECT_EQ(stats.evictions, 9);
  EXPECT_EQ(stats.entries, 5);

  EXPECT_EQ(stats.decomp_hits, 6);
  EXPECT_EQ(stats.decomp_misses, 8);
  EXPECT_EQ(stats.decomp_evictions, 5);
  EXPECT_EQ(stats.decomp_entries, 1);

  expect_no_gate_tier(stats);
}

}  // namespace
}  // namespace sitime
