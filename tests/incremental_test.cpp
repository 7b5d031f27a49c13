// Incremental edits through the service's design cache and its shared
// decompositions: an edited design whose whole-design key misses shares
// the decomposition of its STG and still produces output byte-identical to
// a cold run at any worker count. Also covers sharing under budgets that
// hold one design, the lifetime of a shared decomposition, a concurrent
// edit storm, and the counters of an edit session under a tight budget.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "benchdata/benchmarks.hpp"
#include "svc/analysis_service.hpp"

namespace sitime {
namespace {

/// The editor's keystroke, as the tests and benches model it: duplicate the
/// first cube of `gate`'s equation. parse_eqn/write_eqn keep cube order and
/// duplicates, so the edit survives canonicalization and changes the
/// whole-design content key — while the gate still computes the same
/// function, so the design stays speed independent and its STG (the key
/// its decomposition is shared under) is untouched.
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
  EXPECT_EQ(stats.decomp_bytes, 0u);  // retired: charged to the design
  EXPECT_EQ(stats.decompose_runs, 1);

  // Netlist-only edit: the whole-design key misses but the STG is
  // untouched, so the resident design shares its entire
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
  EXPECT_EQ(after.decomp_entries, 1);  // both designs hold the same one
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
  // A disabled cache shares nothing and records no traffic at all.
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
    svc::AnalysisService service;  // caching on
    // Cold (a resident design holding the decomposition).
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
    // Full hit: the entry's report and wire form are served as they are
    // — the very same objects, never re-rendered.
    const auto full = service.analyze(
        derive_request(bench.name, bench.astg, mutated, jobs));
    ASSERT_TRUE(full.ok) << full.error;
    EXPECT_EQ(full.cache_state, "hit");
    ASSERT_NE(full.canonical_json, nullptr);
    EXPECT_EQ(*full.canonical_json, *reference.canonical_json)
        << "jobs=" << jobs;
    EXPECT_EQ(full.canonical_json.get(), warm.canonical_json.get());
    ASSERT_NE(full.report, nullptr);
    EXPECT_EQ(full.report.get(), warm.report.get());
  }
}

TEST(IncrementalService, SharedDecompositionSpanCarriesProvenance) {
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
  // provenance says the decomposition was shared — it must not read as a
  // cold decompose.
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

TEST(IncrementalService, RetainedSynthesisServesNetlistFreeRequests) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");

  // An explicit-netlist decomposition keeps no synthesis products, so a
  // netlist-free request must synthesize once; its decomposition, which
  // keeps the synthesized circuit, replaces the explicit one as the STG's
  // shared decomposition.
  svc::AnalysisService service;
  ASSERT_TRUE(
      service.analyze(derive_request(bench.name, bench.astg, bench.eqn)).ok);
  const auto synth = service.analyze(derive_request(bench.name, bench.astg, ""));
  ASSERT_TRUE(synth.ok) << synth.error;
  const svc::CacheStats upgraded = service.stats();
  EXPECT_EQ(upgraded.decomp_hits, 0);
  EXPECT_EQ(upgraded.decomp_misses, 2);
  EXPECT_EQ(upgraded.decomp_entries, 2);  // each design holds its own
  EXPECT_EQ(upgraded.decompose_runs, 2);

  // The synthesized netlist sent back explicitly shares that one.
  ASSERT_NE(synth.netlist_eqn, nullptr);
  const std::string echoed_eqn = *synth.netlist_eqn;
  ASSERT_TRUE(
      service.analyze(derive_request(bench.name, bench.astg, echoed_eqn)).ok);
  const svc::CacheStats echoed = service.stats();
  EXPECT_EQ(echoed.decomp_hits, 1);
  EXPECT_EQ(echoed.decomp_entries, 2);
  EXPECT_EQ(echoed.decompose_runs, 2);

  // Under a budget of one design, the echoed design evicts the
  // netlist-free one but keeps the shared synthesized circuit alive: the
  // netlist-free repeat skips synthesis AND the global-SG rebuild, with
  // the same bytes.
  svc::AnalysisService calibrate;
  ASSERT_TRUE(
      calibrate.analyze(derive_request(bench.name, bench.astg, "")).ok);
  svc::ServiceOptions one_design;
  one_design.cache_budget_bytes = calibrate.stats().bytes * 3 / 2;
  svc::AnalysisService tight(one_design);
  ASSERT_TRUE(tight.analyze(derive_request(bench.name, bench.astg, "")).ok);
  ASSERT_TRUE(
      tight.analyze(derive_request(bench.name, bench.astg, echoed_eqn)).ok);
  const svc::CacheStats before = tight.stats();
  ASSERT_EQ(before.entries, 1);
  ASSERT_EQ(before.evictions, 1);
  const auto warm = tight.analyze(derive_request(bench.name, bench.astg, ""));
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.cache_state, "fresh");
  const svc::CacheStats after = tight.stats();
  EXPECT_EQ(after.decomp_hits, 2);
  EXPECT_EQ(after.decompose_runs, 1);
  ASSERT_NE(warm.canonical_json, nullptr);
  EXPECT_EQ(*warm.canonical_json, *synth.canonical_json);
  ASSERT_NE(warm.netlist_eqn, nullptr);
  EXPECT_EQ(*warm.netlist_eqn, echoed_eqn);
}

TEST(IncrementalService, EditsShareOneDecompositionUnderAOneDesignBudget) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  svc::AnalysisService wide;
  ASSERT_TRUE(
      wide.analyze(derive_request(bench.name, bench.astg, bench.eqn)).ok);

  // Room for one design and a quarter: a decomposition tier below the
  // designs would get no room for this STG's decomposition. Shared
  // through the designs, it survives every edit, even as each edited
  // version evicts the one before.
  svc::ServiceOptions options;
  options.cache_budget_bytes = wide.stats().bytes * 5 / 4;
  svc::AnalysisService service(options);
  ASSERT_TRUE(
      service.analyze(derive_request(bench.name, bench.astg, bench.eqn)).ok);
  constexpr int kEdits = 6;
  std::string eqn = bench.eqn;
  for (int edit = 0; edit < kEdits; ++edit) {
    eqn = duplicate_first_cube(eqn, "ack");
    const auto response =
        service.analyze(derive_request(bench.name, bench.astg, eqn));
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.cache_state, "fresh");
  }
  const svc::CacheStats stats = service.stats();
  EXPECT_EQ(stats.decomp_hits, kEdits);
  EXPECT_EQ(stats.decomp_misses, 1);
  EXPECT_EQ(stats.decompose_runs, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.evictions, kEdits);
  EXPECT_EQ(stats.decomp_entries, 1);
  EXPECT_LE(stats.bytes, stats.budget_bytes);
}

TEST(IncrementalService, ASharedDecompositionDiesWithItsLastDesign) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  auto verify = derive_request(bench.name, bench.astg, bench.eqn);
  verify.mode = svc::RequestMode::verify;

  // Calibrate: the design's footprint after verify and after derive.
  svc::AnalysisService wide;
  ASSERT_TRUE(wide.analyze(verify).ok);
  const std::size_t verified_bytes = wide.stats().bytes;
  ASSERT_TRUE(
      wide.analyze(derive_request(bench.name, bench.astg, bench.eqn)).ok);
  const std::size_t derived_bytes = wide.stats().bytes;
  ASSERT_LT(verified_bytes, derived_bytes);

  // A budget between the two: the verified design is resident and holds
  // the decomposition; its derive upgrade outgrows the budget and is
  // evicted, taking the last hold on the decomposition with it.
  svc::ServiceOptions options;
  options.cache_budget_bytes = (verified_bytes + derived_bytes) / 2;
  svc::AnalysisService service(options);
  ASSERT_TRUE(service.analyze(verify).ok);
  EXPECT_EQ(service.stats().decomp_entries, 1);
  ASSERT_TRUE(
      service.analyze(derive_request(bench.name, bench.astg, bench.eqn)).ok);
  svc::CacheStats stats = service.stats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.decomp_entries, 0);

  // The next edit finds nothing to share and decomposes again.
  auto edit = verify;
  edit.eqn = duplicate_first_cube(bench.eqn, "ack");
  ASSERT_TRUE(service.analyze(edit).ok);
  stats = service.stats();
  EXPECT_EQ(stats.decomp_hits, 0);
  EXPECT_EQ(stats.decomp_misses, 2);
  EXPECT_EQ(stats.decompose_runs, 2);
  EXPECT_EQ(stats.decomp_entries, 1);

}

TEST(IncrementalService, InternMapStaysWithinTwiceTheLiveDecompositions) {
  // Calibrate every bundled design's verified footprint, then stream them
  // through a budget below any two of them: each admitted design evicts
  // all the others, so one decomposition stays live while expired slots
  // pile up behind it until an insert prunes them.
  std::vector<svc::AnalysisRequest> requests;
  std::size_t smallest = 0;
  svc::AnalysisService wide;
  for (const auto& design : benchdata::all_benchmarks()) {
    auto request = derive_request(design.name, design.astg, design.eqn);
    request.mode = svc::RequestMode::verify;
    const std::size_t before = wide.stats().bytes;
    ASSERT_TRUE(wide.analyze(request).ok) << design.name;
    const std::size_t bytes = wide.stats().bytes - before;
    if (smallest == 0 || bytes < smallest) smallest = bytes;
    requests.push_back(request);
  }
  svc::ServiceOptions options;
  options.cache_budget_bytes = 2 * smallest - 1;
  svc::AnalysisService service(options);
  for (int round = 0; round < 3; ++round)
    for (const svc::AnalysisRequest& request : requests) {
      ASSERT_TRUE(service.analyze(request).ok) << request.name;
      const svc::CacheStats stats = service.stats();
      EXPECT_LE(stats.entries, 1) << request.name;
      EXPECT_EQ(stats.decomp_entries, stats.entries) << request.name;
      EXPECT_LE(service.decomposition_slots(),
                2 * static_cast<std::size_t>(stats.decomp_entries) + 1)
          << request.name;
    }
  EXPECT_EQ(service.stats().decomp_hits, 0);  // distinct STGs
}

TEST(IncrementalService, ConcurrentEditStormMatchesColdReportsByteForByte) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const std::vector<std::string> gates = first_gates(bench.eqn, 4);
  std::vector<std::string> netlists = {bench.eqn};
  for (const std::string& gate : gates)
    netlists.push_back(duplicate_first_cube(bench.eqn, gate));

  // Cold references: caching off, one service per netlist.
  std::map<std::string, std::string> cold;
  for (const std::string& eqn : netlists) {
    svc::ServiceOptions off;
    off.cache_budget_bytes = 0;
    svc::AnalysisService reference(off);
    const auto response =
        reference.analyze(derive_request(bench.name, bench.astg, eqn));
    ASSERT_TRUE(response.ok) << response.error;
    cold[eqn] = *response.canonical_json;
  }

  // Four editors under a budget of about two designs: decompositions are
  // shared, published and dropped while designs are evicted under them.
  svc::AnalysisService wide;
  ASSERT_TRUE(
      wide.analyze(derive_request(bench.name, bench.astg, bench.eqn)).ok);
  svc::ServiceOptions options;
  options.cache_budget_bytes = wide.stats().bytes * 2;
  svc::AnalysisService service(options);
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::vector<std::string>> reports(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round)
        for (std::size_t i = 0; i < netlists.size(); ++i) {
          const std::string& eqn = netlists[(i + t) % netlists.size()];
          const auto response = service.analyze(
              derive_request(bench.name, bench.astg, eqn, /*jobs=*/2));
          reports[t].push_back(
              response.ok && response.canonical_json != nullptr
                  ? eqn + '\x1f' + *response.canonical_json
                  : "error: " + response.error);
        }
    });
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(reports[t].size(), kRounds * netlists.size());
    for (const std::string& report : reports[t]) {
      const auto split = report.find('\x1f');
      ASSERT_NE(split, std::string::npos) << report;
      EXPECT_EQ(report.substr(split + 1), cold[report.substr(0, split)]);
    }
  }
  const svc::CacheStats stats = service.stats();
  EXPECT_GT(stats.decomp_hits, 0);
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.bytes, stats.budget_bytes);
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

TEST(IncrementalService, TightBudgetEditSessionPinsTheDesignTiersCounters) {
  // Calibrate on an unlimited budget, then replay the session under
  // three eighths of what it left resident: tight enough that designs
  // evict. The counters are pinned, so any change to a charge, to the
  // eviction order, or to which decompositions are shared shows.
  svc::AnalysisService wide;
  ASSERT_NO_FATAL_FAILURE(edit_session(wide));
  const svc::CacheStats wide_stats = wide.stats();
  EXPECT_EQ(wide_stats.evictions, 0);

  svc::ServiceOptions options;
  options.cache_budget_bytes = wide_stats.bytes * 3 / 8;
  svc::AnalysisService tight(options);
  ASSERT_NO_FATAL_FAILURE(edit_session(tight));
  const svc::CacheStats stats = tight.stats();
  EXPECT_LE(stats.bytes, stats.budget_bytes);

  EXPECT_EQ(stats.hits, 4);
  EXPECT_EQ(stats.misses, 14);
  EXPECT_EQ(stats.upgrades, 3);
  EXPECT_EQ(stats.evictions, 10);
  EXPECT_EQ(stats.entries, 4);

  EXPECT_EQ(stats.decomp_hits, 8);
  EXPECT_EQ(stats.decomp_misses, 6);
  EXPECT_EQ(stats.decomp_entries, 3);
  EXPECT_EQ(stats.decomp_evictions, 0);
  EXPECT_EQ(stats.decomp_bytes, 0u);

  expect_no_gate_tier(stats);
}

}  // namespace
}  // namespace sitime
