// Incremental edits through the service's design cache and its shared
// decompositions: an edited design whose whole-design key misses shares
// the decomposition of its STG and still produces output byte-identical to
// a cold run at any worker count. Also covers sharing between netlist-free
// and explicit entries and across gate orders, sharing under budgets that
// hold one design, the lifetime of a shared decomposition, concurrent edit
// and netlist races, the counters of an edit session under a tight budget,
// and a derive that fails mid-run on a decomposition whose job outcomes
// are memoized.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/fault.hpp"
#include "benchdata/benchmarks.hpp"
#include "core/phase.hpp"
#include "core/report.hpp"
#include "sg/sg_cache.hpp"
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

TEST(IncrementalService, NetlistFreeRequestSharesAnExplicitEntrysDecomposition) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  svc::AnalysisService reference;
  const auto cold =
      reference.analyze(derive_request(bench.name, bench.astg, ""));
  ASSERT_TRUE(cold.ok) << cold.error;

  // The decomposition depends on the STG alone, so a netlist-free request
  // after an explicit entry of the same STG shares that entry's
  // decomposition and synthesizes only its own circuit.
  svc::AnalysisService service;
  ASSERT_TRUE(
      service.analyze(derive_request(bench.name, bench.astg, bench.eqn)).ok);
  const auto synth =
      service.analyze(derive_request(bench.name, bench.astg, ""));
  ASSERT_TRUE(synth.ok) << synth.error;
  EXPECT_EQ(synth.cache_state, "fresh");
  const svc::CacheStats stats = service.stats();
  EXPECT_EQ(stats.decomp_hits, 1);
  EXPECT_EQ(stats.decomp_misses, 1);
  EXPECT_EQ(stats.decompose_runs, 1);
  EXPECT_EQ(stats.decomp_entries, 1);
  ASSERT_NE(synth.canonical_json, nullptr);
  EXPECT_EQ(*synth.canonical_json, *cold.canonical_json);
  ASSERT_NE(synth.netlist_eqn, nullptr);
  EXPECT_EQ(*synth.netlist_eqn, *cold.netlist_eqn);
}

/// The netlist with its equations in reverse order (one equation a line).
std::string reversed_equations(const std::string& eqn) {
  std::vector<std::string> lines;
  for (std::size_t at = 0; at < eqn.size();) {
    auto end = eqn.find('\n', at);
    if (end == std::string::npos) end = eqn.size();
    if (end > at) lines.push_back(eqn.substr(at, end - at));
    at = end + 1;
  }
  std::string reversed;
  for (auto line = lines.rbegin(); line != lines.rend(); ++line)
    reversed += *line + '\n';
  return reversed;
}

/// The netlist without the cube `cube` (not an equation's first cube).
std::string drop_cube(const std::string& eqn, const std::string& cube) {
  const std::string term = " + " + cube;
  const auto at = eqn.find(term);
  EXPECT_NE(at, std::string::npos) << "no cube " << cube;
  std::string dropped = eqn;
  if (at != std::string::npos) dropped.erase(at, term.size());
  return dropped;
}

TEST(IncrementalService, ReversedGateOrderSharesTheDecomposition) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const std::string reversed = reversed_equations(bench.eqn);
  // Two gates without a hold cube each: the verdict names the first
  // offender in job order, and the job order follows the circuit's gate
  // order (prnot comes first in the bundled netlist, csc0 here).
  const std::string broken =
      drop_cube(drop_cube(reversed, "i4*prnot"), "i8' * csc0");
  svc::AnalysisService reference;
  const auto cold =
      reference.analyze(derive_request(bench.name, bench.astg, reversed));
  ASSERT_TRUE(cold.ok) << cold.error;
  ASSERT_NE(cold.canonical_json, nullptr);
  const auto cold_broken =
      reference.analyze(derive_request(bench.name, bench.astg, broken));
  ASSERT_TRUE(cold_broken.ok) << cold_broken.error;
  EXPECT_EQ(cold_broken.verify_offender, "csc0");

  svc::AnalysisService service;
  ASSERT_TRUE(
      service.analyze(derive_request(bench.name, bench.astg, bench.eqn)).ok);
  const auto shared =
      service.analyze(derive_request(bench.name, bench.astg, reversed));
  ASSERT_TRUE(shared.ok) << shared.error;
  ASSERT_NE(shared.canonical_json, nullptr);
  EXPECT_EQ(*shared.canonical_json, *cold.canonical_json);
  const auto shared_broken =
      service.analyze(derive_request(bench.name, bench.astg, broken));
  ASSERT_TRUE(shared_broken.ok) << shared_broken.error;
  EXPECT_EQ(shared_broken.verify_offender, cold_broken.verify_offender);
  const svc::CacheStats stats = service.stats();
  EXPECT_EQ(stats.decomp_hits, 2);
  EXPECT_EQ(stats.decomp_misses, 1);
  EXPECT_EQ(stats.decompose_runs, 1);
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

TEST(IncrementalService, NetlistFreeAndExplicitRacesMatchColdReportsByteForByte) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  // Cold references: caching off, one service per netlist; the
  // synthesized netlist is also sent back explicitly.
  std::vector<std::string> netlists = {"", bench.eqn};
  std::map<std::string, std::string> cold;
  std::map<std::string, std::string> cold_netlist;
  for (std::size_t i = 0; i < netlists.size(); ++i) {
    svc::ServiceOptions off;
    off.cache_budget_bytes = 0;
    svc::AnalysisService reference(off);
    const auto response = reference.analyze(
        derive_request(bench.name, bench.astg, netlists[i]));
    ASSERT_TRUE(response.ok) << response.error;
    cold[netlists[i]] = *response.canonical_json;
    cold_netlist[netlists[i]] = *response.netlist_eqn;
    if (i == 0) netlists.push_back(*response.netlist_eqn);
  }

  // Four threads race the netlist-free and explicit entries of one STG
  // through a fresh service per round, so the first decompose of the STG
  // and its publication are contended every round.
  constexpr int kThreads = 4;
  constexpr int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    svc::AnalysisService service;
    std::vector<std::vector<std::string>> reports(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        for (std::size_t i = 0; i < netlists.size(); ++i) {
          const std::string& eqn = netlists[(i + t) % netlists.size()];
          const auto response = service.analyze(
              derive_request(bench.name, bench.astg, eqn, /*jobs=*/2));
          reports[t].push_back(
              response.ok && response.canonical_json != nullptr &&
                      response.netlist_eqn != nullptr
                  ? eqn + '\x1f' + *response.netlist_eqn + '\x1f' +
                        *response.canonical_json
                  : "error: " + response.error);
        }
      });
    for (std::thread& thread : threads) thread.join();

    for (int t = 0; t < kThreads; ++t) {
      ASSERT_EQ(reports[t].size(), netlists.size());
      for (const std::string& report : reports[t]) {
        const auto split = report.find('\x1f');
        ASSERT_NE(split, std::string::npos) << report;
        const auto body = report.find('\x1f', split + 1);
        const std::string eqn = report.substr(0, split);
        EXPECT_EQ(report.substr(split + 1, body - split - 1),
                  cold_netlist[eqn]);
        EXPECT_EQ(report.substr(body + 1), cold[eqn]);
      }
    }
    EXPECT_EQ(service.stats().failures, 0);
  }
}

TEST(IncrementalFaults, AFailedDeriveJobStoresNoOutcomeAndTheRetryIsCold) {
  if (!base::fault_injection_compiled_in())
    GTEST_SKIP() << "built without SITIME_FAULTS";
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const auto artifacts_of = [&bench] {
    core::PhaseArtifacts artifacts;
    auto stg = std::make_shared<const stg::Stg>(benchdata::load_stg(bench));
    artifacts.circuit = std::make_shared<const circuit::Circuit>(
        benchdata::load_circuit(bench, *stg));
    artifacts.stg = std::move(stg);
    core::run_decompose_phase(artifacts);
    core::run_verify_phase(artifacts);
    return artifacts;
  };
  const auto canonical = [](const core::PhaseArtifacts& artifacts) {
    return core::to_canonical_json(core::make_flow_report(
        "", artifacts.result, artifacts.stg->signals));
  };

  // A cold derive, counting its local-SG builds (each polls sg_build).
  core::PhaseArtifacts cold = artifacts_of();
  std::uint64_t builds = 0;
  {
    base::FaultScope count(base::FaultPoint::sg_build, ~0ull);
    sg::SgCache cache;
    core::run_derive_phase(cold, {.sg_cache = &cache});
    builds = base::FaultInjector::instance().polls(base::FaultPoint::sg_build);
  }
  ASSERT_GT(builds, 4u);

  // The same derive, serial, failing at a build in its middle half (the
  // fault sweep's seed picks which).
  core::PhaseArtifacts failed = artifacts_of();
  const std::uint64_t nth =
      builds / 4 + 1 + base::fault_env_seed(1) % (builds / 2);
  sg::SgCache cache;
  {
    base::FaultScope fault(base::FaultPoint::sg_build, nth);
    EXPECT_THROW(core::run_derive_phase(failed, {.sg_cache = &cache}),
                 base::FaultInjectedError)
        << "build " << nth << " of " << builds;
  }
  ASSERT_EQ(failed.completed, core::Phase::verified);

  // Jobs run in order: those before the failing one stored their
  // derivation, the failing one and those after it stored none.
  const core::FlowDecomposition& decomposition = *failed.decomposition;
  std::vector<bool> derived(decomposition.jobs.size(), false);
  for (const core::MemoizedOutcome& slot : decomposition.memoized_outcomes())
    for (const core::FlowJob& job : decomposition.jobs)
      if (job.component == slot.component &&
          failed.circuit->gates()[job.gate].output == slot.output)
        derived[job.index] = slot.outcome.derivation != nullptr;
  const auto first_missing =
      std::find(derived.begin(), derived.end(), false) - derived.begin();
  ASSERT_LT(first_missing, static_cast<long>(derived.size()));
  for (std::size_t index = 0; index < derived.size(); ++index)
    EXPECT_EQ(derived[index], static_cast<long>(index) < first_missing)
        << "job " << index;

  // The retry reads the finished jobs back, runs the rest, and answers
  // byte for byte as the cold run did.
  core::run_derive_phase(failed, {.sg_cache = &cache});
  EXPECT_EQ(canonical(failed), canonical(cold));
  for (const core::MemoizedOutcome& slot : decomposition.memoized_outcomes())
    EXPECT_NE(slot.outcome.derivation, nullptr);
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
  EXPECT_EQ(stats.evictions, 9);
  EXPECT_EQ(stats.entries, 5);

  EXPECT_EQ(stats.decomp_hits, 9);
  EXPECT_EQ(stats.decomp_misses, 5);
  EXPECT_EQ(stats.decomp_entries, 3);
  EXPECT_EQ(stats.decomp_evictions, 0);
  EXPECT_EQ(stats.decomp_bytes, 0u);

  expect_no_gate_tier(stats);
}

}  // namespace
}  // namespace sitime
