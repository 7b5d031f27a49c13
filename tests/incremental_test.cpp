// The gate-level slice cache: an edited design whose whole-design key
// misses must re-expand ONLY the edited gate's (component × gate) jobs,
// reuse every unchanged gate's cached slice, and still produce output
// byte-identical to a cold run at any worker count. Also covers the
// content keys themselves, the shared byte budget (designs take priority
// over gate slices), and slice survival across a cancelled run.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/thread_pool.hpp"
#include "benchdata/benchmarks.hpp"
#include "circuit/adversary.hpp"
#include "circuit/circuit.hpp"
#include "core/flow.hpp"
#include "core/local_stg.hpp"
#include "core/report.hpp"
#include "pn/hack.hpp"
#include "svc/analysis_service.hpp"

namespace sitime {
namespace {

/// The editor's keystroke, as the tests and benches model it: duplicate the
/// first cube of `gate`'s equation. parse_eqn/write_eqn keep cube order and
/// duplicates, so the edit survives canonicalization and changes the
/// whole-design content key — while the gate still computes the same
/// function, so the design stays speed independent and every OTHER gate's
/// job key is untouched.
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

/// Minimal thread-safe GateSliceStore for the core-level tests, with an
/// insert hook so a test can fire a cancel mid-flow.
class MapStore : public core::GateSliceStore {
 public:
  std::shared_ptr<const core::GateSlice> lookup(
      const core::GateJobKey& key) override {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto bucket = entries_.find(key.hash);
    if (bucket != entries_.end())
      for (const auto& [stored, slice] : bucket->second)
        if (stored == key) return slice;
    return nullptr;
  }

  void insert(const core::GateJobKey& key,
              std::shared_ptr<const core::GateSlice> slice) override {
    int count;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      entries_[key.hash].emplace_back(key, std::move(slice));
      count = ++inserts_;
    }
    if (on_insert) on_insert(count);
  }

  int inserts() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return inserts_;
  }

  std::function<void(int)> on_insert;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<
      std::uint64_t,
      std::vector<std::pair<core::GateJobKey,
                            std::shared_ptr<const core::GateSlice>>>>
      entries_;
  int inserts_ = 0;
};

TEST(GateJobKey, IdenticalContentKeysEqualPhasesAndGatesKeyApart) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  const core::FlowDecomposition decomposition =
      core::decompose_flow(stg, circuit);
  ASSERT_GE(decomposition.jobs.size(), 2u);
  const circuit::AdversaryAnalysis adversary(&stg);

  const auto& job0 = decomposition.jobs[0];
  const auto& job1 = decomposition.jobs[1];
  const stg::MgStg& component0 =
      decomposition.component_stgs[job0.component];
  const stg::MgStg& component1 =
      decomposition.component_stgs[job1.component];

  const core::GateJobKey verify0 =
      core::gate_job_key(component0, circuit.gates()[job0.gate], nullptr);
  const core::GateJobKey verify0_again =
      core::gate_job_key(component0, circuit.gates()[job0.gate], nullptr);
  EXPECT_TRUE(verify0 == verify0_again);
  EXPECT_EQ(verify0.hash, verify0_again.hash);

  // The split API stamps the same key the one-shot overload computes.
  const core::GateJobKey verify0_stamped = core::gate_job_key(
      core::component_key_base(component0, nullptr),
      circuit.gates()[job0.gate]);
  EXPECT_TRUE(verify0 == verify0_stamped);

  // Verify and derive keys of the SAME job never alias.
  const core::GateJobKey derive0 = core::gate_job_key(
      component0, circuit.gates()[job0.gate], &adversary, 0, 50000, 24);
  EXPECT_FALSE(verify0 == derive0);

  // Different gates key apart.
  const core::GateJobKey verify1 =
      core::gate_job_key(component1, circuit.gates()[job1.gate], nullptr);
  EXPECT_FALSE(verify0 == verify1);

  // Expand knobs participate in the derive key only.
  const core::GateJobKey derive0_tighter = core::gate_job_key(
      component0, circuit.gates()[job0.gate], &adversary, 0, 100, 24);
  EXPECT_FALSE(derive0 == derive0_tighter);
}

TEST(IncrementalFlow, SingleGateEditRecomputesOnlyItsOwnJobs) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  const int total_jobs =
      static_cast<int>(core::decompose_flow(stg, circuit).jobs.size());
  const int components =
      static_cast<int>(pn::mg_components(stg.net).size());
  ASSERT_GT(total_jobs, components);

  MapStore store;
  core::FlowOptions options;
  options.gate_store = &store;
  const core::FlowResult first =
      core::derive_timing_constraints(stg, circuit, options);
  EXPECT_EQ(first.gate_hits, 0);
  EXPECT_EQ(first.gate_misses, total_jobs);

  // Same design again: every job is served from the store.
  const core::FlowResult warm =
      core::derive_timing_constraints(stg, circuit, options);
  EXPECT_EQ(warm.gate_hits, total_jobs);
  EXPECT_EQ(warm.gate_misses, 0);
  EXPECT_EQ(warm.before, first.before);
  EXPECT_EQ(warm.after, first.after);
  EXPECT_EQ(warm.expand_steps, first.expand_steps);

  // Edit one gate: exactly its jobs (one per MG component) re-expand.
  const std::string mutated_eqn = duplicate_first_cube(bench.eqn, "ack");
  const circuit::Circuit mutated =
      circuit::Circuit::from_equations(&stg.signals, mutated_eqn);
  const core::FlowResult delta =
      core::derive_timing_constraints(stg, mutated, options);
  EXPECT_EQ(delta.gate_hits, total_jobs - components);
  EXPECT_EQ(delta.gate_misses, components);

  base::ThreadPool pool(4);
  for (int jobs : {1, 8}) {
    // Byte-identical to a cold (store-less) run of the edited design, at
    // any worker count, whether the slices come from the store or not.
    core::FlowOptions plain;
    plain.jobs = jobs;
    plain.pool = &pool;
    const core::FlowResult reference =
        core::derive_timing_constraints(stg, mutated, plain);
    core::FlowOptions stored = plain;
    stored.gate_store = &store;
    const core::FlowResult reused =
        core::derive_timing_constraints(stg, mutated, stored);
    EXPECT_EQ(reused.gate_hits, total_jobs);  // all jobs cached by now
    EXPECT_EQ(reused.before, reference.before);
    EXPECT_EQ(reused.after, reference.after);
    // The canonical report body (volatile timings excluded) is identical.
    EXPECT_EQ(core::to_canonical_json(
                  core::make_flow_report(bench.name, reused, stg.signals)),
              core::to_canonical_json(core::make_flow_report(
                  bench.name, reference, stg.signals)));
  }
}

TEST(IncrementalFlow, CachedStepsStillChargeTheStepBudget) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);

  MapStore store;
  core::FlowOptions options;
  options.gate_store = &store;
  const core::FlowResult cold =
      core::derive_timing_constraints(stg, circuit, options);
  ASSERT_GT(cold.expand_steps, 0);
  // Warm reuse reports the producing run's counters verbatim.
  const core::FlowResult warm =
      core::derive_timing_constraints(stg, circuit, options);
  EXPECT_EQ(warm.expand_steps, cold.expand_steps);
  EXPECT_EQ(warm.expand_subtasks, cold.expand_subtasks);

  // The re-charge guard: a cached slice claiming more steps than the whole
  // per-flow budget must trip ExpandLimitError on reuse, exactly as the
  // producing run would have tripped while computing it.
  const core::FlowDecomposition decomposition =
      core::decompose_flow(stg, circuit);
  const auto& job0 = decomposition.jobs[0];
  const circuit::Gate& gate0 = circuit.gates()[job0.gate];
  const circuit::AdversaryAnalysis adversary(&stg);
  core::ExpandOptions defaults;
  const core::GateJobKey key0 = core::gate_job_key(
      decomposition.component_stgs[job0.component], gate0, &adversary,
      static_cast<int>(defaults.order), defaults.max_steps,
      defaults.max_depth);
  MapStore poisoned;
  auto slice = std::make_shared<core::GateSlice>();
  slice->has_constraints = true;
  slice->steps = defaults.max_steps + 1;
  poisoned.insert(key0, slice);
  core::FlowOptions over;
  over.gate_store = &poisoned;
  EXPECT_THROW(core::derive_timing_constraints(stg, circuit, over),
               core::ExpandLimitError);
}

TEST(IncrementalFlow, CancelledRunKeepsFinishedSlicesForIncrementalRetry) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);

  MapStore store;
  core::CancelSource source;
  // Fire the cancel after the fourth job publishes its slice: the serial
  // dispatch loop polls before job five, so exactly four slices survive.
  store.on_insert = [&](int count) {
    if (count == 4) source.request_cancel();
  };
  core::FlowOptions options;
  options.gate_store = &store;
  options.cancel = source.token();
  EXPECT_THROW(core::derive_timing_constraints(stg, circuit, options),
               core::CancelledError);
  EXPECT_EQ(store.inserts(), 4);

  // The retry reuses every slice the cancelled run finished.
  store.on_insert = nullptr;
  core::FlowOptions retry;
  retry.gate_store = &store;
  const core::FlowResult result =
      core::derive_timing_constraints(stg, circuit, retry);
  EXPECT_EQ(result.gate_hits, 4);

  // And matches a run that never saw the store.
  const core::FlowResult reference =
      core::derive_timing_constraints(stg, circuit);
  EXPECT_EQ(result.before, reference.before);
  EXPECT_EQ(result.after, reference.after);
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

TEST(IncrementalService, EditedDesignReusesUnchangedGateSlices) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  const int total_jobs =
      static_cast<int>(core::decompose_flow(stg, circuit).jobs.size());
  const int components =
      static_cast<int>(pn::mg_components(stg.net).size());

  svc::AnalysisService service;
  const auto cold =
      service.analyze(derive_request(bench.name, bench.astg, bench.eqn));
  ASSERT_TRUE(cold.ok) << cold.error;
  const svc::CacheStats stats = service.stats();
  // Verify and derive each key every job once on the cold run.
  EXPECT_EQ(stats.gate_hits, 0);
  EXPECT_EQ(stats.gate_misses, 2 * total_jobs);
  EXPECT_GT(stats.gate_bytes, 0u);
  EXPECT_GT(stats.gate_entries, 0);

  // One-gate edit: whole-design key misses, gate level hits for every
  // unchanged gate in BOTH phases.
  const std::string mutated = duplicate_first_cube(bench.eqn, "ack");
  const auto delta =
      service.analyze(derive_request(bench.name, bench.astg, mutated));
  ASSERT_TRUE(delta.ok) << delta.error;
  EXPECT_EQ(delta.cache_state, "fresh");
  const svc::CacheStats after = service.stats();
  EXPECT_EQ(after.gate_hits - stats.gate_hits,
            2 * (total_jobs - components));
  EXPECT_EQ(after.gate_misses - stats.gate_misses, 2 * components);

  // The delta report is byte-identical to a cold run of the edited design,
  // serial and parallel alike.
  ASSERT_NE(delta.canonical_json, nullptr);
  for (int jobs : {1, 8}) {
    svc::ServiceOptions cold_options;
    cold_options.cache_budget_bytes = 0;  // no cache tier at all
    svc::AnalysisService fresh(cold_options);
    const auto reference = fresh.analyze(
        derive_request(bench.name, bench.astg, mutated, jobs));
    ASSERT_TRUE(reference.ok) << reference.error;
    ASSERT_NE(reference.canonical_json, nullptr);
    EXPECT_EQ(*reference.canonical_json, *delta.canonical_json)
        << "jobs=" << jobs;
  }

  // A parallel delta run over the warm store also reproduces the bytes.
  const std::string mutated2 = duplicate_first_cube(bench.eqn, "wen");
  const auto parallel_delta = service.analyze(
      derive_request(bench.name, bench.astg, mutated2, /*jobs=*/8));
  ASSERT_TRUE(parallel_delta.ok) << parallel_delta.error;
  ASSERT_NE(parallel_delta.canonical_json, nullptr);
  svc::ServiceOptions cold_options;
  cold_options.cache_budget_bytes = 0;
  svc::AnalysisService fresh(cold_options);
  const auto reference =
      fresh.analyze(derive_request(bench.name, bench.astg, mutated2));
  ASSERT_TRUE(reference.ok) << reference.error;
  EXPECT_EQ(*reference.canonical_json, *parallel_delta.canonical_json);
}

TEST(IncrementalService, GateSlicesShareTheBudgetAndDesignsTakePriority) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");

  // Calibrate: learn the design entry's resident footprint and the gate
  // slices' appetite under an effectively unlimited budget.
  svc::AnalysisService wide;
  ASSERT_TRUE(
      wide.analyze(derive_request(bench.name, bench.astg, bench.eqn)).ok);
  const svc::CacheStats wide_stats = wide.stats();
  ASSERT_EQ(wide_stats.entries, 1);
  ASSERT_GT(wide_stats.bytes, 0u);
  ASSERT_GT(wide_stats.gate_bytes, 0u);
  // Both levels are charged to the one budget.
  EXPECT_LE(wide_stats.bytes + wide_stats.gate_bytes,
            wide_stats.budget_bytes);

  // Squeeze: a budget that fits the design entry but NOT design + all gate
  // slices. The design must stay resident; the gate cache must shed to the
  // leftover allowance instead of evicting the design.
  svc::ServiceOptions tight_options;
  tight_options.cache_budget_bytes =
      wide_stats.bytes + wide_stats.gate_bytes / 2;
  svc::AnalysisService tight(tight_options);
  const auto response =
      tight.analyze(derive_request(bench.name, bench.astg, bench.eqn));
  ASSERT_TRUE(response.ok) << response.error;
  const svc::CacheStats tight_stats = tight.stats();
  EXPECT_EQ(tight_stats.entries, 1);  // the whole design survived
  EXPECT_GT(tight_stats.gate_evictions, 0);
  EXPECT_LE(tight_stats.bytes + tight_stats.gate_bytes,
            tight_stats.budget_bytes);

  // The shrunken gate cache is purely a performance artifact: a warm
  // repeat still answers correctly, as a whole-design hit.
  const auto again =
      tight.analyze(derive_request(bench.name, bench.astg, bench.eqn));
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.cache_state, "hit");

  // Budget 0 disables both levels.
  svc::ServiceOptions off;
  off.cache_budget_bytes = 0;
  svc::AnalysisService disabled(off);
  ASSERT_TRUE(
      disabled.analyze(derive_request(bench.name, bench.astg, bench.eqn))
          .ok);
  const svc::CacheStats off_stats = disabled.stats();
  EXPECT_EQ(off_stats.gate_hits + off_stats.gate_misses, 0);
  EXPECT_EQ(off_stats.gate_bytes, 0u);
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
    svc::AnalysisService service;  // all three cache levels on
    // Cold (fills the design, decomposition and gate levels).
    const auto cold = service.analyze(
        derive_request(bench.name, bench.astg, bench.eqn, jobs));
    ASSERT_TRUE(cold.ok) << cold.error;
    // Decomp-hit + gate-slice-hit: the edited design reuses the
    // decomposition and every unchanged gate's slices.
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

TEST(IncrementalService, DecompositionsShedBeforeDesignsAfterGateSlices) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");

  // Calibrate the three levels' appetites under an unlimited budget.
  svc::AnalysisService wide;
  ASSERT_TRUE(
      wide.analyze(derive_request(bench.name, bench.astg, bench.eqn)).ok);
  const svc::CacheStats wide_stats = wide.stats();
  ASSERT_GT(wide_stats.bytes, 0u);
  ASSERT_GT(wide_stats.decomp_bytes, 0u);
  ASSERT_GT(wide_stats.gate_bytes, 0u);
  EXPECT_LE(wide_stats.bytes + wide_stats.decomp_bytes + wide_stats.gate_bytes,
            wide_stats.budget_bytes);

  // A budget that fits the design but not design + decomposition: the
  // design survives, the decomposition sheds (and the gate level with it).
  svc::ServiceOptions squeeze;
  squeeze.cache_budget_bytes = wide_stats.bytes + wide_stats.decomp_bytes / 2;
  svc::AnalysisService tight(squeeze);
  ASSERT_TRUE(
      tight.analyze(derive_request(bench.name, bench.astg, bench.eqn)).ok);
  const svc::CacheStats tight_stats = tight.stats();
  EXPECT_EQ(tight_stats.entries, 1);  // design keeps priority
  EXPECT_EQ(tight_stats.decomp_entries, 0);
  EXPECT_GT(tight_stats.decomp_evictions, 0);
  EXPECT_LE(tight_stats.bytes + tight_stats.decomp_bytes +
                tight_stats.gate_bytes,
            tight_stats.budget_bytes);

  // A budget that fits design + decomposition but not all gate slices:
  // only the gate level sheds.
  svc::ServiceOptions roomy;
  roomy.cache_budget_bytes =
      wide_stats.bytes + wide_stats.decomp_bytes + wide_stats.gate_bytes / 2;
  svc::AnalysisService middle(roomy);
  ASSERT_TRUE(
      middle.analyze(derive_request(bench.name, bench.astg, bench.eqn)).ok);
  const svc::CacheStats middle_stats = middle.stats();
  EXPECT_EQ(middle_stats.entries, 1);
  EXPECT_EQ(middle_stats.decomp_entries, 1);
  EXPECT_GT(middle_stats.gate_evictions, 0);
  EXPECT_LE(middle_stats.bytes + middle_stats.decomp_bytes +
                middle_stats.gate_bytes,
            middle_stats.budget_bytes);

  // Budget 0 disables all three levels.
  svc::ServiceOptions off;
  off.cache_budget_bytes = 0;
  svc::AnalysisService disabled(off);
  ASSERT_TRUE(
      disabled.analyze(derive_request(bench.name, bench.astg, bench.eqn))
          .ok);
  const svc::CacheStats off_stats = disabled.stats();
  EXPECT_EQ(off_stats.decomp_hits + off_stats.decomp_misses, 0);
  EXPECT_EQ(off_stats.decomp_bytes, 0u);
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

TEST(IncrementalService, GateCacheInsertFaultSkipsRetentionOnly) {
  if (!base::fault_injection_compiled_in()) GTEST_SKIP();
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  const int total_jobs =
      static_cast<int>(core::decompose_flow(stg, circuit).jobs.size());

  svc::AnalysisService service;
  {
    // One-shot: exactly the first gate_cache_insert poll fires. The slice
    // is served to its own flow — only retention is skipped.
    svc::FaultScope one(base::FaultPoint::gate_cache_insert, /*nth=*/1);
    const auto response =
        service.analyze(derive_request(bench.name, bench.astg, bench.eqn));
    ASSERT_TRUE(response.ok) << response.error;
    ASSERT_NE(response.canonical_json, nullptr);
  }
  EXPECT_GT(base::FaultInjector::instance().fired(
                base::FaultPoint::gate_cache_insert),
            0u);
  const svc::CacheStats stats = service.stats();
  // Verify + derive insert one slice per job; exactly one was dropped.
  EXPECT_EQ(stats.gate_entries, 2 * total_jobs - 1);

  // The dropped slice recomputes on demand: a second (edited) design still
  // answers with full reuse of whatever IS resident.
  const std::string mutated = duplicate_first_cube(bench.eqn, "ack");
  const auto delta =
      service.analyze(derive_request(bench.name, bench.astg, mutated));
  ASSERT_TRUE(delta.ok) << delta.error;
  EXPECT_EQ(service.stats().gate_entries, 2 * total_jobs + 2);
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
  // Calibrate on an unlimited budget, then replay the session under a
  // fifth of what it left resident: tight enough that all three tiers
  // evict. The counters are pinned, so any change to a charge, to the
  // eviction order inside a tier, or to the shed order across tiers shows.
  svc::AnalysisService wide;
  ASSERT_NO_FATAL_FAILURE(edit_session(wide));
  const svc::CacheStats wide_stats = wide.stats();
  EXPECT_EQ(wide_stats.evictions + wide_stats.decomp_evictions +
                wide_stats.gate_evictions,
            0);

  svc::ServiceOptions options;
  options.cache_budget_bytes =
      (wide_stats.bytes + wide_stats.decomp_bytes + wide_stats.gate_bytes) /
      5;
  svc::AnalysisService tight(options);
  ASSERT_NO_FATAL_FAILURE(edit_session(tight));
  const svc::CacheStats stats = tight.stats();
  EXPECT_LE(stats.bytes + stats.decomp_bytes + stats.gate_bytes,
            stats.budget_bytes);

  EXPECT_EQ(stats.hits, 4);
  EXPECT_EQ(stats.misses, 14);
  EXPECT_EQ(stats.upgrades, 3);
  EXPECT_EQ(stats.evictions, 9);
  EXPECT_EQ(stats.entries, 5);

  EXPECT_EQ(stats.decomp_hits, 6);
  EXPECT_EQ(stats.decomp_misses, 8);
  EXPECT_EQ(stats.decomp_evictions, 5);
  EXPECT_EQ(stats.decomp_entries, 1);

  EXPECT_EQ(stats.gate_hits, 11);
  EXPECT_EQ(stats.gate_misses, 153);
  EXPECT_EQ(stats.gate_evictions, 142);
  EXPECT_EQ(stats.gate_entries, 0);
}

}  // namespace
}  // namespace sitime
