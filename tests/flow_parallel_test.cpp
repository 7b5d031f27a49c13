// The parallel flow orchestrator: whatever the worker count or schedule,
// derive_timing_constraints must produce byte-identical constraint sets
// (the merge is in stable job order and every job is a pure function of
// its index), and verify_speed_independent must name the same first
// offender, whether its local SGs come from a fresh or an already warm
// SgCache, and whatever job outcomes the decomposition already memoized
// (edits, racing editors, the step budget, expand options and traces).
// Also covers the structured FlowReport serializers the batch driver
// prints.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/metrics.hpp"
#include "base/thread_pool.hpp"
#include "benchdata/benchmarks.hpp"
#include "boolfn/eqn.hpp"
#include "core/flow.hpp"
#include "core/report.hpp"
#include "sg/sg_cache.hpp"

namespace sitime {
namespace {

class ParallelFlow : public ::testing::TestWithParam<std::string> {};

/// Every observable part of two MgStgs agrees: transitions (labels and
/// alive flags), arcs (endpoints, tokens and kinds, in table order) and
/// initial values.
void expect_same_mg(const stg::MgStg& a, const stg::MgStg& b,
                    const std::string& where) {
  ASSERT_EQ(a.transition_count(), b.transition_count()) << where;
  for (int t = 0; t < a.transition_count(); ++t) {
    EXPECT_EQ(a.label(t), b.label(t)) << where << " transition " << t;
    EXPECT_EQ(a.alive(t), b.alive(t)) << where << " transition " << t;
  }
  EXPECT_EQ(a.arcs(), b.arcs()) << where;
  EXPECT_EQ(a.initial_values, b.initial_values) << where;
}

/// The canonical report body of a derive result.
std::string canonical(const core::FlowResult& result,
                      const stg::SignalTable& signals) {
  return core::to_canonical_json(core::make_flow_report("", result, signals));
}

/// `circuit`'s netlist with the first cube of its first gate written twice:
/// the same functions, and so the same kept-signal sets, in a new text.
circuit::Circuit duplicate_first_cube(const circuit::Circuit& circuit,
                                      const stg::Stg& stg) {
  std::string eqn = circuit.to_eqn();
  const auto rhs = eqn.find(" = ") + 3;
  auto end = eqn.find(" + ", rhs);
  const auto semi = eqn.find(';', rhs);
  if (end == std::string::npos || semi < end) end = semi;
  eqn.insert(rhs, eqn.substr(rhs, end - rhs) + " + ");
  circuit::Circuit edited = circuit::Circuit::from_equations(&stg.signals, eqn);
  EXPECT_NE(edited.to_eqn(), circuit.to_eqn());
  return edited;
}

/// `circuit`'s netlist with gate `gate`'s up-cover replaced by `cubes`.
std::string netlist_with(const circuit::Circuit& circuit, std::size_t gate,
                         std::vector<boolfn::Cube> cubes) {
  std::vector<boolfn::Equation> equations;
  for (const circuit::Gate& each : circuit.gates())
    equations.push_back({each.output, each.up});
  equations[gate].cover.cubes = std::move(cubes);
  return boolfn::write_eqn(equations, circuit.signals().names());
}

/// The single-gate edits a designer makes, as wirebench's edit_loop does:
/// for every gate, its cubes reordered (a lone cube duplicated) and, when
/// some cube reads the gate's own output, those hold terms dropped.
std::vector<std::string> single_gate_edits(const circuit::Circuit& circuit) {
  std::vector<std::string> edits;
  for (std::size_t g = 0; g < circuit.gates().size(); ++g) {
    const circuit::Gate& gate = circuit.gates()[g];
    std::vector<boolfn::Cube> reordered = gate.up.cubes;
    if (reordered.size() > 1)
      std::rotate(reordered.begin(), reordered.begin() + 1, reordered.end());
    else
      reordered.push_back(reordered.front());
    edits.push_back(netlist_with(circuit, g, reordered));
    std::vector<boolfn::Cube> held;
    for (const boolfn::Cube& cube : gate.up.cubes)
      if ((cube.support() >> gate.output & 1) == 0) held.push_back(cube);
    if (!held.empty() && held.size() < gate.up.cubes.size())
      edits.push_back(netlist_with(circuit, g, held));
  }
  return edits;
}

/// The verdict and, when speed independent, the canonical report of one
/// netlist on `decomposition` (or the error either phase threw).
std::string verify_then_derive(const core::FlowDecomposition& decomposition,
                               const stg::Stg& stg,
                               const circuit::Circuit& circuit,
                               const core::FlowOptions& options) {
  try {
    const std::string offender =
        core::verify_speed_independent(decomposition, circuit, options);
    if (!offender.empty()) return "offender " + offender;
    return canonical(core::derive_timing_constraints(decomposition, stg,
                                                     circuit, options),
                     stg.signals);
  } catch (const std::exception& error) {
    return std::string("error ") + error.what();
  }
}

TEST_P(ParallelFlow, MemoizedLocalStgsEqualFreshProjections) {
  const auto& bench = benchdata::benchmark(GetParam());
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  const core::FlowDecomposition decomposition =
      core::decompose_flow(stg, circuit);
  ASSERT_EQ(core::verify_speed_independent(decomposition, circuit), "");

  // Verify projected every job once into its slot. Each slot holds the
  // projection a fresh local_stg computes for the gate it was made for:
  // its output and the fanins of its covers, which are the netlist's.
  const std::vector<core::MemoizedOutcome> memo =
      decomposition.memoized_outcomes();
  ASSERT_EQ(memo.size(), decomposition.jobs.size());
  for (const core::MemoizedOutcome& slot : memo) {
    const std::string where = bench.name + " component " +
                              std::to_string(slot.component) + " output " +
                              std::to_string(slot.output);
    ASSERT_NE(slot.outcome.covers, nullptr) << where;
    ASSERT_NE(slot.outcome.local, nullptr) << where;
    circuit::Gate gate;
    gate.output = slot.output;
    gate.fanins = slot.outcome.covers->fanins;
    EXPECT_EQ(gate.fanins, circuit.gate_for(slot.output).fanins) << where;
    expect_same_mg(
        *slot.outcome.local,
        core::local_stg(decomposition.component_stgs[slot.component], gate),
        where);
  }

  // Derive runs every job on the projection its slot holds, and the slot
  // keeps it.
  base::MetricCounter hits;
  base::MetricCounter misses;
  core::derive_timing_constraints(
      decomposition, stg, circuit,
      {.local_stg_hits = &hits, .local_stg_misses = &misses});
  EXPECT_EQ(hits.value(), static_cast<long long>(memo.size()));
  EXPECT_EQ(misses.value(), 0);
  const std::vector<core::MemoizedOutcome> after =
      decomposition.memoized_outcomes();
  ASSERT_EQ(after.size(), memo.size());
  for (std::size_t i = 0; i < memo.size(); ++i)
    EXPECT_EQ(after[i].outcome.local, memo[i].outcome.local) << bench.name;
}

TEST_P(ParallelFlow, ReportsAreByteIdenticalWhateverFilledTheMemo) {
  const auto& bench = benchdata::benchmark(GetParam());
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  const std::string reference =
      canonical(core::derive_timing_constraints(stg, circuit), stg.signals);

  base::ThreadPool pool(4);
  for (const int jobs : {1, 4}) {
    const core::FlowOptions options{.jobs = jobs, .pool = &pool};
    base::MetricCounter projections;
    core::FlowOptions counted = options;
    counted.local_stg_misses = &projections;
    // Derive on an empty memo.
    const core::FlowDecomposition derive_only =
        core::decompose_flow(stg, circuit);
    EXPECT_EQ(canonical(core::derive_timing_constraints(derive_only, stg,
                                                        circuit, options),
                        stg.signals),
              reference)
        << bench.name << " derive-only, jobs " << jobs;
    // Verify fills the memo, derive reads it.
    const core::FlowDecomposition upgraded =
        core::decompose_flow(stg, circuit);
    EXPECT_EQ(core::verify_speed_independent(upgraded, circuit, counted), "");
    const long long projected = static_cast<long long>(upgraded.jobs.size());
    EXPECT_EQ(projections.value(), projected) << bench.name;
    EXPECT_EQ(canonical(core::derive_timing_constraints(upgraded, stg,
                                                        circuit, counted),
                        stg.signals),
              reference)
        << bench.name << " verify then derive, jobs " << jobs;
    // An edited netlist of the same STG shares the decomposition and
    // reads its projections: nothing new is projected, and the report is
    // the edited design's cold report.
    const circuit::Circuit edited = duplicate_first_cube(circuit, stg);
    EXPECT_EQ(canonical(core::derive_timing_constraints(upgraded, stg, edited,
                                                        counted),
                        stg.signals),
              canonical(core::derive_timing_constraints(stg, edited),
                        stg.signals))
        << bench.name << " edited, jobs " << jobs;
    EXPECT_EQ(projections.value(), projected) << bench.name;
    EXPECT_EQ(upgraded.memoized_outcomes().size(), upgraded.jobs.size())
        << bench.name;
  }
}

TEST_P(ParallelFlow, SingleGateEditsOnASharedDecompositionMatchFreshOnes) {
  // One decomposition serves the design and every single-gate edit of it
  // in turn, as the service shares it among the versions of one STG: each
  // edit finds the outcomes of its unchanged gates memoized (and the
  // edited gate's slot holding another version), and must still give the
  // verdict and report of a fresh decomposition.
  const auto& bench = benchdata::benchmark(GetParam());
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  std::vector<std::string> netlists = {circuit.to_eqn()};
  for (const std::string& edit : single_gate_edits(circuit))
    netlists.push_back(edit);
  netlists.push_back(circuit.to_eqn());  // back to the original

  base::ThreadPool pool(4);
  const core::FlowDecomposition shared = core::decompose_flow(stg, circuit);
  for (const int jobs : {1, 4}) {
    const core::FlowOptions options{.jobs = jobs, .pool = &pool};
    base::MetricCounter hits;
    core::FlowOptions counted = options;
    counted.derive_outcome_hits = &hits;
    for (const std::string& eqn : netlists) {
      const circuit::Circuit edited =
          circuit::Circuit::from_equations(&stg.signals, eqn);
      EXPECT_EQ(verify_then_derive(shared, stg, edited, counted),
                verify_then_derive(core::decompose_flow(stg, edited), stg,
                                   edited, options))
          << bench.name << ", jobs " << jobs << ", netlist\n"
          << eqn;
    }
    if (netlists.size() > 2 && shared.jobs.size() > 1)
      EXPECT_GT(hits.value(), 0) << bench.name << ", jobs " << jobs;
  }
  EXPECT_LE(shared.memoized_outcomes().size(), shared.jobs.size());
}

TEST_P(ParallelFlow, ConstraintSetsAreIdenticalForAnyJobCount) {
  const auto& bench = benchdata::benchmark(GetParam());
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);

  const core::FlowResult serial =
      core::derive_timing_constraints(stg, circuit);

  base::ThreadPool pool(4);
  for (int jobs : {2, 8}) {
    core::FlowOptions options;
    options.jobs = jobs;
    options.pool = &pool;
    const core::FlowResult parallel =
        core::derive_timing_constraints(stg, circuit, options);
    EXPECT_EQ(parallel.before, serial.before)
        << bench.name << " with " << jobs << " jobs";
    EXPECT_EQ(parallel.after, serial.after)
        << bench.name << " with " << jobs << " jobs";
    EXPECT_EQ(parallel.state_count, serial.state_count);
    EXPECT_EQ(parallel.mg_component_count, serial.mg_component_count);
    EXPECT_EQ(parallel.jobs, jobs);
    // The rendered constraint lists are byte-identical too.
    const core::FlowReport a =
        core::make_flow_report(bench.name, serial, stg.signals);
    const core::FlowReport b =
        core::make_flow_report(bench.name, parallel, stg.signals);
    for (std::size_t i = 0; i < a.before.size(); ++i)
      ASSERT_EQ(a.before[i].text(), b.before[i].text());
    for (std::size_t i = 0; i < a.after.size(); ++i)
      ASSERT_EQ(a.after[i].text(), b.after[i].text());
  }
}

TEST_P(ParallelFlow, VerifyMatchesSerialVerdict) {
  const auto& bench = benchdata::benchmark(GetParam());
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  base::ThreadPool pool(4);
  EXPECT_EQ(core::verify_speed_independent(stg, circuit),
            core::verify_speed_independent(stg, circuit,
                                           {.jobs = 8, .pool = &pool}))
      << bench.name;
}

TEST_P(ParallelFlow, VerifyServesRepeatedLocalSgsFromTheCache) {
  const auto& bench = benchdata::benchmark(GetParam());
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  const std::string uncached = core::verify_speed_independent(stg, circuit);
  ASSERT_EQ(uncached, "") << bench.name;  // every job looks its SG up

  base::ThreadPool pool(4);
  for (core::FlowOptions options :
       {core::FlowOptions{}, core::FlowOptions{.jobs = 4, .pool = &pool}}) {
    sg::SgCache cache;
    options.sg_cache = &cache;
    const core::FlowDecomposition decomposition =
        core::decompose_flow(stg, circuit);
    EXPECT_EQ(core::verify_speed_independent(decomposition, circuit, options),
              uncached);
    const long long lookups = cache.hits() + cache.misses();
    EXPECT_EQ(lookups, static_cast<long long>(decomposition.jobs.size()))
        << bench.name << " with " << options.jobs << " jobs";
    // A fresh decomposition of the same design finds every local SG in
    // the cache.
    const long long misses = cache.misses();
    EXPECT_EQ(core::verify_speed_independent(core::decompose_flow(stg, circuit),
                                             circuit, options),
              uncached);
    EXPECT_EQ(cache.misses(), misses)
        << bench.name << " with " << options.jobs << " jobs";
    EXPECT_EQ(cache.hits() + cache.misses(), 2 * lookups)
        << bench.name << " with " << options.jobs << " jobs";
    // The first decomposition remembers every verdict: a repeat asks the
    // cache for nothing.
    base::MetricCounter hits;
    options.verify_outcome_hits = &hits;
    EXPECT_EQ(core::verify_speed_independent(decomposition, circuit, options),
              uncached);
    EXPECT_EQ(cache.hits() + cache.misses(), 2 * lookups)
        << bench.name << " with " << options.jobs << " jobs";
    EXPECT_EQ(hits.value(), lookups) << bench.name;
  }
}

/// imec-ram-read-sbuf with csc0's hold cube (i8' * csc0) dropped: csc0
/// cannot keep its value, so the netlist is not speed independent.
circuit::Circuit without_csc0_hold(const benchdata::Benchmark& bench,
                                   const stg::Stg& stg) {
  std::string eqn = bench.eqn;
  const std::string hold = " + i8' * csc0";
  const auto at = eqn.find(hold);
  EXPECT_NE(at, std::string::npos);
  if (at != std::string::npos) eqn.erase(at, hold.size());
  return circuit::Circuit::from_equations(&stg.signals, eqn);
}

TEST(ParallelFlowVerify, CachedOffenderMatchesAnUncachedVerify) {
  // Every form of verify must name the same first offender: uncached, on
  // a fresh decomposition building its local SGs, on a fresh decomposition
  // reading them from a warm SgCache, and from the memoized verdicts.
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = without_csc0_hold(bench, stg);
  const std::string uncached = core::verify_speed_independent(stg, circuit);
  EXPECT_EQ(uncached, "csc0");

  base::ThreadPool pool(4);
  for (core::FlowOptions options :
       {core::FlowOptions{}, core::FlowOptions{.jobs = 4, .pool = &pool}}) {
    sg::SgCache cache;
    options.sg_cache = &cache;
    const std::string where = std::to_string(options.jobs) + " jobs";
    EXPECT_EQ(core::verify_speed_independent(
                  core::decompose_flow(stg, circuit), circuit, options),
              uncached)
        << where << ", building SGs";
    const long long misses = cache.misses();
    EXPECT_GT(misses, 0) << where;

    const core::FlowDecomposition decomposition =
        core::decompose_flow(stg, circuit);
    const long long hits = cache.hits();
    EXPECT_EQ(core::verify_speed_independent(decomposition, circuit, options),
              uncached)
        << where << ", SGs from the cache";
    EXPECT_EQ(cache.misses(), misses) << where;
    EXPECT_GT(cache.hits(), hits) << where;

    base::MetricCounter memo_hits;
    options.verify_outcome_hits = &memo_hits;
    const long long lookups = cache.hits() + cache.misses();
    EXPECT_EQ(core::verify_speed_independent(decomposition, circuit, options),
              uncached)
        << where << ", memoized verdicts";
    EXPECT_EQ(cache.hits() + cache.misses(), lookups) << where;
    EXPECT_GT(memo_hits.value(), 0) << where;
  }
}

TEST(ParallelFlowVerify, SerialVerifyStopsAtTheFirstOffender) {
  // Serially, verify checks the jobs in order and stops at the offender:
  // no job after it projects its local STG or has its verdict computed,
  // and a repeat reads the verdicts up to the offender and no further.
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = without_csc0_hold(bench, stg);
  const core::FlowDecomposition decomposition =
      core::decompose_flow(stg, circuit);
  const int csc0 = circuit.signals().find("csc0");
  const auto offender = std::find_if(
      decomposition.jobs.begin(), decomposition.jobs.end(),
      [&](const core::FlowJob& job) {
        return circuit.gates()[job.gate].output == csc0;
      });
  ASSERT_NE(offender, decomposition.jobs.end());
  const long long prefix = offender->index + 1;
  ASSERT_LT(prefix, static_cast<long long>(decomposition.jobs.size()));

  base::MetricCounter verdicts;
  base::MetricCounter projections;
  base::MetricCounter memo_hits;
  const core::FlowOptions options{.local_stg_misses = &projections,
                                  .verify_outcome_hits = &memo_hits,
                                  .verify_outcome_misses = &verdicts};
  EXPECT_EQ(core::verify_speed_independent(decomposition, circuit, options),
            "csc0");
  EXPECT_EQ(verdicts.value(), prefix);
  EXPECT_EQ(projections.value(), prefix);
  EXPECT_EQ(decomposition.memoized_outcomes().size(),
            static_cast<std::size_t>(prefix));

  EXPECT_EQ(core::verify_speed_independent(decomposition, circuit, options),
            "csc0");
  EXPECT_EQ(memo_hits.value(), prefix);
  EXPECT_EQ(verdicts.value(), prefix);
}

std::vector<std::string> benchmark_names() {
  std::vector<std::string> names;
  for (const auto& bench : benchdata::all_benchmarks())
    names.push_back(bench.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, ParallelFlow,
                         ::testing::ValuesIn(benchmark_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(JobOutcomeMemo, TheStepBudgetTripsWhateverTheMemoHolds) {
  // Memoized jobs charge their recorded steps to the per-flow max_steps
  // budget: one step below a design's total, derive fails cold, after a
  // failed run memoized every job it finished, and after a successful run
  // memoized them all; at the total it succeeds everywhere with the same
  // bytes.
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  const core::FlowResult reference =
      core::derive_timing_constraints(stg, circuit);
  const int total = reference.expand_steps;
  ASSERT_GT(total, 1);

  base::ThreadPool pool(4);
  for (const int jobs : {1, 4}) {
    core::FlowOptions tight{.jobs = jobs, .pool = &pool};
    tight.expand.max_steps = total - 1;
    core::FlowOptions exact = tight;
    exact.expand.max_steps = total;
    const auto derived = [](const core::FlowDecomposition& decomposition) {
      const std::vector<core::MemoizedOutcome> memo =
          decomposition.memoized_outcomes();
      return std::count_if(memo.begin(), memo.end(), [](const auto& slot) {
        return slot.outcome.derivation != nullptr;
      });
    };

    const core::FlowDecomposition cold = core::decompose_flow(stg, circuit);
    EXPECT_THROW(core::derive_timing_constraints(cold, stg, circuit, tight),
                 core::ExpandLimitError)
        << "cold, jobs " << jobs;
    // The failed run kept what its finished jobs derived, and the retry
    // still trips.
    const long long finished = derived(cold);
    EXPECT_LT(finished, static_cast<long long>(cold.jobs.size()));
    EXPECT_THROW(core::derive_timing_constraints(cold, stg, circuit, tight),
                 core::ExpandLimitError)
        << "partly memoized, jobs " << jobs;
    EXPECT_EQ(canonical(core::derive_timing_constraints(cold, stg, circuit,
                                                        exact),
                        stg.signals),
              canonical(reference, stg.signals))
        << "partly memoized, jobs " << jobs;

    // Every job memoized: the charge alone exceeds the budget.
    const core::FlowDecomposition warm = core::decompose_flow(stg, circuit);
    const core::FlowResult first =
        core::derive_timing_constraints(warm, stg, circuit, exact);
    EXPECT_EQ(derived(warm), static_cast<long long>(warm.jobs.size()));
    EXPECT_THROW(core::derive_timing_constraints(warm, stg, circuit, tight),
                 core::ExpandLimitError)
        << "memoized, jobs " << jobs;
    const core::FlowResult again =
        core::derive_timing_constraints(warm, stg, circuit, exact);
    EXPECT_EQ(canonical(again, stg.signals), canonical(first, stg.signals));
    EXPECT_EQ(canonical(again, stg.signals), canonical(reference, stg.signals));
    // The memoized steps count against the budget, not as work done.
    EXPECT_EQ(first.expand_steps, total);
    EXPECT_EQ(again.expand_steps, 0);
  }
}

TEST(JobOutcomeMemo, OptionsThatShapeTheAnswerMissAndATraceBypasses) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  const core::FlowDecomposition decomposition =
      core::decompose_flow(stg, circuit);
  const long long jobs = static_cast<long long>(decomposition.jobs.size());
  base::MetricCounter hits;
  base::MetricCounter misses;
  core::FlowOptions options{.derive_outcome_hits = &hits,
                            .derive_outcome_misses = &misses};
  const auto run = [&](const core::FlowOptions& run_options) {
    return canonical(core::derive_timing_constraints(decomposition, stg,
                                                     circuit, run_options),
                     stg.signals);
  };
  const std::string first = run(options);
  EXPECT_EQ(misses.value(), jobs);
  EXPECT_EQ(run(options), first);
  EXPECT_EQ(hits.value(), jobs);

  // Another order or depth bound is another derivation.
  core::FlowOptions loosest = options;
  loosest.expand.order = core::ExpandOptions::OrderPolicy::loosest_first;
  core::FlowOptions cold_loosest;
  cold_loosest.expand.order = loosest.expand.order;
  EXPECT_EQ(run(loosest),
            canonical(core::derive_timing_constraints(stg, circuit,
                                                      cold_loosest),
                      stg.signals));
  EXPECT_EQ(misses.value(), 2 * jobs);
  core::FlowOptions deeper = options;
  deeper.expand.max_depth += 1;
  EXPECT_EQ(run(deeper), first);
  EXPECT_EQ(misses.value(), 3 * jobs);

  // A trace sees every relaxation step: nothing is read from the memo.
  std::string trace;
  core::FlowOptions traced = deeper;
  traced.expand.trace = &trace;
  EXPECT_EQ(run(traced), first);
  EXPECT_EQ(hits.value(), jobs);
  EXPECT_FALSE(trace.empty());
  EXPECT_EQ(run(deeper), first);
  EXPECT_EQ(hits.value(), 2 * jobs);
}

TEST(JobOutcomeMemo, FourEditorsRacingOnOneDecompositionGetColdAnswers) {
  // Four threads verify and derive different single-gate edits of one
  // design on one shared decomposition at once, so outcome slots are read
  // while other threads replace them with other versions' outcomes.
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  std::vector<std::string> netlists = {circuit.to_eqn()};
  for (const std::string& edit : single_gate_edits(circuit))
    netlists.push_back(edit);
  std::vector<circuit::Circuit> circuits;
  std::vector<std::string> cold;
  for (const std::string& eqn : netlists) {
    circuits.push_back(circuit::Circuit::from_equations(&stg.signals, eqn));
    const circuit::Circuit& edited = circuits.back();
    cold.push_back(verify_then_derive(core::decompose_flow(stg, edited), stg,
                                      edited, {}));
  }

  const core::FlowDecomposition shared = core::decompose_flow(stg, circuit);
  constexpr int kThreads = 4;
  constexpr int kRounds = 2;
  base::ThreadPool pool(2);
  sg::SgCache cache;
  std::vector<std::vector<std::string>> answers(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      const core::FlowOptions options{
          .jobs = 1 + t % 2, .pool = &pool, .sg_cache = &cache};
      for (int round = 0; round < kRounds; ++round)
        for (std::size_t i = 0; i < circuits.size(); ++i) {
          const std::size_t n = (i * (t + 1) + t) % circuits.size();
          answers[t].push_back(std::to_string(n) + '\x1f' +
                               verify_then_derive(shared, stg, circuits[n],
                                                  options));
        }
    });
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(answers[t].size(), kRounds * circuits.size());
    for (const std::string& answer : answers[t]) {
      const auto split = answer.find('\x1f');
      EXPECT_EQ(answer.substr(split + 1),
                cold[std::stoul(answer.substr(0, split))])
          << "thread " << t;
    }
  }
  EXPECT_LE(shared.memoized_outcomes().size(), shared.jobs.size());
}

TEST(ParallelFlowStats, JobStatisticsAreFilled) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  core::FlowOptions options;
  options.jobs = 4;
  const core::FlowResult result =
      core::derive_timing_constraints(stg, circuit, options);
  EXPECT_GT(result.expand_steps, 0);
  EXPECT_GT(result.cache_misses, 0);
  EXPECT_GE(result.seconds, result.expand_seconds);
}

TEST(ExpansionSubtasks, EngageBelowTheJobLevelAndStayByteIdentical) {
  // ebergen is a single-MG-component design with only 3 (component × gate)
  // jobs but several OR-causality decompositions: exactly the shape whose
  // parallelism used to be capped by the job count. With jobs > job count
  // the subSTG recursion must fan out as subtasks — and still merge to the
  // serial constraint sets byte for byte.
  const auto& bench = benchdata::benchmark("ebergen");
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);

  const core::FlowResult serial =
      core::derive_timing_constraints(stg, circuit);
  EXPECT_EQ(serial.expand_subtasks, 0);  // serial recursion, no subtasks

  base::ThreadPool pool(4);
  core::FlowOptions options;
  options.jobs = 8;
  options.pool = &pool;
  const core::FlowResult parallel =
      core::derive_timing_constraints(stg, circuit, options);
  EXPECT_GT(parallel.expand_subtasks, 0);  // the fan-out engaged
  EXPECT_EQ(parallel.before, serial.before);
  EXPECT_EQ(parallel.after, serial.after);
  EXPECT_EQ(parallel.expand_steps, serial.expand_steps);
}

TEST(ExpansionSubtasks, SubtaskCountIsScheduleIndependent) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  base::ThreadPool pool(4);
  int first = -1;
  for (int round = 0; round < 3; ++round) {
    core::FlowOptions options;
    options.jobs = 8;
    options.pool = &pool;
    const core::FlowResult result =
        core::derive_timing_constraints(stg, circuit, options);
    if (first == -1) first = result.expand_subtasks;
    EXPECT_EQ(result.expand_subtasks, first) << "round " << round;
  }
  EXPECT_GT(first, 0);
}

TEST(ParallelFlowStats, TraceForcesSerialSchedule) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  std::string trace;
  core::FlowOptions options;
  options.jobs = 8;
  options.expand.trace = &trace;
  const core::FlowResult result =
      core::derive_timing_constraints(stg, circuit, options);
  EXPECT_EQ(result.jobs, 1);
  EXPECT_FALSE(trace.empty());
}

TEST(LocalStgMemo, ThreadsSharingOneDecompositionAgree) {
  // One decomposition, as the service shares it among the designs of one
  // STG: every thread verifies then derives on it at once, on a shared
  // pool and SgCache, and gets the serial answer.
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  const std::string reference =
      canonical(core::derive_timing_constraints(stg, circuit), stg.signals);
  const core::FlowDecomposition decomposition =
      core::decompose_flow(stg, circuit);

  constexpr int kThreads = 4;
  base::ThreadPool pool(2);
  sg::SgCache cache;
  base::MetricCounter hits;
  base::MetricCounter misses;
  base::MetricCounter outcome_hits[2];
  base::MetricCounter outcome_misses[2];
  std::vector<std::string> verdicts(kThreads);
  std::vector<std::string> reports(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] {
      const core::FlowOptions options{.jobs = 1 + i % 2,
                                      .pool = &pool,
                                      .sg_cache = &cache,
                                      .local_stg_hits = &hits,
                                      .local_stg_misses = &misses,
                                      .verify_outcome_hits = &outcome_hits[0],
                                      .verify_outcome_misses =
                                          &outcome_misses[0],
                                      .derive_outcome_hits = &outcome_hits[1],
                                      .derive_outcome_misses =
                                          &outcome_misses[1]};
      verdicts[i] =
          core::verify_speed_independent(decomposition, circuit, options);
      reports[i] = canonical(core::derive_timing_constraints(
                                 decomposition, stg, circuit, options),
                             stg.signals);
    });
  for (std::thread& thread : threads) thread.join();

  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(verdicts[i], "") << "thread " << i;
    EXPECT_EQ(reports[i], reference) << "thread " << i;
  }
  // One outcome lookup per job per phase per thread; only the outcomes
  // the memo missed (at least one thread's worth, more when threads race)
  // look their slot's local STG up. Racing verify misses may project a job
  // more than once, but the memo keeps one slot per job, and each thread's
  // derive finds the projection its own verify stored.
  const long long jobs = static_cast<long long>(decomposition.jobs.size());
  long long outcome_misses_total = 0;
  for (int phase = 0; phase < 2; ++phase) {
    EXPECT_EQ(outcome_hits[phase].value() + outcome_misses[phase].value(),
              kThreads * jobs)
        << "phase " << phase;
    EXPECT_GE(outcome_misses[phase].value(), jobs) << "phase " << phase;
    outcome_misses_total += outcome_misses[phase].value();
  }
  EXPECT_EQ(hits.value() + misses.value(), outcome_misses_total);
  EXPECT_EQ(decomposition.memoized_outcomes().size(),
            static_cast<std::size_t>(jobs));
  EXPECT_GE(misses.value(), jobs);
  EXPECT_LE(misses.value(), kThreads * jobs);
}

TEST(LocalStgMemo, HoldsAtMostOneProjectionPerJob) {
  // Gates that read other signals reset their slots to new covers and new
  // projections; the memo never holds more than one slot per job, and
  // each slot holds the projection of the last gate stored in it.
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  const core::FlowDecomposition decomposition =
      core::decompose_flow(stg, circuit);
  const int signals = stg.signals.count();
  const int components =
      static_cast<int>(decomposition.component_stgs.size());
  for (int output = 0; output < signals; ++output)
    for (int fanin = 0; fanin < signals; ++fanin) {
      circuit::Gate gate;
      gate.output = output;
      gate.up.cubes = {boolfn::Cube::literal(fanin, true)};
      if (fanin != output) gate.fanins = {fanin};
      for (int c = 0; c < components; ++c)
        decomposition.remember_outcome(
            {.component = c}, gate,
            std::make_shared<const stg::MgStg>(
                core::local_stg(decomposition.component_stgs[c], gate)),
            true, nullptr);
      EXPECT_LE(decomposition.memoized_outcomes().size(),
                decomposition.jobs.size());
    }
  const std::vector<core::MemoizedOutcome> memo =
      decomposition.memoized_outcomes();
  EXPECT_EQ(memo.size(), decomposition.jobs.size());
  for (const core::MemoizedOutcome& slot : memo) {
    circuit::Gate gate;
    gate.output = slot.output;
    gate.fanins = slot.outcome.covers->fanins;
    // The last gate stored for every output read the last signal, which
    // the last signal's own gate does not count as a fanin.
    EXPECT_EQ(gate.fanins, slot.output == signals - 1
                               ? std::vector<int>{}
                               : std::vector<int>{signals - 1});
    expect_same_mg(
        *slot.outcome.local,
        core::local_stg(decomposition.component_stgs[slot.component], gate),
        "component " + std::to_string(slot.component));
  }
  // A copy starts with an empty memo of its own.
  const core::FlowDecomposition copy = decomposition;
  EXPECT_TRUE(copy.memoized_outcomes().empty());
}

TEST(LocalStgMemo, AFaninChangingEditProjectsItsGateOnce) {
  // An edit that makes a gate read other signals projects that gate's jobs
  // once: its verify stores the new local STGs in the gate's slots, and
  // the derive that follows runs on them. The memo stays one slot per job.
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  const core::FlowDecomposition decomposition =
      core::decompose_flow(stg, circuit);
  ASSERT_EQ(core::verify_speed_independent(decomposition, circuit), "");
  core::derive_timing_constraints(decomposition, stg, circuit, {});
  const long long components =
      static_cast<long long>(decomposition.component_stgs.size());

  const std::string original = "map0 = wsldin' * csc0;";
  const std::string eqn = bench.eqn;
  const auto at = eqn.find(original);
  ASSERT_NE(at, std::string::npos);
  for (const char* map0 :
       {"wsldin' * csc0 * req'", "wsldin' * csc0 * wenin'",
        "wsldin' * csc0 * precharged", "wsldin' * req", "wsldin' * csc0"}) {
    std::string edited_eqn = eqn;
    edited_eqn.replace(at, original.size(),
                       std::string("map0 = ") + map0 + ";");
    const circuit::Circuit edited =
        circuit::Circuit::from_equations(&stg.signals, edited_eqn);
    base::MetricCounter verify_hits;
    base::MetricCounter verify_misses;
    core::verify_speed_independent(
        decomposition, edited,
        {.local_stg_hits = &verify_hits, .local_stg_misses = &verify_misses});
    EXPECT_EQ(verify_misses.value(), components) << map0;
    EXPECT_EQ(verify_hits.value(), 0) << map0;
    base::MetricCounter derive_hits;
    base::MetricCounter derive_misses;
    core::derive_timing_constraints(
        decomposition, stg, edited,
        {.local_stg_hits = &derive_hits, .local_stg_misses = &derive_misses});
    EXPECT_EQ(derive_hits.value(), components) << map0;
    EXPECT_EQ(derive_misses.value(), 0) << map0;
    EXPECT_EQ(decomposition.memoized_outcomes().size(),
              decomposition.jobs.size())
        << map0;
  }
}

TEST(FlowReport, TextAndJsonCarryTheThesisLists) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  const core::FlowResult result =
      core::derive_timing_constraints(stg, circuit);
  const core::FlowReport report =
      core::make_flow_report("imec-ram-read-sbuf", result, stg.signals);

  EXPECT_EQ(report.before.size(), 19u);
  EXPECT_EQ(report.after.size(), 12u);
  EXPECT_EQ(report.state_count, 112);
  EXPECT_FALSE(report.gates.empty());

  const std::string text = core::to_text(report);
  EXPECT_NE(text.find("The timing constraints in the original "
                      "specification are:"),
            std::string::npos);
  EXPECT_NE(text.find("i0: wenin- < precharged-"), std::string::npos);
  EXPECT_NE(text.find("sg-cache:"), std::string::npos);

  const std::string json = core::to_json(report);
  EXPECT_NE(json.find("\"design\": \"imec-ram-read-sbuf\""),
            std::string::npos);
  EXPECT_NE(json.find("\"states\": 112"), std::string::npos);
  EXPECT_NE(json.find("\"before\": \"wenin-\""), std::string::npos);
  EXPECT_NE(json.find("\"per_gate\""), std::string::npos);
  // Balanced braces/brackets as a cheap well-formedness check.
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(FlowReport, JsonEscapesControlAndQuoteCharacters) {
  EXPECT_EQ(core::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(core::json_escape(std::string(1, '\x01')), "\\u0001");
}

}  // namespace
}  // namespace sitime
