// The parallel flow orchestrator: whatever the worker count or schedule,
// derive_timing_constraints must produce byte-identical constraint sets
// (the merge is in stable job order and every job is a pure function of
// its index), and verify_speed_independent must name the same first
// offender, whether its local SGs come from a fresh or an already warm
// SgCache. Also covers the structured FlowReport serializers the batch
// driver prints.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "base/metrics.hpp"
#include "base/thread_pool.hpp"
#include "benchdata/benchmarks.hpp"
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

TEST_P(ParallelFlow, MemoizedLocalStgsEqualFreshProjections) {
  const auto& bench = benchdata::benchmark(GetParam());
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  const core::FlowDecomposition decomposition =
      core::decompose_flow(stg, circuit);
  ASSERT_EQ(core::verify_speed_independent(decomposition, circuit), "");

  // Verify projected every job once; each lookup now hits and hands out
  // the projection a fresh local_stg computes.
  const std::vector<core::MemoizedLocalStg> memo =
      decomposition.memoized_local_stgs();
  EXPECT_GT(memo.size(), 0u);
  EXPECT_LE(memo.size(), decomposition.jobs.size());
  for (const core::FlowJob& job : decomposition.jobs) {
    const circuit::Gate& gate = circuit.gates()[job.gate];
    bool hit = false;
    const auto local = decomposition.local_stg_of(job.component, gate, &hit);
    EXPECT_TRUE(hit) << bench.name << " job " << job.index;
    expect_same_mg(*local,
                   core::local_stg(
                       decomposition.component_stgs[job.component], gate),
                   bench.name + " job " + std::to_string(job.index));
  }
  // Every entry is keyed by what it projects onto: rebuilding a gate from
  // its kept-signal set reproduces it.
  for (const core::MemoizedLocalStg& memoized : memo) {
    circuit::Gate gate;
    gate.output = memoized.kept.front();
    gate.fanins.assign(memoized.kept.begin() + 1, memoized.kept.end());
    expect_same_mg(
        *memoized.local,
        core::local_stg(decomposition.component_stgs[memoized.component],
                        gate),
        bench.name + " component " + std::to_string(memoized.component));
  }
  EXPECT_EQ(decomposition.memoized_local_stgs().size(), memo.size());
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
    EXPECT_EQ(core::verify_speed_independent(upgraded, circuit, options), "");
    const std::size_t projected = upgraded.memoized_local_stgs().size();
    EXPECT_EQ(canonical(core::derive_timing_constraints(upgraded, stg,
                                                        circuit, options),
                        stg.signals),
              reference)
        << bench.name << " verify then derive, jobs " << jobs;
    // An edited netlist of the same STG shares the decomposition and
    // reads its projections: nothing new is projected, and the report is
    // the edited design's cold report.
    const circuit::Circuit edited = duplicate_first_cube(circuit, stg);
    EXPECT_EQ(canonical(core::derive_timing_constraints(upgraded, stg, edited,
                                                        options),
                        stg.signals),
              canonical(core::derive_timing_constraints(stg, edited),
                        stg.signals))
        << bench.name << " edited, jobs " << jobs;
    EXPECT_EQ(upgraded.memoized_local_stgs().size(), projected) << bench.name;
  }
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
  const core::FlowDecomposition decomposition =
      core::decompose_flow(stg, circuit);
  const std::string uncached =
      core::verify_speed_independent(decomposition, circuit);
  ASSERT_EQ(uncached, "") << bench.name;  // every job looks its SG up

  base::ThreadPool pool(4);
  for (core::FlowOptions options :
       {core::FlowOptions{}, core::FlowOptions{.jobs = 4, .pool = &pool}}) {
    sg::SgCache cache;
    options.sg_cache = &cache;
    EXPECT_EQ(core::verify_speed_independent(decomposition, circuit, options),
              uncached);
    const long long lookups = cache.hits() + cache.misses();
    EXPECT_EQ(lookups, static_cast<long long>(decomposition.jobs.size()))
        << bench.name << " with " << options.jobs << " jobs";
    const long long misses = cache.misses();
    EXPECT_EQ(core::verify_speed_independent(decomposition, circuit, options),
              uncached);
    EXPECT_EQ(cache.misses(), misses)
        << bench.name << " with " << options.jobs << " jobs";
    EXPECT_EQ(cache.hits() + cache.misses(), 2 * lookups)
        << bench.name << " with " << options.jobs << " jobs";
  }
}

TEST(ParallelFlowVerify, CachedOffenderMatchesAnUncachedVerify) {
  // csc0 without its hold cube (i8' * csc0) cannot keep its value: the
  // edit is not speed independent, and every form of verify must name the
  // same first offender.
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const stg::Stg stg = benchdata::load_stg(bench);
  std::string eqn = bench.eqn;
  const std::string hold = " + i8' * csc0";
  const auto at = eqn.find(hold);
  ASSERT_NE(at, std::string::npos);
  eqn.erase(at, hold.size());
  const circuit::Circuit circuit =
      circuit::Circuit::from_equations(&stg.signals, eqn);
  const core::FlowDecomposition decomposition =
      core::decompose_flow(stg, circuit);
  const std::string uncached =
      core::verify_speed_independent(decomposition, circuit);
  EXPECT_EQ(uncached, "csc0");

  base::ThreadPool pool(4);
  for (core::FlowOptions options :
       {core::FlowOptions{}, core::FlowOptions{.jobs = 4, .pool = &pool}}) {
    sg::SgCache cache;
    options.sg_cache = &cache;
    for (int round = 0; round < 2; ++round)
      EXPECT_EQ(core::verify_speed_independent(decomposition, circuit,
                                               options),
                uncached)
          << options.jobs << " jobs, round " << round;
    EXPECT_GT(cache.misses(), 0);
  }
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

TEST(ForEachLocalStg, SerialEarlyStopVisitsPrefixOnly) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  const core::FlowDecomposition decomposition =
      core::decompose_flow(stg, circuit);
  ASSERT_GT(decomposition.jobs.size(), 4u);
  int visits = 0;
  core::for_each_local_stg(decomposition, circuit,
                           [&](const core::FlowJob& job, stg::MgStg) {
                             ++visits;
                             return job.index < 3;
                           });
  EXPECT_EQ(visits, 4);  // jobs 0..3; job 3 returned false
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
  std::vector<std::string> verdicts(kThreads);
  std::vector<std::string> reports(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] {
      const core::FlowOptions options{.jobs = 1 + i % 2,
                                      .pool = &pool,
                                      .sg_cache = &cache,
                                      .local_stg_hits = &hits,
                                      .local_stg_misses = &misses};
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
  // One lookup per job per phase per thread; racing misses may project a
  // key twice, but the memo keeps one projection per key.
  const long long jobs = static_cast<long long>(decomposition.jobs.size());
  EXPECT_EQ(hits.value() + misses.value(), 2 * kThreads * jobs);
  const long long keys =
      static_cast<long long>(decomposition.memoized_local_stgs().size());
  EXPECT_LE(keys, jobs);
  EXPECT_GE(misses.value(), keys);
  EXPECT_LE(misses.value(), kThreads * keys);
}

TEST(LocalStgMemo, HoldsAtMostOneProjectionPerJob) {
  // Netlists that read other signals key new projections; once the memo
  // holds one per job, further misses are projected and not kept.
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  const core::FlowDecomposition decomposition =
      core::decompose_flow(stg, circuit);
  const int signals = stg.signals.count();
  for (int output = 0; output < signals; ++output)
    for (int fanin = 0; fanin < signals; ++fanin) {
      circuit::Gate gate;
      gate.output = output;
      if (fanin != output) gate.fanins = {fanin};
      for (int c = 0; c < static_cast<int>(
                              decomposition.component_stgs.size());
           ++c) {
        const auto local = decomposition.local_stg_of(c, gate);
        expect_same_mg(*local,
                       core::local_stg(decomposition.component_stgs[c], gate),
                       "component " + std::to_string(c));
      }
    }
  EXPECT_EQ(decomposition.memoized_local_stgs().size(),
            decomposition.jobs.size());
  // A copy starts with an empty memo of its own.
  const core::FlowDecomposition copy = decomposition;
  EXPECT_TRUE(copy.memoized_local_stgs().empty());
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
