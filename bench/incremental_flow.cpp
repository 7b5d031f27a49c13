// Editor-loop benchmark for the warm path: mutate one gate per iteration
// and re-run the flow, comparing cold (no caches — every edit
// re-decomposes and expands every (component × gate) job against a
// private state-graph cache) against delta (the service's warm path: the
// edited design shares the decomposition of its unchanged STG, skipping
// the global-SG rebuild, reads the memoized outcomes of its unchanged
// gates, and the process-wide sg::SgCache serves the state graphs the
// expansion of the edited gate asks for). An edit never changes the gate
// count, so the delta lane, like the service, hands every edit the one
// shared decomposition as is: its decompose time reads 0. Emits one JSON
// document (committed as BENCH_incremental.json at the repo root) with a
// per-phase breakdown (decompose / expand / render seconds) for both
// lanes. "Render" is what the service does per derive: freeze the result
// into a FlowReport and render its canonical JSON, the only form it keeps.
// Each lane also reports its Algorithm 1 projections per edit: the cold
// lane projects every job of its fresh decomposition once, the delta lane
// finds the local STG of every job it runs in that job's memo slot. And
// each lane reports its Expander runs per edit: the cold lane expands
// every job, the delta lane only the jobs whose gate covers differ from
// the outcome the shared decomposition memoized for them (the edited gate,
// and the gate the previous edit changed back).
//
// The loop models a designer iterating on one gate of a finished design:
// the STG is parsed once and stays fixed; each iteration re-parses the
// edited netlist and re-derives the constraints. The edit is the one
// tests/incremental_test.cpp uses — duplicate the first cube of the
// target gate's equation — so the gate's function (and with it the
// constraint sets) is unchanged while the whole-design key differs on
// every iteration.
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "base/metrics.hpp"
#include "benchdata/benchmarks.hpp"
#include "circuit/circuit.hpp"
#include "core/flow.hpp"
#include "core/report.hpp"
#include "host_load.hpp"
#include "sg/sg_cache.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Output names of the canonical netlist, in equation order.
std::vector<std::string> gate_names(const std::string& eqn) {
  std::vector<std::string> names;
  std::size_t at = 0;
  while (at < eqn.size()) {
    const auto eq = eqn.find(" = ", at);
    if (eq == std::string::npos) break;
    auto line = eqn.rfind('\n', eq);
    line = line == std::string::npos ? 0 : line + 1;
    names.push_back(eqn.substr(line, eq - line));
    at = eqn.find('\n', eq);
    if (at == std::string::npos) break;
    ++at;
  }
  return names;
}

/// Duplicates the first cube of `gate`'s equation `copies` times — one
/// distinct edit per (gate, copies) pair, so the edit stream never
/// repeats a netlist text.
std::string mutate(const std::string& eqn, const std::string& gate,
                   int copies) {
  const std::string lhs = gate + " = ";
  const auto at = eqn.find(lhs);
  if (at == std::string::npos) return eqn;
  const auto rhs = at + lhs.size();
  auto end = eqn.find('+', rhs);
  const auto semi = eqn.find(';', rhs);
  if (end == std::string::npos || semi < end) end = semi;
  const std::string first = eqn.substr(rhs, end - rhs);
  std::string mutated = eqn;
  for (int c = 0; c < copies; ++c) mutated.insert(rhs, first + " + ");
  return mutated;
}

/// Accumulated per-phase wall time of one lane's edit stream.
struct PhaseBreakdown {
  double decompose_seconds = 0.0;  // global SG + MG decomposition
  double expand_seconds = 0.0;     // the (component × gate) job graph
  double render_seconds = 0.0;     // report assembly + canonical JSON
  long long projections = 0;       // local STGs projected (memo misses)
  long long expand_jobs = 0;       // Expander runs (outcome memo misses)
};

struct DesignRow {
  std::string design;
  int gates = 0;
  int edits = 0;
  double cold_seconds = 0.0;
  double delta_seconds = 0.0;
  double hit_rate = 0.0;
  PhaseBreakdown cold;
  PhaseBreakdown delta;
};

void print_phases(const char* prefix, const PhaseBreakdown& phases,
                  int edits) {
  std::printf("\"%s_decompose_seconds\": %.6f, "
              "\"%s_expand_seconds\": %.6f, "
              "\"%s_render_seconds\": %.6f, "
              "\"%s_projections_per_edit\": %.2f, "
              "\"%s_expand_jobs_per_edit\": %.2f",
              prefix, phases.decompose_seconds, prefix,
              phases.expand_seconds, prefix, phases.render_seconds, prefix,
              static_cast<double>(phases.projections) / edits, prefix,
              static_cast<double>(phases.expand_jobs) / edits);
}

}  // namespace

int main() {
  using namespace sitime;
  const sitime::bench::HostLoad host;
  constexpr int kRounds = 5;  // edit stream: kRounds distinct edits per gate


  std::vector<DesignRow> rows;
  for (const auto& bench : benchdata::all_benchmarks()) {
    const stg::Stg stg = benchdata::load_stg(bench);
    const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
    if (!core::verify_speed_independent(stg, circuit).empty()) continue;
    const std::string eqn = circuit.to_eqn();
    const std::vector<std::string> gates = gate_names(eqn);
    if (gates.size() < 2) continue;

    DesignRow row;
    row.design = bench.name;
    row.gates = static_cast<int>(gates.size());
    row.edits = kRounds * row.gates;

    // One edit of one lane: derive against `decomposition`, charging each
    // phase of the run to `phases`. The decompose charge is paid by the
    // caller — the cold lane decomposes per edit, the delta lane reuses
    // one shared decomposition.
    const auto run_edit = [&](const core::FlowDecomposition& decomposition,
                              const circuit::Circuit& edited,
                              sg::SgCache* sg_cache,
                              PhaseBreakdown& phases) {
      base::MetricCounter projections;
      base::MetricCounter expand_jobs;
      core::FlowOptions options;
      options.sg_cache = sg_cache;
      options.local_stg_misses = &projections;
      options.derive_outcome_misses = &expand_jobs;
      const core::FlowResult result = core::derive_timing_constraints(
          decomposition, stg, edited, options);
      phases.expand_seconds += result.expand_seconds;
      phases.projections += projections.value();
      phases.expand_jobs += expand_jobs.value();
      const auto render_start = Clock::now();
      const core::FlowReport report =
          core::make_flow_report(bench.name, result, stg.signals);
      const std::string canonical_json = core::to_canonical_json(report);
      phases.render_seconds += seconds_since(render_start);
      if (canonical_json.empty()) std::abort();  // keep the render live
    };

    // Cold: every edit pays netlist parse + decompose + full expansion
    // (with a fresh private SG cache) + render.
    const auto cold_start = Clock::now();
    for (int round = 1; round <= kRounds; ++round)
      for (const std::string& gate : gates) {
        const circuit::Circuit edited = circuit::Circuit::from_equations(
            &stg.signals, mutate(eqn, gate, round));
        const auto decompose_start = Clock::now();
        const core::FlowDecomposition decomposition =
            core::decompose_flow(stg, edited);
        row.cold.decompose_seconds += seconds_since(decompose_start);
        run_edit(decomposition, edited, nullptr, row.cold);
      }
    row.cold_seconds = seconds_since(cold_start);

    // Delta: decompose ONCE (the STG never changes in the edit stream, so
    // the service shares one decomposition), prime it and a shared SG
    // cache with the unedited design, then replay the same edit stream.
    // Each edit derives against the shared decomposition: its unchanged
    // gates' jobs read their memoized outcomes without expanding, and the
    // edited gate's jobs run on the local STGs of their memo slots and
    // find in the shared cache the state graphs earlier runs built, as a
    // resident service's do.
    sg::SgCache sg_cache;
    const core::FlowDecomposition cached =
        core::decompose_flow(stg, circuit);
    {
      core::FlowOptions options;
      options.sg_cache = &sg_cache;
      core::derive_timing_constraints(cached, stg, circuit, options);
    }
    const long long primed_hits = sg_cache.hits();
    const long long primed_misses = sg_cache.misses();
    const auto delta_start = Clock::now();
    for (int round = 1; round <= kRounds; ++round)
      for (const std::string& gate : gates) {
        const circuit::Circuit edited = circuit::Circuit::from_equations(
            &stg.signals, mutate(eqn, gate, round));
        run_edit(cached, edited, &sg_cache, row.delta);
      }
    row.delta_seconds = seconds_since(delta_start);
    const long long hits = sg_cache.hits() - primed_hits;
    const long long misses = sg_cache.misses() - primed_misses;
    row.hit_rate = hits + misses > 0
                       ? static_cast<double>(hits) /
                             static_cast<double>(hits + misses)
                       : 0.0;
    rows.push_back(row);
  }

  // Aggregate: every benchmarked design, plus the multi-gate slice (5+
  // gates) where per-edit reuse has room to pay off.
  double cold_all = 0.0, delta_all = 0.0;
  double cold_multi = 0.0, delta_multi = 0.0;
  for (const DesignRow& row : rows) {
    cold_all += row.cold_seconds;
    delta_all += row.delta_seconds;
    if (row.gates >= 5) {
      cold_multi += row.cold_seconds;
      delta_multi += row.delta_seconds;
    }
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"incremental_flow\",\n");
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"edit_model\": \"duplicate one cube of one gate per "
              "iteration\",\n");
  std::printf("  \"rounds_per_gate\": %d,\n", kRounds);
  std::printf("  \"designs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const DesignRow& row = rows[i];
    std::printf("    {\"design\": \"%s\", \"gates\": %d, \"edits\": %d, "
                "\"cold_seconds\": %.6f, \"delta_seconds\": %.6f, "
                "\"speedup\": %.2f, \"sg_cache_hit_rate\": %.4f,\n",
                row.design.c_str(), row.gates, row.edits, row.cold_seconds,
                row.delta_seconds,
                row.delta_seconds > 0 ? row.cold_seconds / row.delta_seconds
                                      : 0.0,
                row.hit_rate);
    std::printf("     ");
    print_phases("cold", row.cold, row.edits);
    std::printf(",\n     ");
    print_phases("delta", row.delta, row.edits);
    std::printf("}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"all_designs_speedup\": %.2f,\n",
              delta_all > 0 ? cold_all / delta_all : 0.0);
  std::printf("  \"multi_gate_speedup\": %.2f,\n",
              delta_multi > 0 ? cold_multi / delta_multi : 0.0);
  host.print_json();
  std::printf("\n}\n");
  return 0;
}
