// Parallel-flow scaling: end-to-end derive_timing_constraints with the
// (component × gate) job graph on 1 vs N workers, and montecarlo sampling
// on 1 vs N workers, over the bundled suite. Emits one JSON document
// (committed as BENCH_parallel_flow.json at the repo root).
//
// The constraint sets of every parallel run are compared against the
// serial run — the orchestrator contract is byte-identical output for any
// worker count, so a mismatch here is a bug, not noise.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "base/thread_pool.hpp"
#include "benchdata/benchmarks.hpp"
#include "core/flow.hpp"
#include "host_load.hpp"
#include "sim/montecarlo.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double best_of(int repetitions, const std::function<double()>& run) {
  double best = 1e300;
  for (int r = 0; r < repetitions; ++r) best = std::min(best, run());
  return best;
}

double time_flow(const sitime::stg::Stg& stg,
                 const sitime::circuit::Circuit& circuit,
                 const sitime::core::FlowOptions& options) {
  const auto start = Clock::now();
  const sitime::core::FlowResult result =
      sitime::core::derive_timing_constraints(stg, circuit, options);
  (void)result;
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main() {
  using namespace sitime;
  const sitime::bench::HostLoad host;
  const int threads = 4;
  base::ThreadPool pool(threads);
  const int repetitions = 5;

  std::printf("{\n");
  std::printf("  \"bench\": \"parallel_flow\",\n");
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"pool_workers\": %d,\n", threads);
  std::printf("  \"note\": \"speedups are bounded by the machine's visible "
              "cores; on a single-core container the parallel schedule can "
              "only tie the serial one\",\n");
  std::printf("  \"flow\": [\n");
  bool first = true;
  for (const auto& bench : benchdata::all_benchmarks()) {
    const stg::Stg stg = benchdata::load_stg(bench);
    const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);

    const core::FlowResult serial =
        core::derive_timing_constraints(stg, circuit);

    core::FlowOptions parallel_options;
    parallel_options.jobs = threads;
    parallel_options.pool = &pool;
    const core::FlowResult parallel =
        core::derive_timing_constraints(stg, circuit, parallel_options);
    const bool identical = serial.before == parallel.before &&
                           serial.after == parallel.after;

    core::FlowOptions serial_options;
    const double serial_seconds = best_of(repetitions, [&]() {
      return time_flow(stg, circuit, serial_options);
    });
    const double parallel_seconds = best_of(repetitions, [&]() {
      return time_flow(stg, circuit, parallel_options);
    });

    std::printf("%s    {\"design\": \"%s\", \"flow_jobs\": %zu, "
                "\"gates\": %d, \"mg_components\": %d, "
                "\"jobs1_seconds\": %.6f, \"jobs%d_seconds\": %.6f, "
                "\"speedup\": %.2f, \"constraints_identical\": %s}",
                first ? "" : ",\n", bench.name.c_str(),
                static_cast<std::size_t>(serial.mg_component_count) *
                    static_cast<std::size_t>(serial.gate_count),
                serial.gate_count, serial.mg_component_count, serial_seconds,
                threads, parallel_seconds,
                parallel_seconds > 0 ? serial_seconds / parallel_seconds : 0.0,
                identical ? "true" : "false");
    first = false;
  }
  std::printf("\n  ],\n");

  // Expansion subtasks: intra-gate parallelism below the (component ×
  // gate) job level. On a single-MG-component design the job count used to
  // cap the fan-out; with the OR-causality subSTG recursion split into
  // subtasks, jobs > (component × gate) now yields more than one active
  // expansion body. expand_subtasks > 0 on a single-component benchmark is
  // the evidence the fan-out engaged.
  std::printf("  \"expansion_subtasks\": [\n");
  first = true;
  for (const auto& bench : benchdata::all_benchmarks()) {
    const stg::Stg stg = benchdata::load_stg(bench);
    const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
    const core::FlowResult serial =
        core::derive_timing_constraints(stg, circuit);
    if (serial.mg_component_count != 1) continue;  // the coarse-job shape

    core::FlowOptions subtask_options;
    // More workers than (component × gate) jobs: any concurrency beyond
    // the job count can only come from expansion subtasks.
    subtask_options.jobs =
        serial.mg_component_count * serial.gate_count + threads;
    subtask_options.pool = &pool;
    const core::FlowResult fanned =
        core::derive_timing_constraints(stg, circuit, subtask_options);
    const bool identical = serial.before == fanned.before &&
                           serial.after == fanned.after;
    const double fanned_seconds = best_of(repetitions, [&]() {
      return time_flow(stg, circuit, subtask_options);
    });

    std::printf("%s    {\"design\": \"%s\", \"jobs\": %d, "
                "\"component_gate_jobs\": %d, \"expand_subtasks\": %d, "
                "\"seconds\": %.6f, \"constraints_identical\": %s}",
                first ? "" : ",\n", bench.name.c_str(),
                subtask_options.jobs,
                serial.mg_component_count * serial.gate_count,
                fanned.expand_subtasks, fanned_seconds,
                identical ? "true" : "false");
    first = false;
  }
  std::printf("\n  ],\n");

  // Montecarlo scaling on the ground-truth design.
  {
    const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
    const stg::Stg stg = benchdata::load_stg(bench);
    const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
    sim::McOptions options;
    options.runs = 200;
    options.seed = 7;
    options.environment_delay = 2.0;  // let orderings race: full simulation
    options.pool = &pool;

    options.threads = 1;
    const auto serial_start = Clock::now();
    const sim::McResult serial = sim::run_montecarlo(stg, circuit, nullptr,
                                                     options);
    const double serial_seconds =
        std::chrono::duration<double>(Clock::now() - serial_start).count();

    options.threads = threads;
    const auto parallel_start = Clock::now();
    const sim::McResult parallel = sim::run_montecarlo(stg, circuit, nullptr,
                                                       options);
    const double parallel_seconds =
        std::chrono::duration<double>(Clock::now() - parallel_start).count();

    std::printf("  \"montecarlo\": {\"design\": \"imec-ram-read-sbuf\", "
                "\"runs\": %d, \"threads1_seconds\": %.6f, "
                "\"threads%d_seconds\": %.6f, \"speedup\": %.2f, "
                "\"aggregates_identical\": %s},\n",
                options.runs, serial_seconds, threads, parallel_seconds,
                parallel_seconds > 0 ? serial_seconds / parallel_seconds : 0.0,
                serial.hazardous_runs == parallel.hazardous_runs &&
                        serial.total_hazards == parallel.total_hazards
                    ? "true"
                    : "false");
  }
  host.print_json();
  std::printf("\n}\n");
  return 0;
}
