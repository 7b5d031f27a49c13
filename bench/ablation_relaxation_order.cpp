// Ablation: the relaxation-order policy of Section 5.5. The thesis argues
// that relaxing the tightest arc first yields the weakest constraint set
// (different orders can legalize different subsets, Figure 5.23). This
// bench compares tightest-first (the thesis policy), loosest-first, and
// plain input order across the suite.
#include <cstdio>
#include <exception>

#include "benchdata/benchmarks.hpp"
#include "core/flow.hpp"

int main() {
  using namespace sitime;
  using Policy = core::ExpandOptions::OrderPolicy;
  struct Row {
    const char* name;
    Policy policy;
  };
  const Row policies[] = {
      {"tightest-first", Policy::tightest_first},
      {"loosest-first", Policy::loosest_first},
      {"input-order", Policy::input_order},
  };
  std::printf("Ablation: relaxation order policy (total constraints, and "
              "constraints at adversary level <= 2 gates)\n\n");
  std::printf("%-20s", "benchmark");
  for (const Row& row : policies) std::printf(" %18s", row.name);
  std::printf("\n");
  long totals[3] = {0, 0, 0};
  long strong[3] = {0, 0, 0};
  for (const auto& bench : benchdata::all_benchmarks()) {
    std::printf("%-20s", bench.name.c_str());
    try {
      const stg::Stg stg = benchdata::load_stg(bench);
      const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
      for (int p = 0; p < 3; ++p) {
        core::FlowOptions options;
        options.expand.order = policies[p].policy;
        const core::FlowResult r =
            core::derive_timing_constraints(stg, circuit, options);
        std::printf(" %10zu (%2d<=5)", r.after.size(),
                    core::count_up_to_level(r.after, 1));
        totals[p] += static_cast<long>(r.after.size());
        strong[p] += core::count_up_to_level(r.after, 1);
      }
      std::printf("\n");
    } catch (const std::exception& error) {
      std::printf(" ERROR: %s\n", error.what());
    }
  }
  std::printf("\n%-20s", "TOTAL");
  for (int p = 0; p < 3; ++p)
    std::printf(" %10ld (%2ld<=5)", totals[p], strong[p]);
  std::printf("\n");
  return 0;
}
