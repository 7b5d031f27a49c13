// Equivalence suite for the packed-marking state-space engine.
//
// The legacy engine — std::map<std::vector<int>, int> state indexes,
// nested-vector adjacency, per-signal union-find code inference, and a
// copy-and-rebuild Expand loop — is re-implemented here as the reference,
// and every entry of the embedded benchmark suite is pushed through both
// paths. The packed engine must agree exactly: state counts, state ids,
// markings, codes, adjacency, and the emitted constraint sets. Synthetic
// fork-join diamonds add local SGs with wider BFS levels than the suite
// has. This suite is the reference for any change to the numbering of
// sg::build_state_graph.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "base/error.hpp"
#include "benchdata/benchmarks.hpp"
#include "circuit/adversary.hpp"
#include "core/expand.hpp"
#include "core/flow.hpp"
#include "core/local_stg.hpp"
#include "pn/analysis.hpp"
#include "pn/hack.hpp"
#include "sg/state_graph.hpp"

namespace sitime {
namespace {

// ---- legacy reference implementations -------------------------------------

struct LegacyReachability {
  std::vector<pn::Marking> markings;
  std::map<pn::Marking, int> index;
  std::vector<std::vector<std::pair<int, int>>> edges;
};

LegacyReachability legacy_reachability(const pn::PetriNet& net) {
  LegacyReachability graph;
  graph.markings.push_back(net.initial_marking());
  graph.index[net.initial_marking()] = 0;
  graph.edges.emplace_back();
  for (int state = 0; state < static_cast<int>(graph.markings.size());
       ++state) {
    const pn::Marking current = graph.markings[state];
    for (int t : net.enabled_transitions(current)) {
      pn::Marking next = net.fire(t, current);
      auto [it, inserted] = graph.index.emplace(
          std::move(next), static_cast<int>(graph.markings.size()));
      if (inserted) {
        graph.markings.push_back(it->first);
        graph.edges.emplace_back();
      }
      graph.edges[state].emplace_back(t, it->second);
    }
  }
  return graph;
}

/// Per-signal union-find code inference, as the legacy build_global_sg.
std::vector<std::uint64_t> legacy_codes(const stg::Stg& stg,
                                        const LegacyReachability& reach) {
  const int states = static_cast<int>(reach.markings.size());
  const int signal_count = stg.signals.count();
  std::vector<std::uint64_t> codes(states, 0);
  for (int a = 0; a < signal_count; ++a) {
    std::vector<int> parent(states);
    for (int s = 0; s < states; ++s) parent[s] = s;
    auto find = [&parent](int v) {
      while (parent[v] != v) {
        parent[v] = parent[parent[v]];
        v = parent[v];
      }
      return v;
    };
    for (int s = 0; s < states; ++s)
      for (const auto& [t, succ] : reach.edges[s])
        if (stg.labels[t].signal != a) parent[find(s)] = find(succ);
    std::vector<int> component_value(states, -1);
    for (int s = 0; s < states; ++s) {
      for (const auto& [t, succ] : reach.edges[s]) {
        if (stg.labels[t].signal != a) continue;
        const int before = stg.labels[t].rising ? 0 : 1;
        component_value[find(s)] = before;
        component_value[find(succ)] = 1 - before;
      }
    }
    for (int s = 0; s < states; ++s)
      if (component_value[find(s)] == 1)
        codes[s] |= std::uint64_t{1} << a;
  }
  return codes;
}

struct LegacyStateGraph {
  std::vector<std::vector<int>> markings;
  std::vector<std::uint64_t> codes;
  std::vector<std::vector<std::pair<int, int>>> out;
  std::map<std::vector<int>, int> index;
};

LegacyStateGraph legacy_build_state_graph(const stg::MgStg& mg) {
  const auto& arcs = mg.arcs();
  const int arc_count = static_cast<int>(arcs.size());
  std::vector<std::vector<int>> in_arcs(mg.transition_count());
  std::vector<std::vector<int>> out_arcs(mg.transition_count());
  for (int i = 0; i < arc_count; ++i) {
    in_arcs[arcs[i].to].push_back(i);
    out_arcs[arcs[i].from].push_back(i);
  }
  std::uint64_t initial_code = 0;
  for (int t : mg.alive_transitions())
    if (mg.initial_values[mg.label(t).signal] == 1)
      initial_code |= std::uint64_t{1} << mg.label(t).signal;

  LegacyStateGraph graph;
  std::vector<int> m0(arc_count);
  for (int i = 0; i < arc_count; ++i) m0[i] = arcs[i].tokens;
  graph.markings.push_back(m0);
  graph.codes.push_back(initial_code);
  graph.out.emplace_back();
  graph.index[m0] = 0;
  for (int state = 0; state < static_cast<int>(graph.markings.size());
       ++state) {
    const std::vector<int> current = graph.markings[state];
    for (int t : mg.alive_transitions()) {
      bool enabled = true;
      for (int a : in_arcs[t])
        if (current[a] <= 0) enabled = false;
      if (!enabled) continue;
      std::vector<int> next = current;
      for (int a : in_arcs[t]) --next[a];
      for (int a : out_arcs[t]) ++next[a];
      const std::uint64_t next_code =
          graph.codes[state] ^ (std::uint64_t{1} << mg.label(t).signal);
      auto [it, inserted] =
          graph.index.emplace(next, static_cast<int>(graph.markings.size()));
      if (inserted) {
        graph.markings.push_back(next);
        graph.codes.push_back(next_code);
        graph.out.emplace_back();
      }
      graph.out[state].emplace_back(t, it->second);
    }
  }
  return graph;
}

/// The legacy Expand loop: whole-STG copy per trial, no SG cache, and
/// prerequisite sets recomputed on every iteration. Constraint sets from
/// this loop are the reference for the refactored core::Expander.
class LegacyExpander {
 public:
  LegacyExpander(const circuit::AdversaryAnalysis* adversary,
                 core::ExpandOptions options)
      : adversary_(adversary), options_(options) {}

  void expand(stg::MgStg local, const circuit::Gate& gate,
              core::ConstraintSet& rt) {
    expand_inner(std::move(local), gate, rt, 0);
  }

 private:
  int weight_of(const stg::MgStg& mg, const stg::MgArc& arc) const {
    if (adversary_ == nullptr) return 0;
    return adversary_->weight(mg.label(arc.from), mg.label(arc.to));
  }

  int pick_arc(const stg::MgStg& mg, const std::vector<int>& arcs) const {
    if (options_.order == core::ExpandOptions::OrderPolicy::input_order)
      return arcs.front();
    int best = arcs.front();
    auto key = [this, &mg](int index) {
      const stg::MgArc& arc = mg.arcs()[index];
      return std::tuple(weight_of(mg, arc), mg.label(arc.from),
                        mg.label(arc.to));
    };
    for (int index : arcs) {
      const bool better =
          options_.order == core::ExpandOptions::OrderPolicy::tightest_first
              ? key(index) < key(best)
              : key(index) > key(best);
      if (better) best = index;
    }
    return best;
  }

  static int find_er_violation(const sg::StateGraph& graph,
                               const stg::MgStg& mg,
                               const circuit::Gate& gate, bool* rising_out) {
    for (int s = 0; s < graph.state_count(); ++s) {
      for (const auto& [t, succ] : graph.out(s)) {
        (void)succ;
        const stg::TransitionLabel& label = mg.label(t);
        if (label.signal != gate.output) continue;
        const boolfn::Cover& fn = label.rising ? gate.up : gate.down;
        if (!fn.eval(graph.codes[s])) {
          if (rising_out != nullptr) *rising_out = label.rising;
          return t;
        }
      }
    }
    return -1;
  }

  void expand_inner(stg::MgStg local, const circuit::Gate& gate,
                    core::ConstraintSet& rt, int depth) {
    while (true) {
      const std::vector<int> candidates =
          core::relaxable_arcs(local, gate.output);
      if (candidates.empty()) return;

      const int arc_index = pick_arc(local, candidates);
      const stg::MgArc arc = local.arcs()[arc_index];
      const int x = arc.from;
      const int y = arc.to;
      const int weight = weight_of(local, arc);
      const core::PrerequisiteMap epre =
          core::prerequisites(local, gate.output);

      stg::MgStg trial = local;
      trial.relax(x, y);
      const sg::StateGraph graph = sg::build_state_graph(trial);
      core::CheckResult result =
          core::check_relaxation(graph, trial, gate, x, epre);
      if (result.violations.size() > 1 &&
          result.kind != core::RelaxationCase::hazard)
        result.kind = core::RelaxationCase::hazard;

      auto emit_constraint = [&rt, &local, &gate, x, y, weight]() {
        rt.emplace(core::TimingConstraint{gate.output, local.label(x),
                                          local.label(y)},
                   weight);
        local.set_arc_kind(x, y, stg::ArcKind::guaranteed);
      };

      switch (result.kind) {
        case core::RelaxationCase::conforms: {
          local = std::move(trial);
          break;
        }
        case core::RelaxationCase::spurious_prereq: {
          core::OrProblem problem;
          problem.relaxed_x = x;
          if (!result.violations.empty()) {
            problem.output_transition =
                result.violations[0].output_transition;
            problem.output_rising = result.violations[0].output_rising;
          } else {
            bool rising = false;
            problem.output_transition =
                find_er_violation(graph, trial, gate, &rising);
            problem.output_rising = rising;
          }
          const auto it = epre.find(problem.output_transition);
          if (it != epre.end()) problem.prerequisites = it->second;

          stg::MgStg concurrent = trial;
          if (concurrent.has_arc(x, problem.output_transition) &&
              concurrent.arc_kind(x, problem.output_transition) ==
                  stg::ArcKind::normal)
            concurrent.relax(x, problem.output_transition);
          const sg::StateGraph graph2 = sg::build_state_graph(concurrent);
          if (core::timing_conformant(graph2, concurrent, gate)) {
            local = std::move(concurrent);
            break;
          }
          try {
            const std::vector<core::CandidateClause> clauses =
                core::find_candidate_clauses(trial, graph, concurrent, gate,
                                             problem);
            const auto init = core::initial_restrictions(concurrent, clauses);
            const auto entries =
                core::or_causality_decomposition(clauses, init);
            for (stg::MgStg& sub : core::build_substgs(
                     concurrent, gate, problem, clauses, entries,
                     /*relax_non_clause_prereqs=*/false))
              expand_inner(std::move(sub), gate, rt, depth + 1);
            return;
          } catch (const Error&) {
            emit_constraint();
            break;
          }
        }
        case core::RelaxationCase::or_causality_input: {
          core::OrProblem problem;
          problem.relaxed_x = x;
          problem.output_transition = result.violations[0].output_transition;
          problem.output_rising = result.violations[0].output_rising;
          problem.prerequisites = epre.at(problem.output_transition);
          try {
            const std::vector<core::CandidateClause> clauses =
                core::find_candidate_clauses(trial, graph, trial, gate,
                                             problem);
            const auto init = core::initial_restrictions(trial, clauses);
            const auto entries =
                core::or_causality_decomposition(clauses, init);
            for (stg::MgStg& sub : core::build_substgs(
                     trial, gate, problem, clauses, entries,
                     /*relax_non_clause_prereqs=*/true))
              expand_inner(std::move(sub), gate, rt, depth + 1);
            return;
          } catch (const Error&) {
            emit_constraint();
            break;
          }
        }
        case core::RelaxationCase::hazard: {
          emit_constraint();
          break;
        }
      }
    }
  }

  const circuit::AdversaryAnalysis* adversary_;
  core::ExpandOptions options_;
};

/// derive_timing_constraints with the legacy loop.
core::ConstraintSet legacy_constraints(const stg::Stg& impl,
                                       const circuit::Circuit& circuit) {
  const sg::GlobalSg global = sg::build_global_sg(impl);
  const std::vector<int> values = sg::initial_values(impl, global);
  const circuit::AdversaryAnalysis adversary(&impl);
  LegacyExpander expander(&adversary, core::ExpandOptions{});
  core::ConstraintSet after;
  for (const pn::MgComponent& component : pn::mg_components(impl.net)) {
    const stg::MgStg component_stg =
        core::mg_from_component(impl, component, values);
    for (const circuit::Gate& gate : circuit.gates())
      expander.expand(core::local_stg(component_stg, gate), gate, after);
  }
  return after;
}

// ---- the suite ------------------------------------------------------------

/// The packed local SG of `local` must equal the legacy one element for
/// element: state ids, markings, codes, and adjacency rows.
void expect_local_sg_matches_legacy(const stg::MgStg& local) {
  const LegacyStateGraph legacy = legacy_build_state_graph(local);
  const sg::StateGraph packed = sg::build_state_graph(local);
  ASSERT_EQ(packed.state_count(), static_cast<int>(legacy.markings.size()));
  ASSERT_EQ(packed.out_offsets.size(), legacy.markings.size() + 1);
  for (int s = 0; s < packed.state_count(); ++s) {
    EXPECT_EQ(packed.marking(s), legacy.markings[s]);
    EXPECT_EQ(packed.codes[s], legacy.codes[s]);
    const auto row = packed.out(s);
    ASSERT_EQ(row.size(), legacy.out[s].size()) << "state " << s;
    for (std::size_t e = 0; e < row.size(); ++e) {
      EXPECT_EQ(row[e], legacy.out[s][e]);
      // The sorted successor index must agree with the row.
      EXPECT_EQ(packed.successor(s, row[e].first), row[e].second);
    }
  }
}

/// A fork-join diamond: a+ forks `width` concurrent rises p0+..pN-1+,
/// which join into a-, forking N concurrent falls joining back into a+
/// (token on every pi- => a+ arc). Its SG has 2^(N+1) states, and the BFS
/// level k steps into either half holds C(N, k) interleavings, so width 9
/// reaches 1 024 states with a widest level of C(9, 4) = 126 — wider than
/// any level of the bundled suite's local SGs.
stg::MgStg diamond_stg(stg::SignalTable& table, int width) {
  table = stg::SignalTable();
  const int a = table.add("a", stg::SignalKind::input);
  std::vector<int> ids;
  for (int p = 0; p < width; ++p)
    ids.push_back(table.add("p" + std::to_string(p), stg::SignalKind::input));
  stg::MgStg mg(&table);
  const int a_rise = mg.add_transition(stg::TransitionLabel{a, true, 1});
  const int a_fall = mg.add_transition(stg::TransitionLabel{a, false, 1});
  for (int p = 0; p < width; ++p) {
    const int rise = mg.add_transition(stg::TransitionLabel{ids[p], true, 1});
    const int fall =
        mg.add_transition(stg::TransitionLabel{ids[p], false, 1});
    mg.insert_arc(a_rise, rise, 0);
    mg.insert_arc(rise, a_fall, 0);
    mg.insert_arc(a_fall, fall, 0);
    mg.insert_arc(fall, a_rise, 1);
  }
  mg.initial_values.assign(1 + width, 0);
  return mg;
}

class StateEngineEquiv : public ::testing::TestWithParam<std::string> {};

TEST_P(StateEngineEquiv, ReachabilityMatchesLegacy) {
  const stg::Stg stg =
      benchdata::load_stg(benchdata::benchmark(GetParam()));
  const LegacyReachability legacy = legacy_reachability(stg.net);
  const pn::ReachabilityGraph packed = pn::reachability(stg.net);
  ASSERT_EQ(packed.state_count(), static_cast<int>(legacy.markings.size()));
  for (int s = 0; s < packed.state_count(); ++s) {
    EXPECT_EQ(packed.marking(s), legacy.markings[s]) << "state " << s;
    const auto row = packed.edges(s);
    ASSERT_EQ(row.size(), legacy.edges[s].size()) << "state " << s;
    for (std::size_t e = 0; e < row.size(); ++e)
      EXPECT_EQ(row[e], legacy.edges[s][e]) << "state " << s;
  }
  for (const auto& [marking, id] : legacy.index)
    EXPECT_EQ(packed.find(marking), id);
}

TEST_P(StateEngineEquiv, GlobalCodesMatchLegacy) {
  const stg::Stg stg =
      benchdata::load_stg(benchdata::benchmark(GetParam()));
  const LegacyReachability legacy = legacy_reachability(stg.net);
  const std::vector<std::uint64_t> reference = legacy_codes(stg, legacy);
  const sg::GlobalSg global = sg::build_global_sg(stg);
  ASSERT_EQ(global.state_count(), static_cast<int>(reference.size()));
  for (int s = 0; s < global.state_count(); ++s)
    EXPECT_EQ(global.codes[s], reference[s]) << "state " << s;
}

TEST_P(StateEngineEquiv, LocalStateGraphsMatchLegacy) {
  const auto& bench = benchdata::benchmark(GetParam());
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  const sg::GlobalSg global = sg::build_global_sg(stg);
  const std::vector<int> values = sg::initial_values(stg, global);
  for (const pn::MgComponent& component : pn::mg_components(stg.net)) {
    const stg::MgStg component_stg =
        core::mg_from_component(stg, component, values);
    for (const circuit::Gate& gate : circuit.gates())
      expect_local_sg_matches_legacy(core::local_stg(component_stg, gate));
  }
}

TEST_P(StateEngineEquiv, ConstraintSetsMatchLegacy) {
  const auto& bench = benchdata::benchmark(GetParam());
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  const core::ConstraintSet reference = legacy_constraints(stg, circuit);
  const core::FlowResult result =
      core::derive_timing_constraints(stg, circuit);
  EXPECT_EQ(result.after, reference) << bench.name;
}

std::vector<std::string> benchmark_names() {
  std::vector<std::string> names;
  for (const auto& bench : benchdata::all_benchmarks())
    names.push_back(bench.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, StateEngineEquiv,
                         ::testing::ValuesIn(benchmark_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

class DiamondEquiv : public ::testing::TestWithParam<int> {};

TEST_P(DiamondEquiv, LocalStateGraphMatchesLegacy) {
  stg::SignalTable table;
  const stg::MgStg mg = diamond_stg(table, GetParam());
  ASSERT_EQ(sg::build_state_graph(mg).state_count(), 2 << GetParam());
  expect_local_sg_matches_legacy(mg);
}

INSTANTIATE_TEST_SUITE_P(Widths, DiamondEquiv, ::testing::Range(1, 10),
                         [](const auto& info) {
                           return "width" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace sitime
