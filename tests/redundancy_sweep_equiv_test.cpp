// Equivalence suite for the local redundant-arc sweeps of MgStg.
//
// project() and relax() used to end every splice with a whole-graph sweep
// that restarted from arc 0 after each removal. They now sweep once, in
// index order, and on a reduced graph test only the arcs the operation
// touched. That sweep is re-implemented here as the reference, and the arc
// tables (order, tokens and kinds included) must agree exactly: on every
// (MG component x gate) projection of the embedded benchmark suite, on
// scalable Muller pipelines, and on random marked graphs, followed by
// Expand-like relax / roll-back sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "benchdata/benchmarks.hpp"
#include "core/local_stg.hpp"
#include "pn/hack.hpp"
#include "sg/state_graph.hpp"

namespace sitime {
namespace {

// ---- the reference: whole-graph sweeps, restarting after each removal -----

void legacy_eliminate(stg::MgStg& mg) {
  bool removed = true;
  while (removed) {
    removed = false;
    for (int i = 0; i < static_cast<int>(mg.arcs().size()); ++i) {
      const stg::MgArc arc = mg.arcs()[i];
      if (arc.kind != stg::ArcKind::normal || !mg.arc_redundant(i)) continue;
      mg.remove_arc(arc.from, arc.to);
      removed = true;
      break;
    }
  }
}

/// Algorithm 1 with a full sweep after every hidden transition. Spliced
/// transitions stay alive here (the public API cannot kill them) but keep
/// no arcs, so the arc tables are what compares.
void legacy_project(stg::MgStg& mg, const std::vector<bool>& keep) {
  for (int t = 0; t < mg.transition_count(); ++t) {
    if (!mg.alive(t) || keep[mg.label(t).signal]) continue;
    const std::vector<int> before = mg.preds(t);
    const std::vector<int> after = mg.succs(t);
    for (int p : before)
      for (int s : after)
        mg.insert_arc(p, s, mg.arc_tokens(p, t) + mg.arc_tokens(t, s));
    for (int p : before) mg.remove_arc(p, t);
    for (int s : after) mg.remove_arc(t, s);
    legacy_eliminate(mg);
  }
}

/// Algorithm 2 with a full sweep.
void legacy_relax(stg::MgStg& mg, int from, int to) {
  const int shared_tokens = mg.arc_tokens(from, to);
  const std::vector<int> before = mg.preds(from);
  const std::vector<int> after = mg.succs(to);
  mg.remove_arc(from, to);
  for (int b : before)
    mg.insert_arc(b, to, mg.arc_tokens(b, from) + shared_tokens);
  for (int d : after)
    mg.insert_arc(from, d, mg.arc_tokens(to, d) + shared_tokens);
  legacy_eliminate(mg);
}

std::string arcs_text(const stg::MgStg& mg) {
  std::string text;
  for (const stg::MgArc& arc : mg.arcs())
    text += mg.transition_text(arc.from) + "=>" +
            mg.transition_text(arc.to) + "/" + std::to_string(arc.tokens) +
            "/" + std::to_string(static_cast<int>(arc.kind)) + " ";
  return text;
}

/// Projects with both sweeps and compares; returns the projection.
stg::MgStg expect_projection_matches(const stg::MgStg& mg,
                                     const std::vector<bool>& keep,
                                     const std::string& where) {
  stg::MgStg legacy = mg;
  stg::MgStg local = mg;
  bool legacy_threw = false;
  try {
    legacy_project(legacy, keep);
  } catch (const Error&) {
    legacy_threw = true;
  }
  if (legacy_threw) {
    EXPECT_THROW(local.project(keep), Error) << where;
    return mg;
  }
  local.project(keep);
  EXPECT_EQ(local.arcs(), legacy.arcs())
      << where << "\n  local:  " << arcs_text(local)
      << "\n  legacy: " << arcs_text(legacy);
  for (int t = 0; t < mg.transition_count(); ++t)
    EXPECT_EQ(local.alive(t), mg.alive(t) && keep[mg.label(t).signal])
        << where;
  return local;
}

/// An Expand-like trial sequence on `mg` and a legacy twin: relax a normal
/// arc in place, then either keep the result or roll back through the arc
/// snapshot and mark the arc guaranteed (the rejected-trial path).
void expect_relaxations_match(stg::MgStg mg, std::mt19937& rng, int steps,
                              const std::string& where) {
  stg::MgStg legacy = mg;
  for (int step = 0; step < steps; ++step) {
    std::vector<int> normal;
    for (int i = 0; i < static_cast<int>(mg.arcs().size()); ++i)
      if (mg.arcs()[i].kind == stg::ArcKind::normal) normal.push_back(i);
    if (normal.empty()) return;
    const stg::MgArc arc =
        mg.arcs()[normal[std::uniform_int_distribution<std::size_t>(
            0, normal.size() - 1)(rng)]];
    const std::string at = where + " step " + std::to_string(step) +
                           " relax " + mg.transition_text(arc.from) + "=>" +
                           mg.transition_text(arc.to);
    const stg::MgStg legacy_before = legacy;
    const stg::MgStg::ArcSnapshot snapshot = mg.arc_snapshot();
    bool legacy_threw = false;
    try {
      legacy_relax(legacy, arc.from, arc.to);
    } catch (const Error&) {
      legacy_threw = true;
    }
    if (legacy_threw) {
      EXPECT_THROW(mg.relax(arc.from, arc.to), Error) << at;
      return;
    }
    mg.relax(arc.from, arc.to);
    ASSERT_EQ(mg.arcs(), legacy.arcs())
        << at << "\n  local:  " << arcs_text(mg)
        << "\n  legacy: " << arcs_text(legacy);
    if (rng() % 2 == 0) {
      mg.restore_arcs(snapshot);
      legacy = legacy_before;
      mg.set_arc_kind(arc.from, arc.to, stg::ArcKind::guaranteed);
      legacy.set_arc_kind(arc.from, arc.to, stg::ArcKind::guaranteed);
      ASSERT_EQ(mg.arcs(), legacy.arcs()) << at << " (rolled back)";
    }
  }
}

// ---- every projection of the embedded suite -------------------------------

class SweepEquivSuite : public ::testing::TestWithParam<std::string> {};

TEST_P(SweepEquivSuite, LocalStgsMatchFullSweeps) {
  const auto& bench = benchdata::benchmark(GetParam());
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  const sg::GlobalSg global = sg::build_global_sg(stg);
  const std::vector<int> values = sg::initial_values(stg, global);
  std::mt19937 rng(7);
  int component_index = 0;
  for (const pn::MgComponent& component : pn::mg_components(stg.net)) {
    const stg::MgStg component_stg =
        core::mg_from_component(stg, component, values);
    for (const circuit::Gate& gate : circuit.gates()) {
      std::vector<bool> keep(stg.signals.count(), false);
      keep[gate.output] = true;
      for (int fanin : gate.fanins) keep[fanin] = true;
      const std::string where = bench.name + " component " +
                                std::to_string(component_index) + " gate " +
                                stg.signals.name(gate.output);
      const stg::MgStg local =
          expect_projection_matches(component_stg, keep, where);
      // local_stg() is the projection the flow uses.
      EXPECT_EQ(core::local_stg(component_stg, gate).arcs(), local.arcs())
          << where;
      expect_relaxations_match(local, rng, 12, where);
    }
    ++component_index;
  }
}

std::vector<std::string> benchmark_names() {
  std::vector<std::string> names;
  for (const auto& bench : benchdata::all_benchmarks())
    names.push_back(bench.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, SweepEquivSuite,
                         ::testing::ValuesIn(benchmark_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// ---- scalable Muller pipelines ----------------------------------------------

/// An n-stage Muller C-element pipeline as a marked graph, environment
/// stages c0 and c(n+1) included, every signal low: c(i)+ waits for c(i-1)+
/// and c(i+1)-, c(i)- for c(i-1)- and c(i+1)+.
stg::MgStg muller_pipeline(stg::SignalTable& table, int stages) {
  table = stg::SignalTable();
  for (int i = 0; i <= stages + 1; ++i)
    table.add("c" + std::to_string(i), stg::SignalKind::output);
  stg::MgStg mg(&table);
  std::vector<int> rise;
  std::vector<int> fall;
  for (int i = 0; i <= stages + 1; ++i) {
    rise.push_back(mg.add_transition(stg::TransitionLabel{i, true, 1}));
    fall.push_back(mg.add_transition(stg::TransitionLabel{i, false, 1}));
  }
  for (int i = 0; i <= stages; ++i) {
    mg.insert_arc(rise[i], rise[i + 1], 0);
    mg.insert_arc(rise[i + 1], fall[i], 0);
    mg.insert_arc(fall[i], fall[i + 1], 0);
    mg.insert_arc(fall[i + 1], rise[i], 1);
  }
  mg.initial_values.assign(table.count(), 0);
  return mg;
}

TEST(SweepEquiv, MullerPipelineGatesMatchFullSweeps) {
  stg::SignalTable table;
  const stg::MgStg mg = muller_pipeline(table, 12);
  ASSERT_TRUE(mg.live());
  std::mt19937 rng(11);
  for (int stage = 1; stage <= 12; ++stage) {
    std::vector<bool> keep(table.count(), false);
    keep[stage - 1] = keep[stage] = keep[stage + 1] = true;
    const stg::MgStg local = expect_projection_matches(
        mg, keep, "muller stage " + std::to_string(stage));
    EXPECT_TRUE(local.live());
    expect_relaxations_match(local, rng, 8,
                             "muller stage " + std::to_string(stage));
  }
}

// ---- random marked graphs ---------------------------------------------------

/// A random live marked graph: a ring over a shuffled sequence of rising and
/// falling transitions (a token on the wrap-around arc) plus random chords,
/// token-free or marked going forward and marked going backward, so every
/// cycle carries a token. Some arcs are guaranteed or restriction arcs,
/// which the sweeps must never remove. The graph is left unreduced.
stg::MgStg random_mg(stg::SignalTable& table, std::mt19937& rng) {
  const int signals = std::uniform_int_distribution<int>(3, 9)(rng);
  table = stg::SignalTable();
  for (int s = 0; s < signals; ++s)
    table.add("s" + std::to_string(s), stg::SignalKind::input);
  stg::MgStg mg(&table);
  std::vector<int> order;
  for (int s = 0; s < signals; ++s) {
    order.push_back(mg.add_transition(stg::TransitionLabel{s, true, 1}));
    order.push_back(mg.add_transition(stg::TransitionLabel{s, false, 1}));
  }
  std::shuffle(order.begin(), order.end(), rng);
  const int n = static_cast<int>(order.size());
  auto kind = [&rng]() {
    const int roll = static_cast<int>(rng() % 20);
    return roll == 0   ? stg::ArcKind::restriction
           : roll <= 2 ? stg::ArcKind::guaranteed
                       : stg::ArcKind::normal;
  };
  for (int i = 0; i < n; ++i)
    mg.insert_arc(order[i], order[(i + 1) % n], i == n - 1 ? 1 : 0, kind());
  std::uniform_int_distribution<int> pick(0, n - 1);
  const int chords = std::uniform_int_distribution<int>(n / 2, 2 * n)(rng);
  for (int chord = 0; chord < chords; ++chord) {
    const int from = pick(rng);
    const int to = pick(rng);
    if (from == to) continue;
    const int tokens = from < to ? static_cast<int>(rng() % 3) / 2
                                 : 1 + static_cast<int>(rng() % 2);
    mg.insert_arc(order[from], order[to], tokens, kind());
  }
  mg.initial_values.assign(signals, 0);
  return mg;
}

TEST(SweepEquiv, RandomGraphsMatchFullSweeps) {
  for (std::uint32_t seed = 1; seed <= 400; ++seed) {
    std::mt19937 rng(seed);
    stg::SignalTable table;
    stg::MgStg mg = random_mg(table, rng);
    ASSERT_TRUE(mg.live()) << "seed " << seed;
    // Half the graphs enter projection reduced, so even the first hidden
    // transition is swept locally.
    if (seed % 2 == 0) {
      stg::MgStg legacy = mg;
      legacy_eliminate(legacy);
      mg.eliminate_redundant_arcs();
      ASSERT_EQ(mg.arcs(), legacy.arcs()) << "seed " << seed;
    }
    // check_reduced() answers whether a sweep would remove anything; the
    // odd seeds that happen to be reduced also sweep locally from the start.
    stg::MgStg swept = mg;
    legacy_eliminate(swept);
    EXPECT_EQ(mg.check_reduced(), swept.arcs() == mg.arcs()) << "seed " << seed;
    std::vector<bool> keep(table.count(), false);
    for (int s = 0; s < table.count(); ++s) keep[s] = rng() % 3 != 0;
    const std::string where = "seed " + std::to_string(seed);
    const stg::MgStg local = expect_projection_matches(mg, keep, where);
    expect_relaxations_match(local, rng, 10, where);
    if (HasFatalFailure()) return;
  }
}

TEST(SweepEquiv, RelaxOnUnreducedGraphSweepsEverything) {
  // A redundant shortcut far from the relaxed arc must still go when the
  // graph is not known to be reduced: never swept, or swept while the
  // shortcut was a guaranteed arc that has since been made normal again.
  stg::SignalTable table;
  const int a = table.add("a", stg::SignalKind::input);
  const int b = table.add("b", stg::SignalKind::input);
  const int c = table.add("c", stg::SignalKind::input);
  for (const bool swept_as_guaranteed : {false, true}) {
    stg::MgStg mg(&table);
    const int ap = mg.add_transition(stg::TransitionLabel{a, true, 1});
    const int bp = mg.add_transition(stg::TransitionLabel{b, true, 1});
    const int cp = mg.add_transition(stg::TransitionLabel{c, true, 1});
    const int am = mg.add_transition(stg::TransitionLabel{a, false, 1});
    const int bm = mg.add_transition(stg::TransitionLabel{b, false, 1});
    const int cm = mg.add_transition(stg::TransitionLabel{c, false, 1});
    mg.insert_arc(ap, bp, 0);
    mg.insert_arc(bp, cp, 0);
    mg.insert_arc(cp, am, 0);
    mg.insert_arc(am, bm, 0);
    mg.insert_arc(bm, cm, 0);
    mg.insert_arc(cm, ap, 1);
    mg.insert_arc(am, cm, 0);  // shortcut of a- -> b- -> c-
    if (swept_as_guaranteed) {
      mg.set_arc_kind(am, cm, stg::ArcKind::guaranteed);
      mg.eliminate_redundant_arcs();
      ASSERT_TRUE(mg.has_arc(am, cm));
      mg.set_arc_kind(am, cm, stg::ArcKind::normal);
    }
    stg::MgStg legacy = mg;
    mg.relax(ap, bp);
    legacy_relax(legacy, ap, bp);
    EXPECT_EQ(mg.arcs(), legacy.arcs()) << swept_as_guaranteed;
    EXPECT_FALSE(mg.has_arc(am, cm)) << swept_as_guaranteed;
  }
}

TEST(SweepEquiv, RelaxSweepsArcsIntoSourceAndOutOfTarget) {
  // On a live graph a relaxation cannot make an arc into x* or out of y*
  // redundant (the shortcut would close a marked cycle through x* => y*).
  // Without liveness it can, and the local sweep must still catch it:
  // relaxing x+ => y+ turns b+ -> y+ -> z+ -> x+ into a token-free shortcut
  // of b+ => x+ in the first graph, and y+ -> w+ -> x+ -> d+ into one of
  // y+ => d+ in the second.
  stg::SignalTable table;
  for (const char* name : {"b", "x", "y", "z", "w", "d"})
    table.add(name, stg::SignalKind::input);
  const int b = 0, x = 1, y = 2, z = 3, w = 4, d = 5;
  struct Case {
    std::vector<std::pair<int, int>> arcs;
    std::pair<int, int> shortcut;
  };
  for (const Case& c : {Case{{{b, x}, {x, y}, {y, z}, {z, x}}, {b, x}},
                        Case{{{x, y}, {y, w}, {w, x}, {y, d}}, {y, d}}}) {
    stg::MgStg mg(&table);
    for (int s = 0; s < table.count(); ++s)
      mg.add_transition(stg::TransitionLabel{s, true, 1});
    for (const auto& [from, to] : c.arcs) mg.insert_arc(from, to, 0);
    mg.eliminate_redundant_arcs();
    ASSERT_EQ(mg.arcs().size(), c.arcs.size());  // reduced before relaxing
    stg::MgStg legacy = mg;
    mg.relax(x, y);
    legacy_relax(legacy, x, y);
    EXPECT_EQ(mg.arcs(), legacy.arcs())
        << "\n  local:  " << arcs_text(mg)
        << "\n  legacy: " << arcs_text(legacy);
    EXPECT_FALSE(mg.has_arc(c.shortcut.first, c.shortcut.second));
  }
}

}  // namespace
}  // namespace sitime
