#include "sg/state_graph.hpp"

#include <algorithm>

#include "base/error.hpp"
#include "base/fault.hpp"

namespace sitime::sg {

int StateGraph::successor(int state, int transition) const {
  const auto row = out(state);
  const auto it = std::lower_bound(
      row.begin(), row.end(), transition,
      [](const std::pair<int, int>& edge, int t) { return edge.first < t; });
  if (it != row.end() && it->first == transition) return it->second;
  return -1;
}

bool StateGraph::excites(const stg::MgStg& mg, int state, int signal,
                         bool rising) const {
  for (const auto& [t, succ] : out(state)) {
    (void)succ;
    if (mg.label(t).signal == signal && mg.label(t).rising == rising)
      return true;
  }
  return false;
}

namespace {

[[noreturn]] void throw_token_bound() {
  fail(
      "build_state_graph: token bound exceeded (unsafe relaxation; "
      "does the gate have redundant literals?)");
}

}  // namespace

StateGraph build_state_graph(const stg::MgStg& mg,
                             const SgBuildOptions& options) {
  if (base::fault_fires(base::FaultPoint::sg_build))
    base::injected_failure(base::FaultPoint::sg_build);
  const int token_limit = options.token_limit;
  const auto& arcs = mg.arcs();
  const int arc_count = static_cast<int>(arcs.size());

  std::vector<bool> has_input(mg.transition_count(), false);
  for (int i = 0; i < arc_count; ++i) has_input[arcs[i].to] = true;
  const std::vector<int> alive = mg.alive_transitions();
  for (int t : alive)
    check(has_input[t], "build_state_graph: transition '" +
                            mg.transition_text(t) + "' has no input arc");

  std::uint64_t initial_code = 0;
  for (int t : alive) {
    const int signal = mg.label(t).signal;
    check(mg.initial_values[signal] >= 0,
          "build_state_graph: unknown initial value for signal '" +
              mg.signals().name(signal) + "'");
    if (mg.initial_values[signal] == 1)
      initial_code |= std::uint64_t{1} << signal;
  }

  StateGraph graph;
  // Arc markings: one packed field per arc index; +1 headroom so the token
  // count one firing adds stays encodable until the limit check (arcs are
  // unique (from, to) pairs, so one firing adds at most one token per arc).
  graph.states.reset(arc_count, token_limit + 1);
  std::vector<int> m0(arc_count);
  for (int i = 0; i < arc_count; ++i) {
    if (arcs[i].tokens > token_limit) throw_token_bound();
    m0[i] = arcs[i].tokens;
  }
  graph.states.insert(m0);
  graph.codes.push_back(initial_code);

  base::FireTable fire(graph.states, mg.transition_count());
  for (int i = 0; i < arc_count; ++i) {
    fire.add_input(arcs[i].to, i);
    fire.add_output(arcs[i].from, i);
  }
  fire.seal();

  // States are discovered in BFS order and expanded in id order, so the
  // per-state edge runs land consecutively: CSR adjacency falls out of the
  // exploration. Rows are sorted by transition id because `alive` ascends.
  const int words = graph.states.words_per_marking();
  std::vector<std::uint64_t> current(words);
  std::vector<std::uint64_t> next(words);
  for (int state = 0; state < graph.state_count(); ++state) {
    if ((state & 0xff) == 0) options.cancel.poll("state graph build");
    graph.out_offsets.push_back(static_cast<int>(graph.out_data.size()));
    // Copy out of the arena: insert_packed below may reallocate it.
    const std::uint64_t* packed = graph.states.packed(state);
    std::copy(packed, packed + words, current.begin());
    for (int t : alive) {
      if (!fire.enabled(t, current.data())) continue;
      // Consistency: a+ requires a = 0, a- requires a = 1.
      const stg::TransitionLabel& label = mg.label(t);
      const bool value = (graph.codes[state] >> label.signal) & 1;
      check(value != label.rising,
            "build_state_graph: inconsistent firing of '" +
                mg.transition_text(t) + "'");
      fire.fire(t, current.data(), next.data());
      if (fire.max_output_tokens(t, next.data()) > token_limit)
        throw_token_bound();
      const std::uint64_t next_code =
          graph.codes[state] ^ (std::uint64_t{1} << label.signal);
      const auto [succ, inserted] = graph.states.insert_packed(next.data());
      if (inserted) {
        graph.codes.push_back(next_code);
        check(graph.state_count() <= options.state_limit,
              "build_state_graph: state limit exceeded");
      } else {
        check(graph.codes[succ] == next_code,
              "build_state_graph: inconsistent codes for one marking");
      }
      graph.out_data.emplace_back(t, succ);
    }
  }
  graph.out_offsets.push_back(static_cast<int>(graph.out_data.size()));
  return graph;
}

GlobalSg build_global_sg(const stg::Stg& stg, int state_limit,
                         const base::CancelToken& cancel) {
  GlobalSg sg;
  sg.reach = pn::reachability(stg.net, state_limit, /*token_limit=*/8, cancel);
  const int states = sg.reach.state_count();
  const int signal_count = stg.signals.count();
  check(signal_count <= 64, "build_global_sg: too many signals");
  sg.codes.assign(states, 0);
  if (states == 0 || signal_count == 0) return sg;

  // Single-pass code inference. rel[s] is the code of state s *relative* to
  // state 0: the XOR of the fired signals' bits along any path 0 -> s. BFS
  // ids ascend along discovery, so the first edge into each state comes from
  // a lower-id state and one ascending sweep assigns every rel[] while
  // verifying all remaining edges agree (the legacy implementation ran a
  // union-find sweep per signal; this does all signals in one pass over the
  // edges). Edges labelled a then pin each signal's absolute initial value:
  // before a+ the signal is 0, before a- it is 1.
  std::vector<std::uint64_t> rel(states, 0);
  std::vector<bool> assigned(states, false);
  assigned[0] = true;
  std::uint64_t seen = 0;        // signals with at least one labelled edge
  std::uint64_t init_known = 0;  // signals whose initial value is pinned
  std::uint64_t init_code = 0;
  for (int s = 0; s < states; ++s) {
    check(assigned[s], "build_global_sg: disconnected reachability graph");
    for (const auto& [t, succ] : sg.reach.edges(s)) {
      const int a = stg.labels[t].signal;
      const std::uint64_t bit = std::uint64_t{1} << a;
      seen |= bit;
      const std::uint64_t expect = rel[s] ^ bit;
      if (!assigned[succ]) {
        rel[succ] = expect;
        assigned[succ] = true;
      } else if (rel[succ] != expect) {
        const int bad = std::countr_zero(rel[succ] ^ expect);
        check(false, "build_global_sg: STG is inconsistent on signal '" +
                         stg.signals.name(bad) + "'");
      }
      const std::uint64_t before = stg.labels[t].rising ? 0 : bit;
      const std::uint64_t init_bit = (rel[s] & bit) ^ before;
      if (!(init_known & bit)) {
        init_known |= bit;
        init_code |= init_bit;
      } else {
        check((init_code & bit) == init_bit,
              "build_global_sg: STG is inconsistent on signal '" +
                  stg.signals.name(a) + "'");
      }
    }
  }
  for (int a = 0; a < signal_count; ++a)
    check((seen >> a) & 1, "build_global_sg: signal '" +
                               stg.signals.name(a) + "' never transitions");
  for (int s = 0; s < states; ++s) sg.codes[s] = rel[s] ^ init_code;
  return sg;
}

std::vector<int> initial_values(const stg::Stg& stg, const GlobalSg& sg) {
  std::vector<int> values(stg.signals.count(), -1);
  for (int a = 0; a < stg.signals.count(); ++a)
    values[a] = sg.value(0, a) ? 1 : 0;
  return values;
}

}  // namespace sitime::sg
