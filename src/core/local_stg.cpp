#include "core/local_stg.hpp"

#include "base/error.hpp"

namespace sitime::core {

stg::MgStg mg_from_component(const stg::Stg& stg,
                             const pn::MgComponent& component,
                             const std::vector<int>& initial_values) {
  stg::MgStg mg(&stg.signals);
  check(static_cast<int>(initial_values.size()) == stg.signals.count(),
        "mg_from_component: initial values size mismatch");
  // Stable mapping: MgStg transition ids follow the component's order.
  std::vector<int> to_local(stg.net.transition_count(), -1);
  for (int t : component.transitions)
    to_local[t] = mg.add_transition(stg.labels[t]);
  for (int p : component.places) {
    int from = -1;
    int to = -1;
    for (int t : stg.net.place_inputs(p))
      if (to_local[t] != -1) from = to_local[t];
    for (int t : stg.net.place_outputs(p))
      if (to_local[t] != -1) to = to_local[t];
    check(from != -1 && to != -1,
          "mg_from_component: dangling place '" + stg.net.place_name(p) +
              "' in component");
    mg.insert_arc(from, to, stg.net.initial_marking()[p]);
  }
  mg.initial_values = initial_values;
  mg.validate();
  check(mg.live(), "mg_from_component: component has a token-free cycle");
  // Checked once here instead of swept after the first splice of every
  // gate's projection (the result is the same either way).
  mg.check_reduced();
  return mg;
}

stg::MgStg local_stg(const stg::MgStg& component_stg,
                     const circuit::Gate& gate) {
  stg::MgStg local = component_stg;
  std::vector<bool> keep(local.signals().count(), false);
  keep[gate.output] = true;
  for (int fanin : gate.fanins) keep[fanin] = true;
  local.project(keep);
  local.validate();
  return local;
}

ArcType classify_arc(const stg::MgStg& mg, const stg::MgArc& arc,
                     int gate_signal) {
  const int from_signal = mg.label(arc.from).signal;
  const int to_signal = mg.label(arc.to).signal;
  if (from_signal == to_signal) return ArcType::same_signal;
  if (to_signal == gate_signal) return ArcType::input_to_output;
  if (from_signal == gate_signal) return ArcType::output_to_input;
  return ArcType::input_to_input;
}

std::vector<int> relaxable_arcs(const stg::MgStg& mg, int gate_signal) {
  std::vector<int> result;
  const auto& arcs = mg.arcs();
  for (int i = 0; i < static_cast<int>(arcs.size()); ++i) {
    if (arcs[i].kind != stg::ArcKind::normal) continue;
    if (classify_arc(mg, arcs[i], gate_signal) == ArcType::input_to_input)
      result.push_back(i);
  }
  return result;
}

}  // namespace sitime::core
