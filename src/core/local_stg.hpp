// Deriving local STGs (Section 5.2) and classifying their arcs
// (Section 5.3.1).
//
// The local STG of a gate is the projection of one MG component of the
// implementation STG onto the gate's output and fan-in signals: the gate's
// local environment. Its arcs fall into four types; only type (4) arcs —
// orderings between transitions on *different input* signals — rely on the
// isochronic fork assumption and are candidates for relaxation.
#pragma once

#include <vector>

#include "circuit/circuit.hpp"
#include "pn/hack.hpp"
#include "stg/marked_graph.hpp"
#include "stg/stg.hpp"

namespace sitime::core {

enum class ArcType {
  input_to_output,  // type (1): acknowledgement x* => a*
  output_to_input,  // type (2): environment response a* => y*
  same_signal,      // type (3): ordering on one signal (wire FIFO order)
  input_to_input,   // type (4): relies on the isochronic fork
};

/// Converts one MG component of the implementation STG into arc-list form,
/// attaching the global initial signal values.
stg::MgStg mg_from_component(const stg::Stg& stg,
                             const pn::MgComponent& component,
                             const std::vector<int>& initial_values);

/// Local STG of `gate`: a copy of `component_stg` projected onto
/// {gate.output} + gate.fanins (Algorithm 1).
stg::MgStg local_stg(const stg::MgStg& component_stg,
                     const circuit::Gate& gate);

/// Classifies an arc of the local STG of the gate owning `gate_signal`.
ArcType classify_arc(const stg::MgStg& mg, const stg::MgArc& arc,
                     int gate_signal);

/// Indices into mg.arcs() of all type (4) arcs of kind `normal` (i.e. not
/// yet guaranteed and not order-restriction arcs), in stable order.
std::vector<int> relaxable_arcs(const stg::MgStg& mg, int gate_signal);

}  // namespace sitime::core
