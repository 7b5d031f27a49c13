// Calibrated footprint accounting shared by every service-layer cache.
//
// The byte budget charges what the allocator actually holds: container
// *capacities* (not sizes), the small-string optimization (an SSO string
// owns no heap block), and the per-node overhead of node-based containers.
// The constants below are the measured libstdc++/libc++ LP64 layouts; they
// are estimates in the strict sense, but calibrated ones — the old
// accounting guessed flat per-element factors.
//
// The design cache charges each resident entry through this one model,
// the shared decomposition it holds included in full, so the byte budget
// stays an upper bound on what resident designs keep alive.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "core/flow.hpp"
#include "core/report.hpp"
#include "stg/stg.hpp"

namespace sitime::svc {

/// Strings at or below the SSO capacity live inside the object.
inline const std::size_t kStringSso = std::string().capacity();

/// One std::map node: left/right/parent pointers + color word.
constexpr std::size_t kMapNodeBytes = 4 * sizeof(void*);
/// One unordered_map node: forward pointer + cached hash.
constexpr std::size_t kHashNodeBytes = 2 * sizeof(void*);
/// One shared_ptr control block: vtable, strong/weak counts, deleter slot.
constexpr std::size_t kControlBlockBytes = 4 * sizeof(void*);

inline std::size_t heap_bytes(const std::string& text) {
  return text.capacity() > kStringSso ? text.capacity() + 1 : 0;
}

template <typename T>
std::size_t slab_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

inline std::size_t footprint(const stg::Stg& stg) {
  std::size_t total = sizeof(stg::Stg) + heap_bytes(stg.model_name);
  const pn::PetriNet& net = stg.net;
  for (int p = 0; p < net.place_count(); ++p)
    total += sizeof(std::string) + heap_bytes(net.place_name(p)) +
             2 * sizeof(std::vector<int>) + slab_bytes(net.place_inputs(p)) +
             slab_bytes(net.place_outputs(p));
  for (int t = 0; t < net.transition_count(); ++t)
    total += sizeof(std::string) + heap_bytes(net.transition_name(t)) +
             2 * sizeof(std::vector<int>) +
             slab_bytes(net.transition_inputs(t)) +
             slab_bytes(net.transition_outputs(t));
  total += slab_bytes(net.initial_marking());
  total += slab_bytes(stg.labels);
  for (const std::string& name : stg.signals.names())
    total += sizeof(std::string) + heap_bytes(name);
  total += static_cast<std::size_t>(stg.signals.count()) *
           sizeof(stg::SignalKind);
  return total;
}

inline std::size_t footprint(const circuit::Circuit& circuit) {
  std::size_t total = sizeof(circuit::Circuit);
  total += slab_bytes(circuit.gates());
  for (const circuit::Gate& gate : circuit.gates())
    total += slab_bytes(gate.up.cubes) + slab_bytes(gate.down.cubes) +
             slab_bytes(gate.fanins);
  // The signal -> gate index table.
  total += static_cast<std::size_t>(circuit.signals().count()) * sizeof(int);
  return total;
}

inline std::size_t footprint(const stg::MgStg& mg) {
  // arcs() exposes the real arc table; transitions and their alive flags
  // are charged one label plus one flag byte each.
  return sizeof(stg::MgStg) + slab_bytes(mg.arcs()) +
         static_cast<std::size_t>(mg.transition_count()) *
             (sizeof(stg::TransitionLabel) + 1);
}

inline std::size_t footprint(const core::FlowDecomposition& decomposition) {
  std::size_t total = slab_bytes(decomposition.initial_values) +
                      slab_bytes(decomposition.jobs) +
                      slab_bytes(decomposition.component_stgs);
  for (const stg::MgStg& mg : decomposition.component_stgs)
    total += footprint(mg) - sizeof(stg::MgStg);  // slab counted above
  return total;
}

inline std::size_t footprint(const core::ConstraintSet& constraints) {
  return constraints.size() *
         (sizeof(std::pair<const core::TimingConstraint, int>) +
          kMapNodeBytes);
}

inline std::size_t footprint(const core::ReportConstraint& constraint) {
  return heap_bytes(constraint.gate) + heap_bytes(constraint.before) +
         heap_bytes(constraint.after);
}

inline std::size_t footprint(
    const std::vector<core::ReportConstraint>& list) {
  std::size_t total = slab_bytes(list);
  for (const core::ReportConstraint& constraint : list)
    total += footprint(constraint);
  return total;
}

inline std::size_t footprint(const core::FlowReport& report) {
  std::size_t total = sizeof(core::FlowReport) + heap_bytes(report.design) +
                      heap_bytes(report.content_hash) +
                      footprint(report.before) + footprint(report.after) +
                      slab_bytes(report.gates);
  for (const core::GateReport& gate : report.gates)
    total += heap_bytes(gate.gate) + footprint(gate.before) +
             footprint(gate.after);
  return total;
}

}  // namespace sitime::svc
