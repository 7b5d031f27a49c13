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
// the shared decomposition it holds included in full (its memoized local
// STGs and job outcomes too), so the byte budget stays an upper bound on
// what resident designs keep alive.
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
         slab_bytes(mg.initial_values) +
         static_cast<std::size_t>(mg.transition_count()) *
             (sizeof(stg::TransitionLabel) + 1);
}

inline std::size_t footprint(const core::ConstraintSet& constraints) {
  return constraints.size() *
         (sizeof(std::pair<const core::TimingConstraint, int>) +
          kMapNodeBytes);
}

/// One job memo slot: its covers, its local STG and its derivation, each
/// in its own make_shared block.
inline std::size_t footprint(const core::JobOutcome& outcome) {
  std::size_t total = sizeof(core::JobOutcome);
  if (outcome.covers != nullptr)
    total += kControlBlockBytes + sizeof(core::JobCovers) +
             slab_bytes(outcome.covers->up) +
             slab_bytes(outcome.covers->down) +
             slab_bytes(outcome.covers->fanins);
  if (outcome.local != nullptr)
    total += kControlBlockBytes + footprint(*outcome.local);
  if (outcome.derivation != nullptr)
    total += kControlBlockBytes + sizeof(core::JobDerivation) +
             footprint(outcome.derivation->before) +
             footprint(outcome.derivation->after);
  return total;
}

/// The decomposition with its job memo as it stands now. The memo holds
/// at most one slot per job, so an entry charged after its run pays for
/// every slot that run left.
inline std::size_t footprint(const core::FlowDecomposition& decomposition) {
  std::size_t total = slab_bytes(decomposition.initial_values) +
                      slab_bytes(decomposition.jobs) +
                      slab_bytes(decomposition.component_stgs);
  for (const stg::MgStg& mg : decomposition.component_stgs)
    total += footprint(mg) - sizeof(stg::MgStg);  // slab counted above
  // One map node per slot: the (component, output) key and the slot.
  for (const core::MemoizedOutcome& memoized :
       decomposition.memoized_outcomes())
    total += kMapNodeBytes + 2 * sizeof(int) + footprint(memoized.outcome);
  return total;
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
