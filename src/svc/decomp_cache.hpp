// The lower tier of the two-tier service cache: whole-design
// FlowDecompositions keyed on the canonical STG text ALONE.
//
// The design tier keys on STG + netlist + expand options, so a netlist-only
// edit misses it and — without this cache — pays the full decompose phase
// again: the global-SG BFS, the consistency check, the MG component
// enumeration and every component projection. All of that is a pure
// function of the STG; only the (component × gate) job list depends on
// the circuit. This cache stores the STG-derived part once, and a hit
// re-targets it at the request's circuit by re-enumerating the job list
// (core::enumerate_flow_jobs) — skipping the global-SG rebuild entirely.
//
// A value built from a design with no explicit netlist also retains the
// synthesized circuit (a pure function of the STG), so repeat synthesis
// requests skip the synthesis global-SG pass too. `built_eqn` records the
// canonical netlist the stored job list was computed against: a hit whose
// circuit matches reuses it verbatim; a mismatch re-enumerates the job
// list for the new gate count.
//
// Storage is one exact-LRU svc::CacheTier, charged with the calibrated
// model in svc/footprint.hpp (the pinned source STG and retained
// synthesized circuit included) under the service's CacheBudget, below the
// design tier. There is no single-flight: two flows racing on one STG both
// decompose and either insert may win, the content address guaranteeing
// they built the same value.
#pragma once

#include <memory>
#include <string>

#include "circuit/circuit.hpp"
#include "core/flow.hpp"
#include "svc/cache_tier.hpp"

namespace sitime::svc {

class DecompCache {
 public:
  /// One cached decomposition. `decomposition` pins the STG its component
  /// projections point into (FlowDecomposition::source); consumers whose
  /// circuit renders to `built_eqn` may use it verbatim, others
  /// re-enumerate the job list.
  struct Value {
    core::FlowDecomposition decomposition;
    /// Canonical netlist of the circuit `decomposition.jobs` was
    /// computed against.
    std::string built_eqn;
    /// The synthesized circuit (+ its canonical netlist) when the value
    /// was built from a design with no explicit netlist; null otherwise.
    /// Points into the SignalTable of decomposition.source, which the
    /// shared Value pins.
    std::shared_ptr<const circuit::Circuit> synth_circuit;
    std::shared_ptr<const std::string> synth_eqn;
  };

  /// Joins `budget` as its next tier.
  explicit DecompCache(CacheBudget& budget) : tier_(budget) {}

  /// Thread-safe; counts a hit or miss and refreshes LRU order on hit.
  /// `have_circuit` says whether the caller brings its own netlist: a
  /// caller without one can only be served by a value that retained the
  /// synthesized circuit, so a resident value without synthesis products
  /// counts (and returns) as a miss for such a caller.
  std::shared_ptr<const Value> lookup(const std::string& stg_canonical,
                                      bool have_circuit);

  /// Thread-safe. A duplicate key is upgraded in place: the new value
  /// replaces the resident one (both decompositions are equal by content
  /// address), and synthesis products are merged so an explicit-netlist
  /// re-insert never drops a retained synthesized circuit. Polls the
  /// decomp_cache_insert fault point: a fired fault skips retention — the
  /// inserting flow already holds its decomposition, so correctness is
  /// untouched.
  void insert(const std::string& stg_canonical, Value value);

  const CacheTierBase& tier() const { return tier_; }

 private:
  CacheTier<std::string, const Value> tier_;
};

}  // namespace sitime::svc
