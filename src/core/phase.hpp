// The staged phase-artifact model of the analysis flow.
//
// The paper's flow is naturally staged: parse the STG, synthesize the
// netlist and decompose into (MG component × gate) local-STG jobs, verify
// speed independence, then derive the relative-timing constraints. Each
// stage is a pure function of the previous stage's product, so the products
// are modelled explicitly: one PhaseArtifacts value accumulates them, and
// run_*_phase() advances it by exactly one phase. A caller that already
// holds a partially-advanced artifact (a design cache, a REPL, a test)
// runs only the phases it is missing — this is what lets
// svc::AnalysisService keep ONE mode-independent entry per design and
// upgrade a verify-cached entry to a derive answer by running the derive
// phase alone on the cached decomposition.
#pragma once

#include <memory>
#include <string>

#include "circuit/circuit.hpp"
#include "core/flow.hpp"
#include "sg/state_graph.hpp"
#include "stg/stg.hpp"

namespace sitime::core {

/// The stages of the flow, in dependency order: each phase consumes the
/// product of the previous one and nothing else.
enum class Phase : int {
  parsed = 0,      // the STG (and optional explicit netlist) exist
  decomposed = 1,  // netlist synthesized when absent; FlowDecomposition built
  verified = 2,    // speed-independence verdict known
  derived = 3,     // relative-timing constraints derived (when SI)
};

/// "parsed" / "decomposed" / "verified" / "derived".
const char* phase_name(Phase phase);

/// The phases in (from, to] joined with '+', e.g. "verify+derive" for
/// (decomposed, derived] — the provenance string reports carry. Empty when
/// from >= to.
std::string phase_range_text(Phase from, Phase to);

/// The staged products of the flow for one design. Construction supplies
/// the parse-phase product (an owned STG, plus the explicit netlist when
/// the design came with one); each run_*_phase() call below adds the next
/// product and bumps `completed`. Circuit and decomposition point into
/// `stg`; both are held through shared_ptr to const, and the pointees are
/// immutable once a phase completes. The decomposition depends on the STG
/// alone, so several artifacts of one STG can share one (it pins its STG
/// via FlowDecomposition::source) whatever their circuits: every circuit
/// of an STG has one gate per non-input signal, so its job list fits them
/// all.
struct PhaseArtifacts {
  // parsed
  std::shared_ptr<const stg::Stg> stg;
  std::shared_ptr<const circuit::Circuit> circuit;  // null until decomposed
                                                    // when the netlist is
                                                    // synthesized
  // decomposed
  std::shared_ptr<const FlowDecomposition> decomposition;
  double decompose_seconds = 0.0;
  // verified
  std::string verify_offender;  // empty = speed independent
  double verify_seconds = 0.0;
  // derived (only when speed independent; a non-SI design reaches
  // Phase::derived with has_result == false)
  bool has_result = false;
  FlowResult result;
  double derive_seconds = 0.0;

  Phase completed = Phase::parsed;

  bool speed_independent() const {
    return completed >= Phase::verified && verify_offender.empty();
  }
};

/// The synthesized netlist of `stg` (one complex gate per non-input
/// signal) from its global SG `global`. The circuit points into
/// stg.signals. Throws on a CSC conflict.
std::shared_ptr<const circuit::Circuit> synthesize_circuit(
    const stg::Stg& stg, const sg::GlobalSg& global);

/// parsed -> decomposed: builds the global SG once and feeds it to
/// synthesis, when the artifact has no netlist (the synthesized circuit is
/// a pure function of the STG), and to the FlowDecomposition. Throws on
/// malformed inputs; the artifact is unchanged on failure except that a
/// successfully synthesized circuit is retained (callers report the
/// netlist even when decomposition fails).
/// A cancelled phase (base::CancelledError) likewise leaves `completed`
/// untouched, so a later run with a larger budget redoes only this phase.
void run_decompose_phase(PhaseArtifacts& artifacts,
                         const CancelToken& cancel = {});

/// decomposed -> verified: the isochronic-fork timing-conformance check
/// over the (component × gate) jobs. Only `options.jobs`, `options.pool`,
/// `options.cancel`, `options.sg_cache`, the local_stg counters and the
/// verify outcome counters participate; the verdict is identical for every
/// jobs value. The local STGs it projects and the verdicts it computes
/// stay memoized on the decomposition, for the derive phase and for every
/// other netlist of the STG that shares it.
void run_verify_phase(PhaseArtifacts& artifacts,
                      const FlowOptions& options = {});

/// verified -> derived: the Expand relaxation over the cached
/// decomposition. On a design that is not speed independent this is a
/// no-op that still advances `completed` (there is nothing to derive; the
/// verify verdict is the final answer). FlowResult::seconds includes the
/// recorded decompose_seconds so reports read like a monolithic run.
void run_derive_phase(PhaseArtifacts& artifacts, const FlowOptions& options);

}  // namespace sitime::core
