// Top-level flow (Algorithm 5 and the Check_hazard tool of Section 7.3.1),
// orchestrated as a parallel job graph.
//
// Inputs: the implementation STG and the gate netlist. The STG is
// decomposed into MG components (Hack), each component is projected onto
// every gate's local signals, and the Expand loop derives the relative
// timing constraints. The *before* set — all type-4 arcs of the initial
// local STGs — equals the adversary-path conditions of Keller et al.
// (ASYNC'09), the baseline of Table 7.2.
//
// Every (MG component × gate) expansion is independent, so the flow treats
// each as one job: decompose_flow() enumerates the jobs in a stable order,
// verify_speed_independent() and derive_timing_constraints() dispatch them
// (serially or on a base::ThreadPool), and derive merges the per-job
// constraint sets in job order — the result is byte-identical for any
// worker count or schedule.
//
// A job's local STG depends only on its component and the gate's signal
// set, and its verdict and constraints only on that local STG and the
// gate's covers, so the decomposition keeps one memo slot per job holding
// all three: the verify and derive phases, and every netlist of one STG
// that shares the decomposition, project each job once and verify or
// derive each unchanged gate once.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/cancel.hpp"
#include "base/thread_pool.hpp"
#include "circuit/adversary.hpp"
#include "circuit/circuit.hpp"
#include "core/expand.hpp"
#include "core/local_stg.hpp"
#include "sg/state_graph.hpp"
#include "stg/stg.hpp"

namespace sitime::core {

// The cancellation vocabulary the flow hands down to the leaves lives in
// base/ (layering); aliased here because the service layer speaks of
// core::Deadline / core::CancelToken.
using base::CancelledError;
using base::CancelSource;
using base::CancelToken;
using base::Deadline;

struct FlowResult {
  ConstraintSet before;  // adversary-path baseline, with weights
  ConstraintSet after;   // relaxed constraint set Rt, with weights
  int state_count = 0;   // size of the global state graph
  int gate_count = 0;
  int input_count = 0;
  int output_count = 0;
  int mg_component_count = 0;
  // Orchestration statistics (filled by derive_timing_constraints).
  int jobs = 1;             // worker bound the flow ran with
  int expand_steps = 0;     // relaxation attempts summed over the jobs
                            // that ran (a memoized job adds none)
  /// SubSTG expansions dispatched as pool subtasks (intra-gate
  /// parallelism below the (component × gate) job level; 0 when serial,
  /// when at most one job missed the decomposition's outcome memo, or when
  /// no OR-causality decomposition occurred; a memoized job dispatches
  /// none). Deterministic on successful flows from the same memo state; a
  /// flow that trips a resource bound (ExpandLimitError) fails as a whole,
  /// so scheduling can never change a *returned* result. Orchestration
  /// statistics still stay out of the canonical report body.
  int expand_subtasks = 0;
  int cache_hits = 0;       // shared SgCache statistics
  int cache_misses = 0;
  double seconds = 0.0;     // end to end
  double decompose_seconds = 0.0;  // global SG + MG decomposition
  double expand_seconds = 0.0;     // the (component × gate) job graph
};

/// Worker-count and scheduling knobs for the flow.
struct FlowOptions {
  ExpandOptions expand;
  /// Parallel (component × gate) jobs: 1 = serial (default), 0 = one per
  /// hardware thread, N > 1 = at most N concurrent jobs. The constraint
  /// sets are identical for every value.
  int jobs = 1;
  /// Pool carrying the jobs; null = base::ThreadPool::shared(). Ignored
  /// when jobs == 1.
  base::ThreadPool* pool = nullptr;
  /// The one source of local state graphs for both the verify and the
  /// derive phase. Shared across flow runs, it lets repeated and edited
  /// designs skip SG construction (a resident service keeps one per
  /// process); null = a private per-run cache. FlowResult::cache_hits/
  /// misses report the derive run's delta, which is exact for a private
  /// cache and approximate when other concurrent runs share the same
  /// cache.
  sg::SgCache* sg_cache = nullptr;
  /// Cooperative cancellation, polled in every hot loop of the flow (job
  /// dispatch, SG BFS, Expand relaxation steps). A cancelled
  /// flow throws base::CancelledError; it never returns a partial result,
  /// and the shared SgCache only ever holds fully built graphs, so a
  /// later uncancelled run yields the canonical answer. Also copied into
  /// expand.cancel (an explicitly set expand.cancel wins).
  CancelToken cancel;
  /// When set, bumped once per verify / derive job the outcome memo
  /// missed whose memo slot already held / did not hold the local STG for
  /// the gate's fanins (a miss projects it). The service points them at
  /// its registry counters.
  base::MetricCounter* local_stg_hits = nullptr;
  base::MetricCounter* local_stg_misses = nullptr;
  /// When set, bumped once per verify / derive job whose outcome the
  /// decomposition's memo already held for the gate's covers (and, for
  /// derive, the expand options) / had to compute
  /// (FlowDecomposition::job_outcomes).
  base::MetricCounter* verify_outcome_hits = nullptr;
  base::MetricCounter* verify_outcome_misses = nullptr;
  base::MetricCounter* derive_outcome_hits = nullptr;
  base::MetricCounter* derive_outcome_misses = nullptr;
};

/// One (MG component × gate) unit of flow work.
struct FlowJob {
  int index = -1;      // stable merge position: component * gates + gate
  int component = -1;  // index into FlowDecomposition::component_stgs
  int gate = -1;       // index into Circuit::gates()
};

/// A derive job's share of the answer: its type-4 baseline and relaxed
/// constraints, the relaxation steps they took, and the expand options
/// that shape them.
struct JobDerivation {
  ExpandOptions::OrderPolicy order = ExpandOptions::OrderPolicy::tightest_first;
  int max_depth = 0;
  ConstraintSet before;
  ConstraintSet after;
  int steps = 0;

  bool derived_with(const ExpandOptions& options) const {
    return order == options.order && max_depth == options.max_depth;
  }
};

/// The gate covers, cube for cube, a memoized job outcome was computed
/// from, and the fanins they support. Equal covers mean an equal job; equal
/// fanins, an equal local STG.
struct JobCovers {
  std::vector<boolfn::Cube> up;
  std::vector<boolfn::Cube> down;
  std::vector<int> fanins;
};

/// The memo slot of one (component × gate output) job: the local STG it
/// was projected onto, its verify verdict and its derivation, and the
/// covers the three were computed from. The covers are copied once, by
/// whichever phase first finishes the job for them; the other phase
/// attaches its part to the same slot.
struct JobOutcome {
  std::shared_ptr<const JobCovers> covers;
  /// local_stg(component, gate) for the covers' fanins: set with them.
  std::shared_ptr<const stg::MgStg> local;
  /// The verify verdict: the job's local SG is timing conformant to the
  /// gate. Empty until a verify run finished the job.
  std::optional<bool> conformant;
  /// Null until a derive run finished the job.
  std::shared_ptr<const JobDerivation> derivation;

  bool computed_from(const circuit::Gate& gate) const {
    return covers != nullptr && covers->up == gate.up.cubes &&
           covers->down == gate.down.cubes;
  }
  bool projected_for(const circuit::Gate& gate) const {
    return covers != nullptr && covers->fanins == gate.fanins;
  }
};

/// One memo slot, keyed by (component, gate output).
struct MemoizedOutcome {
  int component = -1;
  int output = -1;
  JobOutcome outcome;
};

/// The job memo of one FlowDecomposition: one slot per (component, gate
/// output). A copy (or move) of a decomposition starts with an empty memo,
/// and assigning one clears it: the memo belongs to the object whose
/// component_stgs it projected.
class JobMemo {
 public:
  JobMemo() = default;
  JobMemo(const JobMemo&) {}
  JobMemo& operator=(const JobMemo&) {
    std::lock_guard<std::mutex> lock(mutex_);
    outcomes_.clear();
    return *this;
  }

 private:
  friend struct FlowDecomposition;
  using OutcomeKey = std::pair<int, int>;  // (component, gate output)
  mutable std::mutex mutex_;
  std::map<OutcomeKey, JobOutcome> outcomes_;
};

/// The shared, read-only part of the flow every job starts from.
struct FlowDecomposition {
  int state_count = 0;                      // global SG size
  std::vector<int> initial_values;          // from sg::initial_values
  std::vector<stg::MgStg> component_stgs;   // one per MG component
  std::vector<FlowJob> jobs;                // component-major, stable order
  /// Pins the STG whose SignalTable the component_stgs point into, so a
  /// decomposition shared beyond its producing PhaseArtifacts stays valid:
  /// the service shares one per STG among the design entries that hold
  /// it. May be null when the caller guarantees the source STG outlives
  /// every copy.
  std::shared_ptr<const stg::Stg> source;

  /// The memo slot of each job of `circuit`, in job order, read under one
  /// lock: empty where the memo holds none for the job's (component, gate
  /// output). A slot may have been computed from another netlist's gate;
  /// JobOutcome::computed_from and projected_for tell.
  std::vector<JobOutcome> job_outcomes(const circuit::Circuit& circuit) const;

  /// Stores what a finished job computed for `gate`: the local STG it ran
  /// on and its verify verdict or its derivation. A slot computed from the
  /// same covers gains the part; any other slot is reset to `gate`'s
  /// covers first, and keeps its local STG only if it was projected for
  /// the same fanins. Thread-safe. The memo holds at most jobs.size()
  /// slots (one per (component, non-input signal)); a new key past that
  /// bound is not kept.
  void remember_outcome(
      const FlowJob& job, const circuit::Gate& gate,
      std::shared_ptr<const stg::MgStg> local, std::optional<bool> conformant,
      std::shared_ptr<const JobDerivation> derivation) const;

  /// A snapshot of the memo slots, in key order.
  std::vector<MemoizedOutcome> memoized_outcomes() const;

  mutable JobMemo memo;
};

/// Builds the global SG, checks consistency, and enumerates the MG
/// components and (component × gate) jobs. Throws on malformed inputs
/// (inconsistent STG, non-free-choice net) and base::CancelledError when
/// `cancel` fires during the global-SG BFS.
FlowDecomposition decompose_flow(const stg::Stg& impl,
                                 const circuit::Circuit& circuit,
                                 const CancelToken& cancel = {});

/// Same, on the global SG of `impl` the caller already built (the
/// decompose phase builds one that feeds both synthesis and this).
FlowDecomposition decompose_flow(const stg::Stg& impl,
                                 const circuit::Circuit& circuit,
                                 const sg::GlobalSg& global);

/// Runs the whole flow. Throws on malformed inputs (inconsistent STG,
/// non-free-choice net, missing gates).
FlowResult derive_timing_constraints(const stg::Stg& impl,
                                     const circuit::Circuit& circuit,
                                     const FlowOptions& options = {});

/// Same flow on a prebuilt decomposition (which must come from
/// decompose_flow(impl, circuit)): lets one decomposition feed both the
/// verify and derive phases — and, via a design cache, many requests —
/// without rebuilding the global SG and MG components each time.
/// Every job's derivation is first looked up in the decomposition's
/// outcome memo on the calling thread; only the jobs it misses run (and
/// are remembered), and with at most one miss nothing goes to the pool. A
/// memoized job charges its recorded steps to the max_steps budget, so the
/// bound trips exactly when it would on a cold decomposition. A job that
/// throws or is cancelled stores nothing; a run with expand.trace set
/// reads only the memoized local STGs and writes nothing.
FlowResult derive_timing_constraints(const FlowDecomposition& decomposition,
                                     const stg::Stg& impl,
                                     const circuit::Circuit& circuit,
                                     const FlowOptions& options);

/// Checks the precondition of the flow: under the isochronic fork
/// assumption (i.e. before any relaxation) every gate's local STG is timing
/// conformant to the gate. Returns the name of the first offending gate (in
/// stable job order, independent of `options.jobs`), or an empty string.
/// Each job's verdict is first looked up in the decomposition's outcome
/// memo, as in derive_timing_constraints; the jobs it misses get their
/// local STGs from their memo slots and their local SGs from
/// `options.sg_cache` (or a private per-run cache), and with at most one
/// miss nothing goes to the pool. The expand options do not participate.
std::string verify_speed_independent(const stg::Stg& impl,
                                     const circuit::Circuit& circuit,
                                     const FlowOptions& options = {});

/// verify_speed_independent on a prebuilt decomposition (same contract).
std::string verify_speed_independent(const FlowDecomposition& decomposition,
                                     const circuit::Circuit& circuit,
                                     const FlowOptions& options = {});

/// Renders the two constraint lists in the format of the thesis tool
/// Check_hazard (Section 7.3.1).
std::string format_report(const FlowResult& result,
                          const stg::SignalTable& signals);

}  // namespace sitime::core
