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
// for_each_local_stg() dispatches them (serially or on a base::ThreadPool),
// and derive_timing_constraints() merges the per-job constraint sets in job
// order — the result is byte-identical for any worker count or schedule.
//
// A job's local STG depends only on its component and the gate's signal
// set, so the decomposition memoizes it: the verify and derive phases, and
// every netlist of one STG that shares the decomposition, project each job
// once.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
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
  int expand_steps = 0;     // relaxation attempts summed over all jobs
  /// SubSTG expansions dispatched as pool subtasks (intra-gate
  /// parallelism below the (component × gate) job level; 0 when serial or
  /// when no OR-causality decomposition occurred). Deterministic on
  /// successful flows; a flow that trips a resource bound
  /// (ExpandLimitError) fails as a whole, so scheduling can never change
  /// a *returned* result. Orchestration statistics still stay out of the
  /// canonical report body.
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
  /// When set, bumped once per job whose local STG the decomposition's
  /// memo already held / had to project (FlowDecomposition::local_stg_of).
  /// The service points them at its registry counters.
  base::MetricCounter* local_stg_hits = nullptr;
  base::MetricCounter* local_stg_misses = nullptr;
};

/// One (MG component × gate) unit of flow work.
struct FlowJob {
  int index = -1;      // stable merge position: component * gates + gate
  int component = -1;  // index into FlowDecomposition::component_stgs
  int gate = -1;       // index into Circuit::gates()
};

/// One memoized projection: the local STG, on MG component `component`,
/// of every gate whose kept-signal set {output} ∪ fanins is `kept`
/// (ascending signal ids).
struct MemoizedLocalStg {
  int component = -1;
  std::vector<int> kept;
  std::shared_ptr<const stg::MgStg> local;
};

/// The projection memo of one FlowDecomposition. A copy (or move) of a
/// decomposition starts with an empty memo, and assigning one clears it:
/// the memo belongs to the object whose component_stgs it projected.
class LocalStgMemo {
 public:
  LocalStgMemo() = default;
  LocalStgMemo(const LocalStgMemo&) {}
  LocalStgMemo& operator=(const LocalStgMemo&) {
    std::lock_guard<std::mutex> lock(mutex_);
    slots_.clear();
    return *this;
  }

 private:
  friend struct FlowDecomposition;
  using Key = std::pair<int, std::vector<int>>;  // (component, kept)
  mutable std::mutex mutex_;
  std::map<Key, std::shared_ptr<const stg::MgStg>> slots_;
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

  /// local_stg(component_stgs[component], gate), memoized by (component,
  /// {gate.output} ∪ gate.fanins) for the life of this decomposition.
  /// Thread-safe: a miss projects outside the lock, and when two callers
  /// race on one key the first result stored is the one both get. The
  /// memo holds at most jobs.size() projections (one per job of any one
  /// netlist); a miss past that bound is projected and not kept. `hit`,
  /// when set, reports whether the memo already held the projection.
  std::shared_ptr<const stg::MgStg> local_stg_of(
      int component, const circuit::Gate& gate, bool* hit = nullptr) const;

  /// A snapshot of the memo, in key order.
  std::vector<MemoizedLocalStg> memoized_local_stgs() const;

  mutable LocalStgMemo memo;
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

/// Calls visit(job, local_stg) for every job, handing each gate's local STG
/// (Algorithm 1 projection, from FlowDecomposition::local_stg_of) by value.
/// Returning false from visit stops the iteration: serially nothing after
/// that job runs; in parallel only jobs with a *higher* index than the
/// stopping job may be skipped (every lower index still runs, so
/// index-ordered answers stay schedule-independent).
/// Only `options.jobs`, `pool`, `cancel` and the local_stg counters
/// participate. jobs == 1 runs serially in stable job order on the calling
/// thread; otherwise the jobs run on `pool` (null = the shared pool) with
/// at most `jobs` of them in flight (0 = one per hardware thread), and
/// `visit` must be thread-safe.
/// `cancel` is polled before every job dispatch (serial and parallel); a
/// fired token unwinds with base::CancelledError instead of visiting the
/// remaining jobs.
void for_each_local_stg(
    const FlowDecomposition& decomposition, const circuit::Circuit& circuit,
    const std::function<bool(const FlowJob&, stg::MgStg)>& visit,
    const FlowOptions& options = {});

/// Runs the whole flow. Throws on malformed inputs (inconsistent STG,
/// non-free-choice net, missing gates).
FlowResult derive_timing_constraints(const stg::Stg& impl,
                                     const circuit::Circuit& circuit,
                                     const FlowOptions& options = {});

/// Same flow on a prebuilt decomposition (which must come from
/// decompose_flow(impl, circuit)): lets one decomposition feed both the
/// verify and derive phases — and, via a design cache, many requests —
/// without rebuilding the global SG and MG components each time.
FlowResult derive_timing_constraints(const FlowDecomposition& decomposition,
                                     const stg::Stg& impl,
                                     const circuit::Circuit& circuit,
                                     const FlowOptions& options);

/// Checks the precondition of the flow: under the isochronic fork
/// assumption (i.e. before any relaxation) every gate's local STG is timing
/// conformant to the gate. Returns the name of the first offending gate (in
/// stable job order, independent of `options.jobs`), or an empty string.
/// The local STGs come from the decomposition's memo and the local SGs
/// from `options.sg_cache` (or a private per-run cache), exactly as in
/// derive_timing_constraints; the expand options do not participate.
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
