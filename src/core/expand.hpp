// The Expand relaxation loop (Algorithm 4, Section 5.6).
//
// Starting from a gate's local STG, repeatedly pick the tightest
// not-yet-guaranteed type-4 arc (Section 5.5: smallest adversary-path
// weight, i.e. most likely to be violated by process variation), relax it,
// and classify the result:
//   case 1: keep the relaxed STG (one adversary path fewer),
//   case 2: additionally make x* concurrent with the output; if still not
//           conformant, decompose the OR-causality and recurse per subSTG,
//   case 3: decompose the OR-causality and recurse per subSTG,
//   case 4: reject, emit the timing constraint x* < y*, mark the arc
//           guaranteed ('&').
// The loop ends when every remaining type-4 ordering is guaranteed either
// by acknowledgement or by a constraint.
//
// The OR-causality decompositions of cases 2 and 3 produce independent
// subSTGs; with ExpandOptions::subtask_pool set, each subSTG expansion
// runs as its own task on the pool (recursively), giving the flow
// intra-gate parallelism below the (component × gate) job level. Every
// subtask fills a private constraint slot and the slots are merged in
// subSTG order, so the emitted constraint set is byte-identical to the
// serial recursion for any worker count or schedule.
#pragma once

#include <atomic>
#include <memory>

#include "base/cancel.hpp"
#include "base/error.hpp"
#include "base/thread_pool.hpp"
#include "circuit/adversary.hpp"
#include "core/constraint.hpp"
#include "core/hazard_check.hpp"
#include "core/or_causality.hpp"
#include "sg/sg_cache.hpp"

namespace sitime::base {
class MetricCounter;
}  // namespace sitime::base

namespace sitime::core {

struct ExpandOptions {
  enum class OrderPolicy {
    tightest_first,  // the thesis policy (Section 5.5)
    loosest_first,   // ablation: reversed priority
    input_order,     // ablation: first relaxable arc in stable order
  };
  OrderPolicy order = OrderPolicy::tightest_first;
  int max_steps = 50000;  // defensive bound on relaxation attempts
  int max_depth = 24;     // defensive bound on subSTG recursion
  /// When non-null, a human-readable line per step is appended (used by the
  /// Figure 7.3 relaxation-trace bench and for debugging).
  std::string* trace = nullptr;
  /// When non-null, OR-causality subSTG expansions fan out as subtasks on
  /// this pool instead of recursing on the calling thread. Concurrency is
  /// bounded by the pool's worker count (plus the caller, which helps while
  /// waiting); output is identical either way. Ignored while `trace` is
  /// set — an interleaved trace would be useless.
  base::ThreadPool* subtask_pool = nullptr;
  /// Cooperative cancellation: polled once per relaxation attempt and
  /// inside every SG build. Like ExpandLimitError, base::CancelledError is
  /// rethrown past the OR-causality fallback — a cancelled subSTG must
  /// abort the run, never turn into a timing constraint (the answer of a
  /// completed run cannot depend on when a cancel landed).
  base::CancelToken cancel;
  /// When set, counts subSTG subtasks that observed the cancel and
  /// unwound (the service points it at its registry counter behind the
  /// `cancelled_subtasks` stat).
  base::MetricCounter* cancelled_subtasks = nullptr;
};

/// Thrown when a defensive resource bound (max_steps, max_depth) trips.
/// Distinct from plain Error so the OR-causality fallback does NOT convert
/// it into a timing constraint: near the budget the trip point is
/// schedule-dependent (concurrent jobs and subtasks share the step
/// budget), so converting it would let the *answer* vary with the worker
/// count. A limit trip instead fails the whole flow deterministically —
/// every successful result stays byte-identical for any jobs value, which
/// is the invariant the service's jobs-free cache key relies on.
class ExpandLimitError : public Error {
 public:
  using Error::Error;
};

class Expander {
 public:
  /// `adversary` supplies arc weights from the implementation STG; it may
  /// be null, in which case every arc weighs 0 (pure input order).
  /// `shared_cache` lets many Expanders (one per parallel flow job) share
  /// one concurrent state-graph cache; when null the Expander owns a
  /// private cache. `shared_steps` likewise makes max_steps a budget over
  /// every Expander pointing at the same counter (the flow's per-run
  /// defensive bound); when null the bound is per-Expander. The Expander
  /// itself holds only per-job state, so the parallel flow creates one per
  /// (component × gate) job.
  explicit Expander(const circuit::AdversaryAnalysis* adversary,
                    ExpandOptions options = {},
                    sg::SgCache* shared_cache = nullptr,
                    std::atomic<int>* shared_steps = nullptr);

  /// Runs Algorithm 4, accumulating constraints (keyed with their adversary
  /// weight) into `rt`.
  void expand(stg::MgStg local, const circuit::Gate& gate,
              ConstraintSet& rt);

  /// Relaxation attempts performed so far (across expand() calls).
  int steps() const { return steps_.load(std::memory_order_relaxed); }

  /// SubSTG expansions dispatched as pool subtasks so far (0 without a
  /// subtask_pool, or when no OR-causality decomposition occurred).
  int subtasks() const { return subtasks_.load(std::memory_order_relaxed); }

  /// The state-graph cache in use (owned or shared).
  const sg::SgCache& sg_cache() const { return *cache_; }

 private:
  void expand_inner(stg::MgStg local, const circuit::Gate& gate,
                    ConstraintSet& rt, int depth);
  /// Expands each subSTG of one decomposition, on the subtask pool when
  /// configured, merging per-subSTG constraint slots into `rt` in subSTG
  /// order (the serial recursion order).
  void expand_children(std::vector<stg::MgStg> subs,
                       const circuit::Gate& gate, ConstraintSet& rt,
                       int depth);
  int pick_arc(const stg::MgStg& mg, const std::vector<int>& arcs) const;
  int weight_of(const stg::MgStg& mg, const stg::MgArc& arc) const;

  const circuit::AdversaryAnalysis* adversary_;
  ExpandOptions options_;
  // Concurrent subtasks of one Expander share these counters.
  std::atomic<int> steps_{0};
  std::atomic<int> subtasks_{0};
  std::atomic<int>* shared_steps_;            // null: bound is per-Expander
  std::unique_ptr<sg::SgCache> owned_cache_;  // when no shared cache given
  sg::SgCache* cache_;
};

}  // namespace sitime::core
