#include "core/expand.hpp"

#include <algorithm>
#include <exception>

#include "base/error.hpp"
#include "base/fault.hpp"
#include "base/metrics.hpp"
#include "core/local_stg.hpp"
#include "sg/regions.hpp"

namespace sitime::core {

Expander::Expander(const circuit::AdversaryAnalysis* adversary,
                   ExpandOptions options, sg::SgCache* shared_cache,
                   std::atomic<int>* shared_steps)
    : adversary_(adversary),
      options_(options),
      shared_steps_(shared_steps),
      owned_cache_(shared_cache == nullptr ? std::make_unique<sg::SgCache>()
                                           : nullptr),
      cache_(shared_cache == nullptr ? owned_cache_.get() : shared_cache) {}

int Expander::weight_of(const stg::MgStg& mg, const stg::MgArc& arc) const {
  if (adversary_ == nullptr) return 0;
  return adversary_->weight(mg.label(arc.from), mg.label(arc.to));
}

int Expander::pick_arc(const stg::MgStg& mg,
                       const std::vector<int>& arcs) const {
  check(!arcs.empty(), "pick_arc: no candidates");
  if (options_.order == ExpandOptions::OrderPolicy::input_order)
    return arcs.front();
  int best = arcs.front();
  auto key = [this, &mg](int index) {
    const stg::MgArc& arc = mg.arcs()[index];
    return std::tuple(weight_of(mg, arc), mg.label(arc.from),
                      mg.label(arc.to));
  };
  for (int index : arcs) {
    const bool better =
        options_.order == ExpandOptions::OrderPolicy::tightest_first
            ? key(index) < key(best)
            : key(index) > key(best);
    if (better) best = index;
  }
  return best;
}

namespace {

/// First excitation-region non-conformance: the output transition of an ER
/// whose states leave the matching pull function false. Returns -1 when
/// none.
int find_er_violation(const sg::StateGraph& graph, const stg::MgStg& mg,
                      const circuit::Gate& gate, bool* rising_out) {
  for (int s = 0; s < graph.state_count(); ++s) {
    for (const auto& [t, succ] : graph.out(s)) {
      (void)succ;
      const stg::TransitionLabel& label = mg.label(t);
      if (label.signal != gate.output) continue;
      const boolfn::Cover& fn = label.rising ? gate.up : gate.down;
      if (!fn.eval(graph.codes[s])) {
        if (rising_out != nullptr) *rising_out = label.rising;
        return t;
      }
    }
  }
  return -1;
}

}  // namespace

void Expander::expand(stg::MgStg local, const circuit::Gate& gate,
                      ConstraintSet& rt) {
  expand_inner(std::move(local), gate, rt, 0);
}

void Expander::expand_children(std::vector<stg::MgStg> subs,
                               const circuit::Gate& gate, ConstraintSet& rt,
                               int depth) {
  base::ThreadPool* pool =
      options_.trace == nullptr ? options_.subtask_pool : nullptr;
  if (pool == nullptr || subs.size() <= 1) {
    for (stg::MgStg& sub : subs)
      expand_inner(std::move(sub), gate, rt, depth);
    return;
  }
  // Each subtask fills its own slot; the slots are merged in subSTG order
  // below, so the constraint set cannot depend on the schedule. The group
  // wait helps execute queued tasks, so nesting this under the flow's
  // (component × gate) parallel_for on the same pool cannot deadlock.
  // Failures are captured per slot, NOT rethrown from the group: the
  // serial recursion accumulates every sibling before the thrower (plus
  // the thrower's partial output) into rt and never reaches the siblings
  // after it, so the merge below replays exactly that — prefix slots up
  // to and including the lowest failing index, then that index's
  // exception — keeping the failure path byte-identical to serial for
  // deterministic errors (depth limit, per-Expander step budget).
  std::vector<ConstraintSet> slots(subs.size());
  std::vector<std::exception_ptr> errors(subs.size());
  // Siblings past a failed index never run serially; subtasks already
  // started cannot be recalled, but ones that have not started yet skip
  // (their slots sit past the rethrow point, so skipping cannot change
  // the merged output — it only stops them from burning relaxation steps
  // a serial run would never attempt).
  std::atomic<std::size_t> first_error{subs.size()};
  base::TaskGroup group(*pool);
  for (std::size_t i = 0; i < subs.size(); ++i) {
    subtasks_.fetch_add(1, std::memory_order_relaxed);
    group.run([this, &gate, &subs, &slots, &errors, &first_error, i,
               depth] {
      if (i > first_error.load(std::memory_order_acquire)) return;
      auto record_error = [&errors, &first_error, i]() {
        errors[i] = std::current_exception();
        std::size_t current = first_error.load(std::memory_order_relaxed);
        while (i < current &&
               !first_error.compare_exchange_weak(current, i)) {
        }
      };
      try {
        expand_inner(std::move(subs[i]), gate, slots[i], depth);
      } catch (const base::CancelledError&) {
        if (options_.cancelled_subtasks != nullptr)
          options_.cancelled_subtasks->inc();
        record_error();
      } catch (...) {
        record_error();
      }
    });
  }
  group.wait();
  // emplace keeps the first weight seen for a duplicate constraint across
  // slots, matching the serial depth-first accumulation order.
  for (std::size_t i = 0; i < subs.size(); ++i) {
    for (const auto& [constraint, weight] : slots[i])
      rt.emplace(constraint, weight);
    if (errors[i] != nullptr) std::rethrow_exception(errors[i]);
  }
}

void Expander::expand_inner(stg::MgStg local, const circuit::Gate& gate,
                            ConstraintSet& rt, int depth) {
  if (depth > options_.max_depth)
    throw ExpandLimitError("expand: subSTG recursion too deep");
  auto trace = [this, depth, &gate, &local](const std::string& line) {
    if (options_.trace == nullptr) return;
    *options_.trace += std::string(2 * depth, ' ') + "[" +
                       local.signals().name(gate.output) + "] " + line + "\n";
  };
  // Prerequisite sets come from the STG *before* each relaxation. Only an
  // accepted relaxation changes the arc table they derive from (rejection
  // restores it, and set_arc_kind touches no ordering), so they are
  // computed once here and recomputed on acceptance instead of per trial.
  PrerequisiteMap epre = prerequisites(local, gate.output);
  while (true) {
    options_.cancel.poll("expand relaxation");
    const std::vector<int> candidates = relaxable_arcs(local, gate.output);
    if (candidates.empty()) return;
    const int mine = steps_.fetch_add(1, std::memory_order_relaxed) + 1;
    const int budget_used =
        shared_steps_ == nullptr
            ? mine
            : shared_steps_->fetch_add(1, std::memory_order_relaxed) + 1;
    if (budget_used > options_.max_steps)
      throw ExpandLimitError("expand: step limit exceeded");

    const int arc_index = pick_arc(local, candidates);
    const stg::MgArc arc = local.arcs()[arc_index];
    const int x = arc.from;
    const int y = arc.to;
    const int weight = weight_of(local, arc);

    // Trial in place: snapshot the arc table, relax, restore on rejection.
    // `local` plays the legacy `trial` role until the case is decided.
    stg::MgStg::ArcSnapshot pre_relax = local.arc_snapshot();
    local.relax(x, y);
    const std::shared_ptr<const sg::StateGraph> graph =
        cache_->get_or_build(local, options_.cancel);
    CheckResult result = check_relaxation(*graph, local, gate, x, epre);

    // The thesis analyses one premature output transition per relaxation;
    // when one relaxation hits several at once, fall back to the (sound)
    // timing constraint.
    if (result.violations.size() > 1 &&
        result.kind != RelaxationCase::hazard)
      result.kind = RelaxationCase::hazard;

    trace("relax " + local.transition_text(x) + " => " +
          local.transition_text(y) + " (weight " + std::to_string(weight) +
          "): case " +
          std::to_string(static_cast<int>(result.kind) + 1));

    // Rejecting the relaxation is always sound (the ordering stays
    // guaranteed by a timing constraint). Cases 2 and 3 fall back to this
    // when the OR-causality decomposition's preconditions do not hold
    // (e.g. a single-clause pull function cannot race against itself) --
    // matching the constraints the thesis tool reports for such arcs.
    // Restores the pre-relaxation arcs before marking the arc guaranteed.
    auto emit_constraint = [this, &rt, &local, &gate, &trace, &pre_relax, x,
                            y, weight]() {
      local.restore_arcs(std::move(pre_relax));
      trace("  constraint " + local.transition_text(x) + " < " +
            local.transition_text(y));
      rt.emplace(
          TimingConstraint{gate.output, local.label(x), local.label(y)},
          weight);
      local.set_arc_kind(x, y, stg::ArcKind::guaranteed);
    };

    switch (result.kind) {
      case RelaxationCase::conforms: {
        // Keep the relaxed STG; the prerequisite sets must follow it.
        epre = prerequisites(local, gate.output);
        break;
      }
      case RelaxationCase::spurious_prereq: {
        // Try making x* concurrent with the raced output transition.
        OrProblem problem;
        problem.relaxed_x = x;
        if (!result.violations.empty()) {
          problem.output_transition = result.violations[0].output_transition;
          problem.output_rising = result.violations[0].output_rising;
        } else {
          // Conformance failed only inside an excitation region.
          bool rising = false;
          problem.output_transition =
              find_er_violation(*graph, local, gate, &rising);
          problem.output_rising = rising;
          check(problem.output_transition != -1,
                "expand: case-2 classification without a violation");
        }
        const auto it = epre.find(problem.output_transition);
        if (it != epre.end()) problem.prerequisites = it->second;

        stg::MgStg::ArcSnapshot pre_concurrent = local.arc_snapshot();
        if (local.has_arc(x, problem.output_transition) &&
            local.arc_kind(x, problem.output_transition) ==
                stg::ArcKind::normal)
          local.relax(x, problem.output_transition);
        const std::shared_ptr<const sg::StateGraph> graph2 =
            cache_->get_or_build(local, options_.cancel);
        if (timing_conformant(*graph2, local, gate)) {
          trace("  made " + local.transition_text(x) +
                " concurrent with the output; accepted");
          epre = prerequisites(local, gate.output);
          break;
        }
        trace("  OR-causality after making " + local.transition_text(x) +
              " concurrent with the output; decomposing");
        // OR-causality in case 2: candidate clauses are judged on the SG
        // before the arc modification; the STG with x* concurrent is the
        // one decomposed (Figures 6.1 and 6.5). Both STGs are needed at
        // once here, so the pre-concurrent trial is materialized from its
        // snapshot.
        try {
          stg::MgStg trial = local;
          trial.restore_arcs(std::move(pre_concurrent));
          const std::vector<CandidateClause> clauses = find_candidate_clauses(
              trial, *graph, local, gate, problem);
          const auto init = initial_restrictions(local, clauses);
          const auto entries = or_causality_decomposition(clauses, init);
          trace("  " + std::to_string(entries.size()) + " subSTGs");
          expand_children(
              build_substgs(local, gate, problem, clauses, entries,
                            /*relax_non_clause_prereqs=*/false),
              gate, rt, depth + 1);
          return;
        } catch (const ExpandLimitError&) {
          throw;  // resource bounds fail the flow, never become constraints
        } catch (const base::CancelledError&) {
          throw;  // a cancel aborts the run; it is not a timing constraint
        } catch (const base::FaultInjectedError&) {
          throw;  // injected faults must surface as faults
        } catch (const Error&) {
          emit_constraint();
          break;
        }
      }
      case RelaxationCase::or_causality_input: {
        OrProblem problem;
        problem.relaxed_x = x;
        problem.output_transition = result.violations[0].output_transition;
        problem.output_rising = result.violations[0].output_rising;
        const auto it = epre.find(problem.output_transition);
        check(it != epre.end(), "expand: case 3 without prerequisites");
        problem.prerequisites = it->second;
        try {
          const std::vector<CandidateClause> clauses =
              find_candidate_clauses(local, *graph, local, gate, problem);
          const auto init = initial_restrictions(local, clauses);
          const auto entries = or_causality_decomposition(clauses, init);
          trace("  OR-causality (case 3): " + std::to_string(entries.size()) +
                " subSTGs");
          expand_children(
              build_substgs(local, gate, problem, clauses, entries,
                            /*relax_non_clause_prereqs=*/true),
              gate, rt, depth + 1);
          return;
        } catch (const ExpandLimitError&) {
          throw;  // resource bounds fail the flow, never become constraints
        } catch (const base::CancelledError&) {
          throw;  // a cancel aborts the run; it is not a timing constraint
        } catch (const base::FaultInjectedError&) {
          throw;  // injected faults must surface as faults
        } catch (const Error&) {
          emit_constraint();
          break;
        }
      }
      case RelaxationCase::hazard: {
        emit_constraint();
        break;
      }
    }
  }
}

}  // namespace sitime::core
