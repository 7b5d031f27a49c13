#include "core/flow.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <limits>

#include "base/error.hpp"
#include "base/metrics.hpp"
#include "core/local_stg.hpp"
#include "core/report.hpp"
#include "pn/hack.hpp"
#include "sg/sg_cache.hpp"
#include "sg/state_graph.hpp"

namespace sitime::core {

std::string to_string(const TimingConstraint& constraint,
                      const stg::SignalTable& signals) {
  return signals.name(constraint.gate) + ": " +
         stg::label_text(constraint.before, signals) + " < " +
         stg::label_text(constraint.after, signals);
}

int count_up_to_level(const ConstraintSet& constraints, int max_weight) {
  int count = 0;
  for (const auto& [constraint, weight] : constraints) {
    (void)constraint;
    if (weight <= max_weight) ++count;
  }
  return count;
}

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Resolves the FlowOptions::jobs knob: 1 stays serial, 0 means one job per
/// hardware thread.
int effective_jobs(int jobs) {
  if (jobs == 0)
    return std::max(1u, std::thread::hardware_concurrency());
  return jobs < 1 ? 1 : jobs;
}

/// The stable component-major (component × gate) job order.
std::vector<FlowJob> enumerate_flow_jobs(int components, int gates) {
  std::vector<FlowJob> jobs;
  jobs.reserve(static_cast<std::size_t>(components) * gates);
  for (int c = 0; c < components; ++c)
    for (int g = 0; g < gates; ++g)
      jobs.push_back(FlowJob{static_cast<int>(jobs.size()), c, g});
  return jobs;
}

}  // namespace

FlowDecomposition decompose_flow(const stg::Stg& impl,
                                 const circuit::Circuit& circuit,
                                 const CancelToken& cancel) {
  return decompose_flow(
      impl, circuit,
      sg::build_global_sg(impl, sg::kDefaultGlobalSgStateLimit, cancel));
}

FlowDecomposition decompose_flow(const stg::Stg& impl,
                                 const circuit::Circuit& circuit,
                                 const sg::GlobalSg& global) {
  FlowDecomposition decomposition;
  decomposition.state_count = global.state_count();
  decomposition.initial_values = sg::initial_values(impl, global);

  const std::vector<pn::MgComponent> components = pn::mg_components(impl.net);
  decomposition.component_stgs.reserve(components.size());
  for (const pn::MgComponent& component : components)
    decomposition.component_stgs.push_back(
        mg_from_component(impl, component, decomposition.initial_values));

  decomposition.jobs = enumerate_flow_jobs(
      static_cast<int>(decomposition.component_stgs.size()),
      static_cast<int>(circuit.gates().size()));
  return decomposition;
}

std::vector<JobOutcome> FlowDecomposition::job_outcomes(
    const circuit::Circuit& circuit) const {
  std::vector<JobOutcome> outcomes(jobs.size());
  std::lock_guard<std::mutex> lock(memo.mutex_);
  if (memo.outcomes_.empty()) return outcomes;
  for (const FlowJob& job : jobs) {
    const auto found = memo.outcomes_.find(
        {job.component, circuit.gates()[job.gate].output});
    if (found != memo.outcomes_.end()) outcomes[job.index] = found->second;
  }
  return outcomes;
}

void FlowDecomposition::remember_outcome(
    const FlowJob& job, const circuit::Gate& gate,
    std::shared_ptr<const stg::MgStg> local, std::optional<bool> conformant,
    std::shared_ptr<const JobDerivation> derivation) const {
  const JobMemo::OutcomeKey key{job.component, gate.output};
  std::lock_guard<std::mutex> lock(memo.mutex_);
  auto found = memo.outcomes_.find(key);
  if (found == memo.outcomes_.end()) {
    if (memo.outcomes_.size() >= jobs.size()) return;
    found = memo.outcomes_.emplace(key, JobOutcome{}).first;
  }
  JobOutcome& slot = found->second;
  if (!slot.computed_from(gate)) {
    if (!slot.projected_for(gate)) slot.local = std::move(local);
    slot.covers = std::make_shared<const JobCovers>(
        JobCovers{gate.up.cubes, gate.down.cubes, gate.fanins});
    slot.conformant.reset();
    slot.derivation = nullptr;
  }
  if (conformant) slot.conformant = conformant;
  if (derivation != nullptr) slot.derivation = std::move(derivation);
}

std::vector<MemoizedOutcome> FlowDecomposition::memoized_outcomes() const {
  std::vector<MemoizedOutcome> snapshot;
  std::lock_guard<std::mutex> lock(memo.mutex_);
  snapshot.reserve(memo.outcomes_.size());
  for (const auto& [key, outcome] : memo.outcomes_)
    snapshot.push_back({key.first, key.second, outcome});
  return snapshot;
}

namespace {

void count(base::MetricCounter* counter, long long delta) {
  if (counter != nullptr && delta > 0) counter->inc(delta);
}

/// The local STG a job that missed the outcome memo runs on: its slot's,
/// when the slot was projected for the gate's fanins, else a fresh
/// projection by the free function (the one place the flow projects, so a
/// profiler wrapping it sees every projection). Counted on the options'
/// local-STG counters.
std::shared_ptr<const stg::MgStg> local_stg_for(
    const FlowDecomposition& decomposition, const FlowJob& job,
    const JobOutcome& slot, const circuit::Gate& gate,
    const FlowOptions& options) {
  if (slot.projected_for(gate)) {
    count(options.local_stg_hits, 1);
    return slot.local;
  }
  count(options.local_stg_misses, 1);
  return std::make_shared<const stg::MgStg>(
      local_stg(decomposition.component_stgs[job.component], gate));
}

/// Calls visit(job) for every job of `flow_jobs` (verify's and derive's
/// outcome-memo misses, in job order). Returning false from visit stops
/// the iteration: serially nothing after that job runs; in parallel only
/// jobs later in the list than the stopping job may be skipped (every
/// earlier one still runs, so index-ordered answers stay
/// schedule-independent). jobs == 1, or a single job, runs serially on the
/// calling thread; otherwise the jobs run on `pool` (null = the shared
/// pool) with at most `jobs` in flight (0 = one per hardware thread).
/// `cancel` is polled before every job dispatch.
void for_each_flow_job(const std::vector<FlowJob>& flow_jobs,
                       const std::function<bool(const FlowJob&)>& visit,
                       int jobs, base::ThreadPool* pool,
                       const CancelToken& cancel) {
  jobs = effective_jobs(jobs);
  const int job_count = static_cast<int>(flow_jobs.size());
  auto run_job = [&](int index) -> bool {
    cancel.poll("flow job dispatch");
    return visit(flow_jobs[index]);
  };
  if (jobs == 1 || job_count <= 1) {
    for (int index = 0; index < job_count; ++index)
      if (!run_job(index)) return;
    return;
  }
  // The stop point is index-aware: a claimed job below the lowest stopping
  // index must still run (verify_speed_independent's first-offender answer
  // depends on it), only strictly later jobs may be skipped.
  std::atomic<int> stop_index{std::numeric_limits<int>::max()};
  base::ThreadPool& workers =
      pool != nullptr ? *pool : base::ThreadPool::shared();
  workers.parallel_for(
      0, job_count,
      [&](int index) {
        if (index > stop_index.load(std::memory_order_acquire)) return;
        if (run_job(index)) return;
        int current = stop_index.load(std::memory_order_relaxed);
        while (index < current &&
               !stop_index.compare_exchange_weak(current, index)) {
        }
      },
      /*grain=*/1, /*max_tasks=*/jobs);
}

}  // namespace

FlowResult derive_timing_constraints(const stg::Stg& impl,
                                     const circuit::Circuit& circuit,
                                     const FlowOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const FlowDecomposition decomposition =
      decompose_flow(impl, circuit, options.cancel);
  const double decompose_seconds = seconds_since(start);
  FlowResult result =
      derive_timing_constraints(decomposition, impl, circuit, options);
  result.decompose_seconds = decompose_seconds;
  result.seconds += decompose_seconds;
  return result;
}

FlowResult derive_timing_constraints(const FlowDecomposition& decomposition,
                                     const stg::Stg& impl,
                                     const circuit::Circuit& circuit,
                                     const FlowOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  FlowResult result;
  // A relaxation trace interleaved across concurrent jobs would be useless,
  // so tracing forces the serial schedule.
  result.jobs =
      options.expand.trace != nullptr ? 1 : effective_jobs(options.jobs);

  result.state_count = decomposition.state_count;
  result.mg_component_count =
      static_cast<int>(decomposition.component_stgs.size());

  for (int s = 0; s < impl.signals.count(); ++s) {
    if (impl.signals.is_input(s))
      ++result.input_count;
    else if (impl.signals.kind(s) == stg::SignalKind::output)
      ++result.output_count;
  }
  result.gate_count = static_cast<int>(circuit.gates().size());

  // Jobs whose derivation the memo holds for this gate and these options
  // are answered from it; the rest run. A trace must see every step, so
  // a traced run computes every job and stores nothing. A run that finds
  // every job memoized dispatches nothing, so the token is polled here.
  const bool memoize = options.expand.trace == nullptr;
  options.cancel.poll("flow job dispatch");
  std::vector<std::shared_ptr<const JobDerivation>> derivations(
      decomposition.jobs.size());
  std::vector<FlowJob> misses;
  int memoized_steps = 0;
  const std::vector<JobOutcome> outcomes = decomposition.job_outcomes(circuit);
  for (const FlowJob& job : decomposition.jobs) {
    const JobOutcome& outcome = outcomes[job.index];
    if (memoize && outcome.derivation != nullptr &&
        outcome.derivation->derived_with(options.expand) &&
        outcome.computed_from(circuit.gates()[job.gate])) {
      derivations[job.index] = outcome.derivation;
      memoized_steps += outcome.derivation->steps;
    } else {
      misses.push_back(job);
    }
  }
  count(options.derive_outcome_hits,
        static_cast<long long>(decomposition.jobs.size() - misses.size()));
  count(options.derive_outcome_misses, static_cast<long long>(misses.size()));
  // Memoized jobs charge their recorded steps to the budget (not to
  // expand_steps, which counts the work done), so the per-flow bound trips
  // exactly when the same jobs run cold would trip it.
  if (memoized_steps > options.expand.max_steps)
    throw ExpandLimitError("expand: step limit exceeded");
  std::atomic<int> step_budget{memoized_steps};

  const circuit::AdversaryAnalysis adversary(&impl);
  sg::SgCache private_cache;  // per-run fallback when none is supplied
  // Shared by every job of this flow — and, via options.sg_cache, across
  // flow runs of a resident service.
  sg::SgCache& cache =
      options.sg_cache != nullptr ? *options.sg_cache : private_cache;
  const long long cache_hits_before = cache.hits();
  const long long cache_misses_before = cache.misses();

  // A single miss runs on the calling thread (for_each_flow_job never
  // dispatches one job to the pool), without subtasks: the pool would only
  // add hand-off cost. Parallel runs also fan the OR-causality subSTG
  // recursion out onto the same pool (intra-gate parallelism below the
  // job level).
  const int dispatch_jobs = misses.size() <= 1 ? 1 : result.jobs;
  ExpandOptions expand_options = options.expand;
  if (options.cancel.cancellable() && !expand_options.cancel.cancellable())
    expand_options.cancel = options.cancel;
  if (dispatch_jobs > 1)
    expand_options.subtask_pool =
        options.pool != nullptr ? options.pool : &base::ThreadPool::shared();

  // Each job fills its own slot; slots are merged in job order below, so
  // the constraint sets cannot depend on the schedule.
  std::atomic<int> steps{0};
  std::atomic<int> subtasks{0};
  const auto expand_start = std::chrono::steady_clock::now();
  for_each_flow_job(
      misses,
      [&](const FlowJob& job) {
        const circuit::Gate& gate = circuit.gates()[job.gate];
        const std::shared_ptr<const stg::MgStg> projected = local_stg_for(
            decomposition, job, outcomes[job.index], gate, options);
        // A copy: the job relaxes its local STG in place.
        stg::MgStg local(*projected);
        auto out = std::make_shared<JobDerivation>();
        out->order = options.expand.order;
        out->max_depth = options.expand.max_depth;
        // Baseline: every type-4 arc is an adversary-path condition.
        for (int index : relaxable_arcs(local, gate.output)) {
          const stg::MgArc& arc = local.arcs()[index];
          out->before.emplace(
              TimingConstraint{gate.output, local.label(arc.from),
                               local.label(arc.to)},
              adversary.weight(local.label(arc.from), local.label(arc.to)));
        }
        Expander expander(&adversary, expand_options, &cache, &step_budget);
        expander.expand(std::move(local), gate, out->after);
        out->steps = expander.steps();
        steps.fetch_add(out->steps, std::memory_order_relaxed);
        subtasks.fetch_add(expander.subtasks(), std::memory_order_relaxed);
        if (memoize)
          decomposition.remember_outcome(job, gate, projected, {}, out);
        derivations[job.index] = std::move(out);
        return true;
      },
      dispatch_jobs, options.pool, options.cancel);
  result.expand_seconds = seconds_since(expand_start);

  for (const std::shared_ptr<const JobDerivation>& out : derivations) {
    // emplace keeps the first weight seen for a duplicate constraint,
    // matching the serial loop's insertion order job by job.
    for (const auto& [constraint, weight] : out->before)
      result.before.emplace(constraint, weight);
    for (const auto& [constraint, weight] : out->after)
      result.after.emplace(constraint, weight);
  }
  result.expand_steps = steps.load(std::memory_order_relaxed);
  result.expand_subtasks = subtasks.load(std::memory_order_relaxed);
  result.cache_hits = static_cast<int>(cache.hits() - cache_hits_before);
  result.cache_misses =
      static_cast<int>(cache.misses() - cache_misses_before);
  result.seconds = seconds_since(start);
  return result;
}

std::string verify_speed_independent(const stg::Stg& impl,
                                     const circuit::Circuit& circuit,
                                     const FlowOptions& options) {
  return verify_speed_independent(
      decompose_flow(impl, circuit, options.cancel), circuit, options);
}

std::string verify_speed_independent(const FlowDecomposition& decomposition,
                                     const circuit::Circuit& circuit,
                                     const FlowOptions& options) {
  // The smallest offending job index wins, so the answer is stable for any
  // schedule (and matches the serial early-exit order). Memoized verdicts
  // are read first, in job order, up to the first memoized offender: only
  // the jobs below it that the memo misses can still lower the answer.
  options.cancel.poll("flow job dispatch");
  int memoized_bad = std::numeric_limits<int>::max();
  std::vector<FlowJob> misses;
  const std::vector<JobOutcome> outcomes = decomposition.job_outcomes(circuit);
  for (const FlowJob& job : decomposition.jobs) {
    const JobOutcome& outcome = outcomes[job.index];
    if (!outcome.conformant ||
        !outcome.computed_from(circuit.gates()[job.gate])) {
      misses.push_back(job);
    } else if (!*outcome.conformant) {
      memoized_bad = job.index;
      break;
    }
  }
  const long long looked_up =
      memoized_bad == std::numeric_limits<int>::max()
          ? static_cast<long long>(decomposition.jobs.size())
          : memoized_bad + 1;
  count(options.verify_outcome_hits,
        looked_up - static_cast<long long>(misses.size()));
  std::atomic<int> first_bad{memoized_bad};
  sg::SgCache private_cache;  // per-run fallback, as in derive
  sg::SgCache& cache =
      options.sg_cache != nullptr ? *options.sg_cache : private_cache;
  for_each_flow_job(
      misses,
      [&](const FlowJob& job) {
        if (job.index > first_bad.load(std::memory_order_relaxed))
          return true;  // cannot improve the answer
        count(options.verify_outcome_misses, 1);
        const circuit::Gate& gate = circuit.gates()[job.gate];
        std::shared_ptr<const stg::MgStg> local = local_stg_for(
            decomposition, job, outcomes[job.index], gate, options);
        const std::shared_ptr<const sg::StateGraph> graph =
            cache.get_or_build(*local, options.cancel);
        const bool conformant = timing_conformant(*graph, *local, gate);
        decomposition.remember_outcome(job, gate, std::move(local),
                                       conformant, nullptr);
        if (conformant) return true;
        int current = first_bad.load(std::memory_order_relaxed);
        while (job.index < current &&
               !first_bad.compare_exchange_weak(current, job.index)) {
        }
        // Serially there is nothing smaller left to find; in parallel,
        // already-dispatched jobs still complete and may lower the index.
        return false;
      },
      options.jobs, options.pool, options.cancel);
  const int bad = first_bad.load(std::memory_order_relaxed);
  if (bad == std::numeric_limits<int>::max()) return "";
  return circuit.signals().name(
      circuit.gates()[decomposition.jobs[bad].gate].output);
}

std::string format_report(const FlowResult& result,
                          const stg::SignalTable& signals) {
  return thesis_report_text(make_flow_report("", result, signals));
}

}  // namespace sitime::core
