#include "core/flow.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
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

std::shared_ptr<const stg::MgStg> FlowDecomposition::local_stg_of(
    int component, const circuit::Gate& gate, bool* hit) const {
  LocalStgMemo::Key key{component, gate.fanins};
  std::vector<int>& kept = key.second;
  kept.push_back(gate.output);
  std::sort(kept.begin(), kept.end());
  {
    std::lock_guard<std::mutex> lock(memo.mutex_);
    const auto found = memo.slots_.find(key);
    if (found != memo.slots_.end()) {
      if (hit != nullptr) *hit = true;
      return found->second;
    }
  }
  if (hit != nullptr) *hit = false;
  // Projected outside the lock, by the free function (the one place the
  // flow projects, so a profiler wrapping it sees every projection).
  auto local = std::make_shared<const stg::MgStg>(
      core::local_stg(component_stgs[component], gate));
  std::lock_guard<std::mutex> lock(memo.mutex_);
  const auto found = memo.slots_.find(key);
  if (found != memo.slots_.end()) return found->second;
  if (memo.slots_.size() < jobs.size())
    memo.slots_.emplace(std::move(key), local);
  return local;
}

std::vector<MemoizedLocalStg> FlowDecomposition::memoized_local_stgs() const {
  std::vector<MemoizedLocalStg> snapshot;
  std::lock_guard<std::mutex> lock(memo.mutex_);
  snapshot.reserve(memo.slots_.size());
  for (const auto& [key, local] : memo.slots_)
    snapshot.push_back({key.first, key.second, local});
  return snapshot;
}

namespace {

/// The memoized local STG of `job`, counted on the options' counters.
std::shared_ptr<const stg::MgStg> job_local_stg(
    const FlowDecomposition& decomposition, const FlowJob& job,
    const circuit::Gate& gate, const FlowOptions& options) {
  bool hit = false;
  std::shared_ptr<const stg::MgStg> local =
      decomposition.local_stg_of(job.component, gate, &hit);
  base::MetricCounter* counter =
      hit ? options.local_stg_hits : options.local_stg_misses;
  if (counter != nullptr) counter->inc();
  return local;
}

/// The dispatch skeleton under for_each_local_stg, minus the projection:
/// verify drives it directly so a job past the first offender returns
/// before it projects.
void for_each_flow_job(const FlowDecomposition& decomposition,
                       const std::function<bool(const FlowJob&)>& visit,
                       int jobs, base::ThreadPool* pool,
                       const CancelToken& cancel) {
  jobs = effective_jobs(jobs);
  const int job_count = static_cast<int>(decomposition.jobs.size());
  auto run_job = [&](int index) -> bool {
    cancel.poll("flow job dispatch");
    return visit(decomposition.jobs[index]);
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

void for_each_local_stg(
    const FlowDecomposition& decomposition, const circuit::Circuit& circuit,
    const std::function<bool(const FlowJob&, stg::MgStg)>& visit,
    const FlowOptions& options) {
  for_each_flow_job(
      decomposition,
      [&](const FlowJob& job) {
        // A copy: the job relaxes its local STG in place.
        return visit(job, stg::MgStg(*job_local_stg(
                              decomposition, job, circuit.gates()[job.gate],
                              options)));
      },
      options.jobs, options.pool, options.cancel);
}

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

  const circuit::AdversaryAnalysis adversary(&impl);
  sg::SgCache private_cache;  // per-run fallback when none is supplied
  // Shared by every job of this flow — and, via options.sg_cache, across
  // flow runs of a resident service.
  sg::SgCache& cache =
      options.sg_cache != nullptr ? *options.sg_cache : private_cache;
  const long long cache_hits_before = cache.hits();
  const long long cache_misses_before = cache.misses();
  std::atomic<int> step_budget{0};  // makes max_steps a per-flow bound

  // Parallel runs also fan the OR-causality subSTG recursion out onto the
  // same pool (intra-gate parallelism below the job level).
  ExpandOptions expand_options = options.expand;
  if (options.cancel.cancellable() && !expand_options.cancel.cancellable())
    expand_options.cancel = options.cancel;
  if (result.jobs > 1)
    expand_options.subtask_pool =
        options.pool != nullptr ? options.pool : &base::ThreadPool::shared();

  // Each job fills its own slot; slots are merged in job order below, so
  // the constraint sets cannot depend on the schedule.
  struct JobOutput {
    ConstraintSet before;
    ConstraintSet after;
    int steps = 0;
    int subtasks = 0;
  };
  std::vector<JobOutput> outputs(decomposition.jobs.size());
  FlowOptions job_options = options;
  job_options.jobs = result.jobs;
  const auto expand_start = std::chrono::steady_clock::now();
  for_each_local_stg(
      decomposition, circuit,
      [&](const FlowJob& job, stg::MgStg local) {
        JobOutput& out = outputs[job.index];
        const circuit::Gate& gate = circuit.gates()[job.gate];
        // Baseline: every type-4 arc is an adversary-path condition.
        for (int index : relaxable_arcs(local, gate.output)) {
          const stg::MgArc& arc = local.arcs()[index];
          out.before.emplace(
              TimingConstraint{gate.output, local.label(arc.from),
                               local.label(arc.to)},
              adversary.weight(local.label(arc.from), local.label(arc.to)));
        }
        Expander expander(&adversary, expand_options, &cache, &step_budget);
        expander.expand(std::move(local), gate, out.after);
        out.steps = expander.steps();
        out.subtasks = expander.subtasks();
        return true;
      },
      job_options);
  result.expand_seconds = seconds_since(expand_start);

  for (const JobOutput& out : outputs) {
    // emplace keeps the first weight seen for a duplicate constraint,
    // matching the serial loop's insertion order job by job.
    for (const auto& [constraint, weight] : out.before)
      result.before.emplace(constraint, weight);
    for (const auto& [constraint, weight] : out.after)
      result.after.emplace(constraint, weight);
    result.expand_steps += out.steps;
    result.expand_subtasks += out.subtasks;
  }
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
  // schedule (and matches the serial early-exit order).
  std::atomic<int> first_bad{std::numeric_limits<int>::max()};
  sg::SgCache private_cache;  // per-run fallback, as in derive
  sg::SgCache& cache =
      options.sg_cache != nullptr ? *options.sg_cache : private_cache;
  for_each_flow_job(
      decomposition,
      [&](const FlowJob& job) {
        if (job.index > first_bad.load(std::memory_order_relaxed))
          return true;  // cannot improve the answer
        const circuit::Gate& gate = circuit.gates()[job.gate];
        const std::shared_ptr<const stg::MgStg> local =
            job_local_stg(decomposition, job, gate, options);
        const std::shared_ptr<const sg::StateGraph> graph =
            cache.get_or_build(*local, options.cancel);
        if (timing_conformant(*graph, *local, gate)) return true;
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
