// wirebench_replay — the traced, in-process replay behind the per-layer
// metrics.
//
//   wirebench_replay --workload NAME --seed N --seconds S --work DIR
//
// Replays the workload's seeded request sequence (the connections'
// streams interleaved in order) through an AnalysisService configured
// like the workload's server: same byte budget, same per-request jobs,
// the same --cache-dir use (a store spilled and booted from, a fresh
// directory, or none). Every public call a request crosses is timed by
// the wrappers in layers.cpp; the replay runs for at most S seconds, then
// replays the same requests again untimed on a fresh service, so the
// tracing overhead is measured rather than assumed. A faithfulness check
// rebuilds the constraint sets of served reports from per-job local_stg +
// Expander::expand calls merged in job order. Prints one JSON object
// (correct, attempted, failed, metrics) as the last line of stdout.
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "circuit/adversary.hpp"
#include "core/flow.hpp"
#include "core/report.hpp"
#include "layers.hpp"
#include "metric_json.hpp"
#include "reference.hpp"
#include "stg/astg.hpp"
#include "svc/analysis_service.hpp"
#include "svc/json.hpp"
#include "workload.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using wirebench::Workload;
namespace layers = wirebench::layers;

/// Served reports the faithfulness check rebuilds, at most.
constexpr int kFaithfulnessReports = 24;

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "wirebench_replay: %s\n", message.c_str());
  std::exit(2);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The service a workload's server runs: its --cache-mb and --jobs, and
/// `cache_dir` for the store.
sitime::svc::ServiceOptions service_options(const Workload& workload,
                                            const std::string& cache_dir) {
  sitime::svc::ServiceOptions options;
  options.jobs = Workload::kJobs;
  const std::vector<std::string> flags = workload.server_flags();
  for (std::size_t i = 0; i + 1 < flags.size(); ++i)
    if (flags[i] == "--cache-mb")
      options.cache_budget_bytes = std::stoul(flags[i + 1]) << 20;
  options.cache_dir = cache_dir;
  return options;
}

/// The request the server would build from one line (inline designs).
sitime::svc::AnalysisRequest to_request(const std::string& line) {
  const sitime::svc::JsonValue json = sitime::svc::parse_json(line);
  const sitime::svc::JsonValue& design = json.get("design");
  sitime::svc::AnalysisRequest request;
  request.name = design.string_or("name", "(inline)");
  request.astg = design.string_or("astg", "");
  request.eqn = design.string_or("eqn", "");
  request.mode = json.string_or("mode", "derive") == "verify"
                     ? sitime::svc::RequestMode::verify
                     : sitime::svc::RequestMode::derive;
  return request;
}

/// The next line of the interleaved streams, extending bounded streams as
/// they run dry; -1 when a stream cannot grow.
class Sequence {
 public:
  explicit Sequence(Workload& workload) : workload_(workload) {}
  int next() {
    const int connection = turn_;
    turn_ = (turn_ + 1) % Workload::kConnections;
    int line = workload_.next(connection);
    if (line < 0 && !workload_.unbounded()) {
      workload_.extend_round();
      line = workload_.next(connection);
    }
    return line;
  }

 private:
  Workload& workload_;
  int turn_ = 0;
};

struct Replayed {
  std::vector<int> lines;
  long long failed = 0;
  double seconds = 0.0;  // wall time of the requests, boot excluded
  double boot_seconds = 0.0;
  std::vector<std::pair<int, std::shared_ptr<const sitime::core::FlowReport>>>
      reports;  // (design, served report) for the faithfulness check
  sitime::svc::CacheStats stats;
  long long pool_executed = 0;
  long long pool_stolen = 0;
};

/// Replays `lines` (or, when empty, the workload's sequence for at most
/// `budget_seconds`) on a fresh service.
Replayed replay(Workload& workload, const std::string& cache_dir,
                std::vector<int> lines, double budget_seconds) {
  Replayed out;
  sitime::base::ThreadPool& pool = sitime::base::ThreadPool::shared();
  const long long executed_before = pool.tasks_executed();
  const long long stolen_before = pool.tasks_stolen();
  const auto boot = Clock::now();
  sitime::svc::AnalysisService service(service_options(workload, cache_dir));
  if (!cache_dir.empty()) service.warm_from_disk();
  out.boot_seconds = seconds_since(boot);

  const bool bounded = !lines.empty();
  Sequence sequence(workload);
  std::vector<char> reported(workload.designs.size(), 0);
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    int index = -1;
    if (bounded) {
      if (i == lines.size()) break;
      index = lines[i];
    } else {
      if (seconds_since(start) >= budget_seconds) break;
      index = sequence.next();
      if (index < 0) break;
    }
    const wirebench::Line& line = workload.lines[index];
    const sitime::svc::AnalysisResponse response =
        service.analyze(to_request(line.text));
    out.lines.push_back(index);
    if (!response.ok) ++out.failed;
    if (reported.size() < workload.designs.size())
      reported.resize(workload.designs.size(), 0);
    if (response.report != nullptr && !reported[line.design] &&
        out.reports.size() < kFaithfulnessReports) {
      reported[line.design] = 1;
      out.reports.emplace_back(line.design, response.report);
    }
  }
  out.seconds = seconds_since(start);
  out.stats = service.stats();
  out.pool_executed = pool.tasks_executed() - executed_before;
  out.pool_stolen = pool.tasks_stolen() - stolen_before;
  return out;
}

/// Rebuilds one design's constraint sets from the per-job public calls —
/// local_stg, then Expander::expand, merged in job order exactly as the
/// flow merges them — and compares them with the served report. Returns
/// "" when they agree.
std::string check_faithful(const wirebench::Design& design,
                           const sitime::core::FlowReport& served) {
  using namespace sitime;
  const stg::Stg stg = stg::parse_astg(design.astg);
  const circuit::Circuit circuit =
      circuit::Circuit::from_equations(&stg.signals, design.eqn);
  const core::FlowDecomposition decomposition =
      core::decompose_flow(stg, circuit);
  const circuit::AdversaryAnalysis adversary(&stg);
  core::FlowResult result;
  std::atomic<int> steps{0};
  for (const core::FlowJob& job : decomposition.jobs) {
    const circuit::Gate& gate = circuit.gates()[job.gate];
    stg::MgStg local =
        core::local_stg(decomposition.component_stgs[job.component], gate);
    core::ConstraintSet before, after;
    for (const int arc_index : core::relaxable_arcs(local, gate.output)) {
      const stg::MgArc& arc = local.arcs()[arc_index];
      before.emplace(core::TimingConstraint{gate.output, local.label(arc.from),
                                            local.label(arc.to)},
                     adversary.weight(local.label(arc.from),
                                      local.label(arc.to)));
    }
    core::Expander expander(&adversary, core::ExpandOptions{}, nullptr,
                            &steps);
    expander.expand(std::move(local), gate, after);
    for (const auto& [constraint, weight] : before)
      result.before.emplace(constraint, weight);
    for (const auto& [constraint, weight] : after)
      result.after.emplace(constraint, weight);
  }
  const core::FlowReport rebuilt =
      core::make_flow_report("", result, stg.signals);
  auto same = [](const std::vector<core::ReportConstraint>& a,
                 const std::vector<core::ReportConstraint>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
      if (a[i].text() != b[i].text() || a[i].weight != b[i].weight)
        return false;
    return true;
  };
  if (!same(rebuilt.before, served.before))
    return design.name + ": rebuilt before-set differs from the served one";
  if (!same(rebuilt.after, served.after))
    return design.name + ": rebuilt after-set differs from the served one";
  return "";
}

double ratio(long long part, long long whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, work;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg == "--workload") workload_name = argv[i + 1];
    else if (arg == "--seed") seed = std::stoull(argv[i + 1]);
    else if (arg == "--seconds") seconds = std::stod(argv[i + 1]);
    else if (arg == "--work") work = argv[i + 1];
    else die("unknown option " + arg);
  }
  if (workload_name.empty() || work.empty())
    die("usage: wirebench_replay --workload NAME --seed N --seconds S "
        "--work DIR");
  std::unique_ptr<Workload> workload;
  try {
    workload = Workload::make(workload_name, seed);
  } catch (const std::exception& error) {
    die(error.what());
  }
  ::mkdir(work.c_str(), 0755);

  // Store directories: the traced and the untimed replay boot from the
  // same prefilled store (hits never write to it), or each gets its own
  // fresh directory.
  std::string traced_dir, untimed_dir;
  if (workload->store() == Workload::Store::prefilled) {
    traced_dir = untimed_dir = work + "/store";
    if (!wirebench::fill_store(workload->designs, workload->store_designs(),
                               traced_dir))
      die("store fill failed");
  } else if (workload->store() == Workload::Store::fresh) {
    traced_dir = work + "/traced";
    untimed_dir = work + "/untimed";
  }

  layers::reset();
  layers::enable(true);
  const Replayed traced = replay(*workload, traced_dir, {}, seconds);
  layers::enable(false);
  const layers::Totals totals = layers::snapshot();
  // The same requests again, untimed; the wrappers only forward now.
  const Replayed untimed =
      replay(*workload, untimed_dir, traced.lines, seconds);

  std::vector<std::string> problems;
  for (const auto& [design, report] : traced.reports) {
    const std::string why =
        check_faithful(workload->designs[design], *report);
    if (!why.empty()) problems.push_back(why);
  }
  for (const std::string& problem : problems)
    std::fprintf(stderr, "wirebench_replay: %s\n", problem.c_str());

  // busy_s is a layer's self time; svc.service.busy_s is the whole time
  // requests spent in analyze, and unattributed_s the part of it no
  // nested layer timer accounts for.
  wirebench::MetricsJson metrics;
  for (int l = 0; l < layers::kLayers; ++l) {
    const auto layer = static_cast<layers::Layer>(l);
    const std::string name = layers::layer_name(layer);
    metrics.add(name + ".calls", static_cast<double>(totals.calls[l]),
                "count");
    metrics.add(name + ".busy_s",
                layer == layers::kService ? totals.inclusive_s[l]
                                          : totals.busy_s[l],
                "s");
  }
  const auto count = [&](layers::Count c) {
    return static_cast<double>(totals.counts[c]);
  };
  const sitime::svc::CacheStats& stats = traced.stats;
  const auto as_double = [](long long value) {
    return static_cast<double>(value);
  };
  metrics.add("sg.global.states", count(layers::kStates), "count");
  metrics.add("sg.local.states", count(layers::kLocalStates), "count");
  metrics.add("pn.hack.components", count(layers::kComponents), "count");
  metrics.add("core.project.arcs_out", count(layers::kArcsOut), "count");
  metrics.add("core.expand.steps", count(layers::kSteps), "count");
  metrics.add("core.expand.subtasks", count(layers::kSubtasks), "count");
  metrics.add("core.expand.sg_cache_hits", as_double(stats.sg_cache_hits),
              "count");
  metrics.add("core.expand.sg_cache_misses",
              as_double(stats.sg_cache_misses), "count");
  metrics.add("core.codec.bytes", count(layers::kBytes), "bytes");
  metrics.add("svc.service.fresh", count(layers::kFresh), "count");
  metrics.add("svc.service.hit", count(layers::kHit), "count");
  metrics.add("svc.service.upgraded", count(layers::kUpgraded), "count");
  metrics.add("svc.service.coalesced", count(layers::kCoalesced), "count");
  metrics.add("svc.service.design_hit_ratio",
              ratio(stats.hits, stats.hits + stats.misses + stats.upgrades),
              "ratio");
  metrics.add("svc.service.decomp_hit_ratio",
              ratio(stats.decomp_hits, stats.decomp_hits + stats.decomp_misses),
              "ratio");
  metrics.add("svc.service.gate_hit_ratio",
              ratio(stats.gate_hits, stats.gate_hits + stats.gate_misses),
              "ratio");
  metrics.add("svc.service.evictions", as_double(stats.evictions), "count");
  metrics.add("svc.service.sheds",
              as_double(stats.decomp_evictions + stats.gate_evictions),
              "count");
  metrics.add("svc.service.resident_bytes",
              as_double(static_cast<long long>(
                  stats.bytes + stats.decomp_bytes + stats.gate_bytes)),
              "bytes");
  metrics.add("base.pool.executed", as_double(traced.pool_executed),
              "count");
  metrics.add("base.pool.stolen", as_double(traced.pool_stolen), "count");
  metrics.add("unattributed_s", totals.busy_s[layers::kService], "s");
  metrics.add("replay.requests",
              static_cast<double>(traced.lines.size()), "count");
  metrics.add("replay.boot_s", traced.boot_seconds, "s");
  metrics.add("replay.overhead_ratio",
              untimed.seconds > 0 ? traced.seconds / untimed.seconds - 1.0
                                  : 0.0,
              "ratio");

  const long long failed =
      traced.failed + static_cast<long long>(problems.size());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %lld, "
              "\"metrics\": {%s}, \"info\": {\"faithfulness_checked\": %zu, "
              "\"untimed_failed\": %lld}}\n",
              failed == 0 && untimed.failed == 0 ? "true" : "false",
              traced.lines.size(), failed, metrics.str().c_str(),
              traced.reports.size(), untimed.failed);
  return 0;
}
