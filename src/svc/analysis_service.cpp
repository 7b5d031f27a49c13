#include "svc/analysis_service.hpp"

#include <chrono>
#include <string_view>
#include <utility>

#include "base/error.hpp"
#include "benchdata/benchmarks.hpp"
#include "core/artifact_codec.hpp"
#include "sg/state_graph.hpp"
#include "stg/astg.hpp"
#include "svc/footprint.hpp"

namespace sitime::svc {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Wire error class of a flow failure. CancelledError maps to the two
/// cancellation codes; everything else (parse errors excepted — those are
/// classified at the call site) is an analysis error, injected faults
/// included.
const char* error_code_of(const std::exception& exception) {
  if (const auto* cancelled =
          dynamic_cast<const base::CancelledError*>(&exception))
    return cancelled->deadline_exceeded() ? "deadline_exceeded"
                                          : "cancelled";
  return "analysis_error";
}

/// FNV-1a 64 over the canonical content, rendered as 16 hex digits — the
/// public content-address. The cache map itself is keyed on the full
/// canonical string, so hash collisions cannot alias two designs.
std::string fnv1a_hex(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  char out[17];
  static const char digits[] = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    out[i] = digits[hash & 0xf];
    hash >>= 4;
  }
  out[16] = '\0';
  return out;
}

/// The deleter of a shared decomposition: holds the decomposition it
/// shares and counts it live until the last entry or in-flight run holding
/// it lets go, so stats() never walks the intern map.
struct LiveCount {
  std::atomic<int>* live;  // AnalysisService::live_decompositions_
  std::shared_ptr<const core::FlowDecomposition> built;

  void operator()(const core::FlowDecomposition*) {
    built.reset();
    live->fetch_sub(1, std::memory_order_relaxed);
  }
};

}  // namespace

/// The parsed design plus its canonical identity, built for every request
/// the exact-bytes index does not match (a first sight of these bytes, a
/// byte-variant of a resident design, a store-loaded design, or a cache
/// budget of 0). The creator of a new entry donates the parsed STG and
/// circuit to it; otherwise only the key is used and the rest is dropped.
/// Keying never synthesizes: a design without an explicit netlist is keyed
/// by its canonical STG plus a "synthesized" marker, because the
/// synthesized circuit is a pure function of the STG.
struct AnalysisService::Parsed {
  std::unique_ptr<stg::Stg> stg;  // heap: Circuit/MgStg point into it
  std::unique_ptr<circuit::Circuit> circuit;  // null until synthesized
  std::string canonical;  // exact cache key (content + options)
  std::string key_hex;    // public content-address
  /// The canonical STG text alone — the key decompositions are shared
  /// under, a strict prefix component of `canonical` (a netlist-only edit
  /// changes `canonical` but not this).
  std::string stg_canonical;
};

/// The canonical path: parses the STG and netlist (computing every gate's
/// down-cover) and renders them back out as the cache key. analyze() polls
/// FaultPoint::parse before calling it, on both paths.
AnalysisService::Parsed AnalysisService::parse_request(
    const AnalysisRequest& request, const core::ExpandOptions& expand) {
  Parsed parsed;
  parsed.stg = std::make_unique<stg::Stg>(stg::parse_astg(request.astg));
  if (!request.eqn.empty())
    parsed.circuit = std::make_unique<circuit::Circuit>(
        circuit::Circuit::from_equations(&parsed.stg->signals, request.eqn));

  // Canonical content: the *parsed* STG and netlist rendered back out (so
  // whitespace, comments and equation formatting cannot split one design
  // into several keys), plus every option that can change the answer.
  // Worker counts are excluded by design (the orchestrator guarantees
  // byte-identical output for any jobs value) — and so is the request
  // MODE: the mode selects which phases of the one entry must be complete,
  // it does not change any artifact.
  parsed.stg_canonical = stg::write_astg(*parsed.stg);
  const std::string eqn = parsed.circuit != nullptr
                              ? parsed.circuit->to_eqn()
                              : std::string("(synthesized)");
  const std::string order = std::to_string(static_cast<int>(expand.order));
  const std::string max_steps = std::to_string(expand.max_steps);
  const std::string max_depth = std::to_string(expand.max_depth);
  // Sized from its parts, not from the request text: the entry keeps this
  // string and is charged its capacity, so comments or whitespace in the
  // request must leave no slack in it.
  const std::string_view parts[] = {
      "astg\x1f", parsed.stg_canonical, "\x1f""eqn\x1f", eqn,
      "\x1f""order\x1f", order, "\x1f""max_steps\x1f", max_steps,
      "\x1f""max_depth\x1f", max_depth};
  std::size_t size = 0;
  for (const std::string_view part : parts) size += part.size();
  std::string canonical;
  canonical.reserve(size);
  for (const std::string_view part : parts) canonical += part;
  parsed.key_hex = fnv1a_hex(canonical);
  parsed.canonical = std::move(canonical);
  return parsed;
}

std::string AnalysisService::exact_key(const AnalysisRequest& request) {
  // The length prefix ends where the STG text starts, so ("ab", "c") and
  // ("a", "bc") cannot alias; the expand options are the service's own
  // and need no place in the key.
  const std::string length = std::to_string(request.astg.size());
  std::string key;
  key.reserve(length.size() + 1 + request.astg.size() + request.eqn.size());
  key += length;
  key += ':';
  key += request.astg;
  key += request.eqn;
  return key;
}

/// One resident design: the staged PhaseArtifacts plus the report and its
/// wire form, advanced in place by lazy phase upgrades.
///
/// Concurrency protocol (all fields below the mutex are guarded by it):
///   - `completed` is the highest finished phase; `target` is the goal of
///     the active runner. target == completed means the entry is idle.
///   - A request that finds the entry idle and unsatisfying claims the run
///     by raising `target` and becomes the single runner; it computes each
///     phase WITHOUT the lock (it alone touches `artifacts` while
///     target > completed) and publishes under the lock, notifying after
///     every phase so a verify waiter wakes as soon as the verdict exists
///     even while the same run continues into derive.
///   - A request that finds a runner active waits on `cv` for the phases
///     it shares with the run and claims whatever the run leaves missing
///     afterwards. analyze() refuses callers inside a pool task up front,
///     so no waiter can block on a run beneath its own stack.
///   - A failed run parks the entry at its last completed phase
///     (target = completed), records `run_error` for the current waiters,
///     and keeps the phases that did succeed; failures are never cached.
struct AnalysisService::Entry {
  std::string canonical;  // immutable; cache map key (owned for eviction)
  std::string key_hex;    // immutable
  std::string stg_canonical;  // immutable; shared-decomposition key
  /// The request carried a netlist (vs. synthesizing from the STG). Only
  /// persisted (PersistedArtifact::explicit_netlist). Immutable.
  bool explicit_netlist = false;
  /// Bytes of the exact-bytes index slot the creator registered (0 for
  /// none): the index holds the only copy of the request text. Set under
  /// AnalysisService::mutex_ before another thread can reach the entry;
  /// immutable.
  std::size_t exact_bytes = 0;

  std::mutex mutex;
  std::condition_variable cv;
  core::Phase completed = core::Phase::parsed;
  core::Phase target = core::Phase::parsed;
  std::string run_error;  // failure of the active run, for its waiters
  std::string run_error_code;  // wire class of run_error ("cancelled", ...)

  core::PhaseArtifacts artifacts;
  std::shared_ptr<const std::string> netlist_eqn;   // set at decomposed
  std::shared_ptr<const core::FlowReport> report;   // set at derived (SI)
  std::shared_ptr<const std::string> canonical_json;  // set with report

  /// A persistent-store spill was already attempted for this entry (set
  /// true on loaded entries too — they came FROM the store). Guarded by
  /// this->mutex. "Attempted", not "succeeded": a failed write is not
  /// retried — persistence is best-effort and a flaky disk must not turn
  /// every request into an I/O storm.
  bool spill_attempted = false;

  /// True when a request needing `phase` can be answered: the phase
  /// completed, or the design is already known not speed independent (the
  /// derive phase has nothing to add to the verdict).
  bool satisfies(core::Phase phase) const {
    if (completed >= phase) return true;
    return phase == core::Phase::derived &&
           completed >= core::Phase::verified &&
           !artifacts.verify_offender.empty();
  }

  /// Resident footprint of everything the entry currently holds. Called
  /// with `mutex` held (or by the sole runner before publishing).
  std::size_t footprint_bytes() const {
    // The canonical string is charged twice: the design tier's index
    // holds a second copy, plus the map/list node overheads (the list
    // node's value pointer, links and byte charge).
    std::size_t total = sizeof(Entry) + 2 * heap_bytes(canonical) +
                        heap_bytes(key_hex) + heap_bytes(stg_canonical) +
                        2 * kHashNodeBytes + sizeof(std::shared_ptr<Entry>) +
                        2 * sizeof(void*) + sizeof(std::size_t) +
                        exact_bytes;
    if (artifacts.stg != nullptr) total += footprint(*artifacts.stg);
    if (artifacts.circuit != nullptr) total += footprint(*artifacts.circuit);
    // The full decomposition, its memoized local STGs and job outcomes
    // included, even when other entries share it, plus the control block
    // and deleter that share it. Entries loaded from the store hold none.
    if (artifacts.decomposition != nullptr)
      total += sizeof(core::FlowDecomposition) + 2 * kControlBlockBytes +
               sizeof(LiveCount) + footprint(*artifacts.decomposition);
    total += heap_bytes(artifacts.verify_offender);
    if (artifacts.has_result)
      total += footprint(artifacts.result.before) +
               footprint(artifacts.result.after);
    if (netlist_eqn != nullptr)
      total += sizeof(std::string) + heap_bytes(*netlist_eqn);
    if (canonical_json != nullptr)
      total += sizeof(std::string) + heap_bytes(*canonical_json);
    if (report != nullptr) total += footprint(*report);
    return total;
  }
};

AnalysisService::AnalysisService(ServiceOptions options)
    : options_(std::move(options)), designs_(options_.cache_budget_bytes) {
  // A store that failed to open stays constructed (ok() false) for the
  // boot diagnostics; it never loads and never saves.
  if (!options_.cache_dir.empty())
    disk_store_ = std::make_unique<DiskStore>(options_.cache_dir);
  register_metrics();
  // The verify and derive phases get every local SG from sg_cache_
  // (flow_options().sg_cache), and each miss build observes the
  // build-latency histogram once. Set before the cache is shared.
  sg_cache_.set_build_seconds(sg_build_seconds_);
}

AnalysisService::~AnalysisService() = default;

void AnalysisService::register_metrics() {
  // Scrape-time callbacks read state another object owns. Owner tag
  // `this`: the registry is a member, so everything these read outlives
  // every render.
  auto cb = [this](const char* name, const char* help, const char* type,
                   std::function<double()> read) {
    metrics_.callback(this, name, help, type, "", std::move(read));
  };
  const char* kRequests = "sitime_design_cache_requests_total";
  const char* kRequestsHelp =
      "Requests by design-cache outcome: hit (every needed phase "
      "resident), miss (fresh run), upgrade (only missing phases run), "
      "coalesced (waited on another request's run).";
  hits_ = &metrics_.counter(kRequests, kRequestsHelp, "outcome=\"hit\"");
  misses_ = &metrics_.counter(kRequests, kRequestsHelp, "outcome=\"miss\"");
  upgrades_ =
      &metrics_.counter(kRequests, kRequestsHelp, "outcome=\"upgrade\"");
  coalesced_ =
      &metrics_.counter(kRequests, kRequestsHelp, "outcome=\"coalesced\"");
  exact_hits_ = &metrics_.counter(
      "sitime_exact_request_hits_total",
      "Requests matched to a resident or in-flight design by their exact "
      "bytes; no parse.");
  cb("sitime_design_cache_evictions_total",
     "Design-cache entries dropped by the byte budget.", "counter",
     [this] { return static_cast<double>(designs_.stats().evictions); });
  cb("sitime_design_cache_entries", "Resident design-cache entries.",
     "gauge",
     [this] { return static_cast<double>(designs_.stats().entries); });
  cb("sitime_design_cache_bytes",
     "Estimated resident footprint of the design cache.", "gauge",
     [this] { return static_cast<double>(designs_.bytes()); });
  failures_ = &metrics_.counter(
      "sitime_request_failures_total",
      "Requests that ended in an error (every error_code).");
  deadline_exceeded_ = &metrics_.counter(
      "sitime_deadline_exceeded_total",
      "Requests answered with error_code deadline_exceeded.");
  const char* kPhaseRuns = "sitime_phase_runs_total";
  const char* kPhaseRunsHelp =
      "Phase executions (derive counts runs that produced constraints).";
  decompose_runs_ =
      &metrics_.counter(kPhaseRuns, kPhaseRunsHelp, "phase=\"decompose\"");
  verify_runs_ =
      &metrics_.counter(kPhaseRuns, kPhaseRunsHelp, "phase=\"verify\"");
  derive_runs_ =
      &metrics_.counter(kPhaseRuns, kPhaseRunsHelp, "phase=\"derive\"");
  expand_steps_ = &metrics_.counter(
      "sitime_expand_steps_total",
      "Expand relaxation steps summed over all derive runs.");
  expand_subtasks_ = &metrics_.counter(
      "sitime_expand_subtasks_total",
      "OR-causality subSTG subtasks spawned by derive runs.");

  const char* kPhaseSeconds = "sitime_phase_seconds";
  const char* kPhaseSecondsHelp =
      "Per-phase latency; source=cold ran from the parsed design, "
      "source=upgrade advanced a resident cache entry.";
  static const char* const kPhaseLabel[4] = {"parse", "decompose", "verify",
                                             "derive"};
  for (int phase = 0; phase < 4; ++phase) {
    for (int source = 0; source < 2; ++source) {
      if (phase == 0 && source == 1) continue;  // parse never upgrades
      phase_seconds_[phase][source] = &metrics_.histogram(
          kPhaseSeconds, kPhaseSecondsHelp,
          base::MetricHistogram::default_latency_bounds(),
          std::string("phase=\"") + kPhaseLabel[phase] + "\",source=\"" +
              (source == 0 ? "cold" : "upgrade") + "\"");
    }
  }

  sg_build_seconds_ = &metrics_.histogram(
      "sitime_sg_build_seconds", "Local state-graph build latency.",
      base::MetricHistogram::default_latency_bounds());

  cancelled_subtasks_ = &metrics_.counter(
      "sitime_cancelled_subtasks_total",
      "OR-causality subtasks that observed a cancel and unwound early.");
  cb("sitime_cache_budget_bytes",
     "Byte budget of the design cache (shared decompositions are charged "
     "to the designs that hold them).",
     "gauge",
     [this] { return static_cast<double>(options_.cache_budget_bytes); });
  cb("sitime_sg_cache_hits_total", "Cross-request state-graph cache hits.",
     "counter", [this] { return static_cast<double>(sg_cache_.hits()); });
  cb("sitime_sg_cache_misses_total",
     "Cross-request state-graph cache misses.", "counter",
     [this] { return static_cast<double>(sg_cache_.misses()); });
  cb("sitime_sg_cache_entries", "Memoized state graphs resident.", "gauge",
     [this] { return static_cast<double>(sg_cache_.entries()); });
  local_stg_hits_ = &metrics_.counter(
      "sitime_local_stg_memo_hits_total",
      "Verify and derive jobs whose local STG the decomposition had "
      "already projected.");
  local_stg_misses_ = &metrics_.counter(
      "sitime_local_stg_memo_misses_total",
      "Verify and derive jobs that projected their local STG (Algorithm 1).");
  const char* kOutcomeHits = "sitime_job_outcome_memo_hits_total";
  const char* kOutcomeHitsHelp =
      "Verify and derive jobs whose outcome the decomposition had already "
      "computed for the same gate covers (and expand options).";
  const char* kOutcomeMisses = "sitime_job_outcome_memo_misses_total";
  const char* kOutcomeMissesHelp =
      "Verify and derive jobs that computed their outcome (local SG check "
      "or Expand run).";
  verify_outcome_hits_ =
      &metrics_.counter(kOutcomeHits, kOutcomeHitsHelp, "phase=\"verify\"");
  derive_outcome_hits_ =
      &metrics_.counter(kOutcomeHits, kOutcomeHitsHelp, "phase=\"derive\"");
  verify_outcome_misses_ = &metrics_.counter(kOutcomeMisses,
                                             kOutcomeMissesHelp,
                                             "phase=\"verify\"");
  derive_outcome_misses_ = &metrics_.counter(kOutcomeMisses,
                                             kOutcomeMissesHelp,
                                             "phase=\"derive\"");
  decomp_hits_ = &metrics_.counter(
      "sitime_decomp_cache_hits_total",
      "Decompose phases served by a shared decomposition of the same STG "
      "(a hit with a netlist skips the global-SG rebuild).");
  decomp_misses_ = &metrics_.counter(
      "sitime_decomp_cache_misses_total",
      "Decompose phases that found no shared decomposition to reuse.");
  cb("sitime_decomp_cache_entries",
     "Live shared decompositions (held by design entries or in-flight "
     "runs).",
     "gauge", [this] {
       return static_cast<double>(
           live_decompositions_.load(std::memory_order_relaxed));
     });

  // Persistent-store counters: registered unconditionally (zero without
  // --cache-dir) so dashboards and the metrics_check catalog see a
  // stable family set regardless of deployment flags.
  disk_writes_ = &metrics_.counter(
      "sitime_disk_store_writes_total",
      "Design entries spilled to the persistent store (--cache-dir).");
  disk_write_errors_ = &metrics_.counter(
      "sitime_disk_store_write_errors_total",
      "Persistent-store spills dropped by an I/O failure (the in-memory "
      "entry and the response are unaffected).");
  disk_loads_ = &metrics_.counter(
      "sitime_disk_store_loads_total",
      "Design entries warm-started from the persistent store at boot.");
  disk_load_skips_ = &metrics_.counter(
      "sitime_disk_store_load_skips_total",
      "Store files rejected at boot for a stale format version or a "
      "content-address mismatch (deleted; the design runs cold).");
  disk_load_corrupt_ = &metrics_.counter(
      "sitime_disk_store_load_corrupt_total",
      "Store files rejected at boot as unreadable, truncated or "
      "bit-flipped (deleted; the design runs cold).");

  // Pool utilization: the pool the request job graphs are admitted onto.
  auto pool = [this]() -> base::ThreadPool& {
    return options_.pool != nullptr ? *options_.pool
                                    : base::ThreadPool::shared();
  };
  cb("sitime_pool_workers", "Worker threads of the analysis pool.",
     "gauge",
     [pool] { return static_cast<double>(pool().worker_count()); });
  cb("sitime_pool_active_workers",
     "Threads currently inside an analysis pool task.", "gauge",
     [pool] { return static_cast<double>(pool().active_workers()); });
  cb("sitime_pool_tasks_total", "Tasks the analysis pool has executed.",
     "counter",
     [pool] { return static_cast<double>(pool().tasks_executed()); });
  cb("sitime_pool_steals_total",
     "Tasks taken from another thread's deque (work stealing + "
     "help-while-wait).",
     "counter",
     [pool] { return static_cast<double>(pool().tasks_stolen()); });
}

core::FlowOptions AnalysisService::flow_options(
    int request_jobs, const core::CancelToken& cancel) {
  core::FlowOptions options;
  options.expand = options_.expand;
  options.expand.cancelled_subtasks = cancelled_subtasks_;
  options.jobs = request_jobs > 0 ? request_jobs : options_.jobs;
  options.pool = options_.pool;
  options.sg_cache = &sg_cache_;
  options.cancel = cancel;
  options.local_stg_hits = local_stg_hits_;
  options.local_stg_misses = local_stg_misses_;
  options.verify_outcome_hits = verify_outcome_hits_;
  options.verify_outcome_misses = verify_outcome_misses_;
  options.derive_outcome_hits = derive_outcome_hits_;
  options.derive_outcome_misses = derive_outcome_misses_;
  return options;
}

AnalysisService::ReportForms AnalysisService::report_forms(
    core::FlowReport report) {
  ReportForms forms;
  forms.canonical_json =
      std::make_shared<const std::string>(core::to_canonical_json(report));
  forms.report = std::make_shared<const core::FlowReport>(std::move(report));
  return forms;
}

std::shared_ptr<const std::string> AnalysisService::decompose_shared(
    Entry& entry, const core::CancelToken& cancel, RunStats& run) {
  core::PhaseArtifacts& artifacts = entry.artifacts;
  const bool caching = options_.cache_budget_bytes > 0;
  std::shared_ptr<const core::FlowDecomposition> shared =
      caching ? find_decomposition(entry.stg_canonical) : nullptr;
  if (shared == nullptr) {
    core::run_decompose_phase(artifacts, cancel);
    ++run.decomposes;
    if (caching)
      artifacts.decomposition = publish_decomposition(
          entry.stg_canonical, std::move(artifacts.decomposition));
  } else {
    // The phase still executes (cheaply): it polls the same fault and
    // cancel points as a cold decompose, so injected decompose faults and
    // deadlines behave identically warm. Only a netlist-free entry builds
    // the global SG, to synthesize its circuit.
    const auto start = std::chrono::steady_clock::now();
    if (base::fault_fires(base::FaultPoint::decompose))
      base::injected_failure(base::FaultPoint::decompose);
    cancel.poll("decompose phase");
    if (artifacts.circuit == nullptr)
      artifacts.circuit = core::synthesize_circuit(
          *artifacts.stg,
          sg::build_global_sg(*artifacts.stg, sg::kDefaultGlobalSgStateLimit,
                              cancel));
    artifacts.decomposition = std::move(shared);
    artifacts.decompose_seconds = seconds_since(start);
    artifacts.completed = core::Phase::decomposed;
    run.decomp_hit = true;
  }
  run.decompose_seconds = artifacts.decompose_seconds;
  return std::make_shared<const std::string>(artifacts.circuit->to_eqn());
}

std::shared_ptr<const core::FlowDecomposition>
AnalysisService::find_decomposition(const std::string& stg_canonical) {
  std::shared_ptr<const core::FlowDecomposition> shared;
  {
    std::lock_guard<std::mutex> lock(decompositions_mutex_);
    const auto found = decompositions_.find(stg_canonical);
    if (found != decompositions_.end()) shared = found->second.lock();
  }
  (shared != nullptr ? decomp_hits_ : decomp_misses_)->inc();
  return shared;
}

std::shared_ptr<const core::FlowDecomposition>
AnalysisService::publish_decomposition(
    const std::string& stg_canonical,
    std::shared_ptr<const core::FlowDecomposition> built) {
  std::lock_guard<std::mutex> lock(decompositions_mutex_);
  if (!decompositions_.contains(stg_canonical) &&
      decompositions_.size() >=
          2 * static_cast<std::size_t>(
                  live_decompositions_.load(std::memory_order_relaxed))) {
    // Amortized: after a prune at most the live slots remain, so at least
    // as many inserts pass before the next one.
    std::erase_if(decompositions_,
                  [](const auto& slot) { return slot.second.expired(); });
  }
  const core::FlowDecomposition* decomposition = built.get();
  live_decompositions_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const core::FlowDecomposition> shared(
      decomposition, LiveCount{&live_decompositions_, std::move(built)});
  decompositions_.insert_or_assign(stg_canonical, shared);
  return shared;
}

std::shared_ptr<AnalysisService::Entry> AnalysisService::find_exact(
    const std::string& exact) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto slot = exact_.find(exact);
  if (slot == exact_.end()) return nullptr;
  std::shared_ptr<Entry> entry = slot->second.lock();
  if (entry == nullptr) return nullptr;
  // Serve only the entry the canonical path would find now: an evicted
  // entry that a request still holds, or one a newer entry of the same
  // design replaced, sends the request down the canonical path. The
  // lookup refreshes LRU order exactly as the canonical path's does.
  const std::shared_ptr<Entry> resident = designs_.lookup(entry->canonical);
  if (resident != nullptr) {
    if (resident != entry) return nullptr;
  } else {
    const auto in_flight = inflight_.find(entry->canonical);
    if (in_flight == inflight_.end() || in_flight->second != entry)
      return nullptr;
  }
  exact_hits_->inc();
  return entry;
}

void AnalysisService::register_exact_locked(
    std::string exact, const std::shared_ptr<Entry>& entry) {
  // Amortized, as publish_decomposition prunes: an entry dies soon after
  // it leaves designs_ and inflight_, so after a prune about that many
  // slots remain and at least as many inserts pass before the next one.
  const std::size_t live =
      static_cast<std::size_t>(designs_.stats().entries) + inflight_.size();
  if (!exact_.contains(exact) && exact_.size() >= 2 * live)
    std::erase_if(exact_,
                  [](const auto& slot) { return slot.second.expired(); });
  const auto slot = exact_.insert_or_assign(std::move(exact), entry).first;
  entry->exact_bytes = sizeof(std::string) + heap_bytes(slot->first) +
                       sizeof(std::weak_ptr<Entry>) + kHashNodeBytes;
}

bool AnalysisService::run_phases(const std::shared_ptr<Entry>& entry,
                                 int jobs, const core::CancelToken& cancel,
                                 std::string& error,
                                 std::string& error_code, RunStats& run,
                                 core::Phase& achieved,
                                 std::size_t& footprint) {
  const core::FlowOptions options = flow_options(jobs, cancel);
  while (true) {
    core::Phase next;
    {
      // Runner invariant: target > completed from the claim until the
      // publish below observes the goal reached and returns INSIDE its
      // critical section — the moment that lock releases with
      // target == completed, another thread may claim a new run, so this
      // loop must never take another look after that. target is fixed
      // for the duration of the run (waiters never extend it).
      std::lock_guard<std::mutex> lock(entry->mutex);
      next = static_cast<core::Phase>(static_cast<int>(entry->completed) +
                                      1);
    }
    // Compute without the lock: while target > completed this thread is
    // the only one touching `artifacts`.
    std::shared_ptr<const std::string> netlist;
    ReportForms forms;
    try {
      switch (next) {
        case core::Phase::decomposed:
          netlist = decompose_shared(*entry, options.cancel, run);
          break;
        case core::Phase::verified:
          core::run_verify_phase(entry->artifacts, options);
          ++run.verifies;
          run.verify_seconds = entry->artifacts.verify_seconds;
          break;
        case core::Phase::derived: {
          core::PhaseArtifacts& artifacts = entry->artifacts;
          core::run_derive_phase(artifacts, options);
          run.derive_ran = true;
          run.derive_seconds = artifacts.derive_seconds;
          if (!artifacts.has_result) break;  // not SI: nothing to render
          ++run.derives;
          const core::FlowResult& result = artifacts.result;
          run.expand_seconds = result.expand_seconds;
          run.expand_steps = result.expand_steps;
          run.expand_subtasks = result.expand_subtasks;
          run.expand_jobs = result.jobs;
          core::FlowReport report = core::make_flow_report(
              /*design=*/"", result, artifacts.stg->signals);
          report.content_hash = entry->key_hex;
          forms = report_forms(std::move(report));
          break;
        }
        case core::Phase::parsed:
          break;  // unreachable: parsed is never a *next* phase
      }
    } catch (const std::exception& exception) {
      error = exception.what();
      error_code = error_code_of(exception);
      std::lock_guard<std::mutex> lock(entry->mutex);
      // The legacy check_hazard contract reports the synthesized netlist
      // even when decomposition then failed.
      if (entry->netlist_eqn == nullptr &&
          entry->artifacts.circuit != nullptr)
        entry->netlist_eqn = std::make_shared<const std::string>(
            entry->artifacts.circuit->to_eqn());
      entry->run_error = error;
      entry->run_error_code = error_code;
      entry->target = entry->completed;  // park; keep finished phases
      // Still the last thread that touched the artifacts: capture the
      // retention data before the lock goes and a new runner can claim.
      achieved = entry->completed;
      footprint = entry->footprint_bytes();
      entry->cv.notify_all();
      return false;
    }
    {
      std::lock_guard<std::mutex> lock(entry->mutex);
      if (netlist != nullptr) entry->netlist_eqn = std::move(netlist);
      if (forms.report != nullptr) {
        entry->report = std::move(forms.report);
        entry->canonical_json = std::move(forms.canonical_json);
      }
      entry->completed = next;
      const bool done = entry->completed >= entry->target;
      if (done) {
        // The goal (possibly raised meanwhile) is reached and runnership
        // ends when this lock releases — last safe moment to size the
        // artifacts.
        achieved = entry->completed;
        footprint = entry->footprint_bytes();
      }
      entry->cv.notify_all();
      if (done) return true;
    }
  }
}

void AnalysisService::finish_run(const std::shared_ptr<Entry>& entry,
                                 bool from_scratch, bool ok,
                                 core::Phase achieved,
                                 std::size_t footprint_now,
                                 const RunStats& run) {
  std::lock_guard<std::mutex> lock(mutex_);
  decompose_runs_->inc(run.decomposes);
  verify_runs_->inc(run.verifies);
  derive_runs_->inc(run.derives);
  if (ok)
    (from_scratch ? misses_ : upgrades_)->inc();
  else
    failures_->inc();

  // A successor runner may have claimed the entry between our run ending
  // and this epilogue: if the entry has already advanced past what we
  // achieved, our footprint is stale — return and leave retention (and
  // the inflight slot, when we were the creator) to the successor's own
  // finish_run, which carries the newer footprint. The last finisher
  // always observes completed == achieved, so exactly one epilogue
  // retains.
  {
    std::lock_guard<std::mutex> elock(entry->mutex);
    if (entry->completed != achieved) return;
  }

  const auto inflight = inflight_.find(entry->canonical);
  const bool mine_inflight =
      inflight != inflight_.end() && inflight->second == entry;
  if (mine_inflight) inflight_.erase(inflight);

  // Resident upgrade (or failed upgrade attempt): re-charge the grown
  // entry; the design tier drops it when it alone no longer fits.
  if (designs_.recharge(entry->canonical, entry.get(), footprint_now))
    return;
  // First retention of a fresh entry. Even a failed run keeps the phases
  // that did succeed (a derive that threw leaves a decomposed + verified
  // entry the next request upgrades from); an entry with nothing but the
  // parse is not worth a slot. An entry larger than the whole budget is
  // served but never retained.
  if (!mine_inflight) return;  // superseded or budget-0 duplicate
  // Injected cache_insert fault: serve the response but skip retention —
  // the entry vanishes as if evicted the instant it finished, exercising
  // the eviction-during-single-flight path without touching correctness
  // (retention is always optional).
  if (base::fault_fires(base::FaultPoint::cache_insert)) return;
  if (achieved == core::Phase::parsed) return;
  designs_.insert(entry->canonical, entry, footprint_now);
}

void AnalysisService::maybe_spill(const std::shared_ptr<Entry>& entry) {
  if (disk_store_ == nullptr || !disk_store_->ok()) return;
  core::PersistedArtifact artifact;
  {
    std::lock_guard<std::mutex> lock(entry->mutex);
    if (entry->spill_attempted) return;
    // Only idle, TERMINAL entries are spilled: an entry that satisfies
    // Phase::derived answers both request modes as a pure hit forever,
    // so the load path never has to advance it — which is exactly what
    // lets the codec skip the FlowDecomposition (graphs pointing into
    // the signal table) and still guarantee zero decompose re-runs for
    // every design served from disk. A verify-only SI entry simply is
    // not persisted; after a restart that design runs cold.
    if (entry->target != entry->completed) return;
    if (!entry->satisfies(core::Phase::derived)) return;
    if (entry->netlist_eqn == nullptr) return;
    entry->spill_attempted = true;
    artifact.canonical = entry->canonical;
    artifact.key_hex = entry->key_hex;
    artifact.stg_canonical = entry->stg_canonical;
    artifact.netlist_eqn = *entry->netlist_eqn;
    artifact.explicit_netlist = entry->explicit_netlist;
    artifact.completed = entry->completed;
    artifact.verify_offender = entry->artifacts.verify_offender;
    if (entry->report != nullptr) {
      // Only the report: the load path re-renders its canonical JSON.
      artifact.has_report = true;
      artifact.report = *entry->report;
    }
  }
  // Encode and write outside every lock: disk latency must not stall
  // requests coalescing on the entry or the cache indexes.
  if (disk_store_->save(artifact.key_hex, core::encode_artifact(artifact)))
    disk_writes_->inc();
  else
    disk_write_errors_->inc();
}

void AnalysisService::record_run_metrics(const RunStats& run, bool cold) {
  const int source = cold ? 0 : 1;
  if (run.decomposes > 0)
    phase_seconds_[1][source]->observe(run.decompose_seconds);
  if (run.verifies > 0)
    phase_seconds_[2][source]->observe(run.verify_seconds);
  if (run.derive_ran)
    phase_seconds_[3][source]->observe(run.derive_seconds);
  if (run.derives > 0) {
    expand_steps_->inc(run.expand_steps);
    expand_subtasks_->inc(run.expand_subtasks);
  }
}

void AnalysisService::append_run_spans(const RunStats& run, bool cold,
                                       double at_seconds,
                                       std::vector<TraceSpan>& spans) {
  const char* source = cold ? "cold" : "upgrade";
  double at = at_seconds;
  if (run.decomposes > 0 || run.decomp_hit) {
    // A shared decomposition still emits the decompose span (the phase is
    // in phases_run) but carries its own provenance instead of
    // masquerading as a cold decompose.
    spans.push_back({"decompose", at, run.decompose_seconds,
                     run.decomp_hit ? "cache=decomp" : source, ""});
    at += run.decompose_seconds;
  }
  if (run.verifies > 0) {
    spans.push_back({"verify", at, run.verify_seconds, source, ""});
    at += run.verify_seconds;
  }
  if (run.derive_ran) {
    spans.push_back({"derive", at, run.derive_seconds, source, ""});
    if (run.derives > 0)
      spans.push_back({"expand", at, run.expand_seconds,
                       "jobs=" + std::to_string(run.expand_jobs) +
                           " steps=" + std::to_string(run.expand_steps) +
                           " subtasks=" +
                           std::to_string(run.expand_subtasks),
                       "derive"});
  }
}

void AnalysisService::respond_from_locked(const Entry& entry,
                                          RequestMode mode,
                                          const char* cache_state,
                                          AnalysisResponse& out) const {
  out.ok = true;
  out.key = entry.key_hex;
  out.cache_state = cache_state;
  out.cache_hit = cache_state[0] == 'h' || cache_state[0] == 'c';
  out.verify_offender = entry.artifacts.verify_offender;
  out.speed_independent = out.verify_offender.empty();
  out.netlist_eqn = entry.netlist_eqn;
  if (mode == RequestMode::derive) {
    out.report = entry.report;
    out.canonical_json = entry.canonical_json;
  }
}

AnalysisResponse AnalysisService::analyze(const AnalysisRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  AnalysisResponse response;

  // Fills an error response, keeping the deadline_exceeded counter in
  // step with every response that carries that code (runner or waiter
  // alike). failures_ is counted per-site: the runner path counts it in
  // finish_run, the others here.
  auto fail_with = [&](const std::string& message, const std::string& code,
                       bool count_failure) {
    if (count_failure) failures_->inc();
    if (code == "deadline_exceeded") deadline_exceeded_->inc();
    response.ok = false;
    response.error = message;
    response.error_code = code;
    response.seconds = seconds_since(start);
  };

  // A request may have to wait on another request's run of the same
  // design. Inside a pool task that run may be frames beneath this very
  // stack (work stealing + help-while-wait), and the wait would never end.
  if (base::ThreadPool::in_task()) {
    fail_with("analyze() must not be called from inside a thread-pool "
              "task; call it from a plain thread",
              "analysis_error", /*count_failure=*/true);
    return response;
  }

  // A request whose budget is already gone skips even the parse: the
  // deadline answer is known and parsing large designs is not free.
  if (request.cancel.deadline_expired()) {
    fail_with("deadline exceeded before analysis started",
              "deadline_exceeded", /*count_failure=*/true);
    return response;
  }

  // The parse stage: the exact-bytes index, else the canonical path. Both
  // poll the parse fault and observe the parse histogram and span, so
  // fault schedules, spans and stats do not depend on which one answered.
  const bool caching = options_.cache_budget_bytes > 0;
  std::string exact;  // the index key; built only when caching
  std::shared_ptr<Entry> entry;
  Parsed parsed;
  try {
    const double parse_begin = seconds_since(start);
    if (base::fault_fires(base::FaultPoint::parse))
      base::injected_failure(base::FaultPoint::parse);
    if (caching) {
      exact = exact_key(request);
      entry = find_exact(exact);
    }
    if (entry == nullptr) parsed = parse_request(request, options_.expand);
    response.key = entry != nullptr ? entry->key_hex : parsed.key_hex;
    const double parse_seconds = seconds_since(start) - parse_begin;
    phase_seconds_[0][0]->observe(parse_seconds);
    if (request.trace_spans)
      response.spans.push_back({"parse", parse_begin, parse_seconds,
                                entry != nullptr ? "exact" : "cold", ""});
  } catch (const std::exception& error) {
    // Injected parse faults are infrastructure failures, not malformed
    // designs; everything else parse_request throws is bad input.
    const bool injected =
        dynamic_cast<const FaultInjectedError*>(&error) != nullptr;
    fail_with(error.what(), injected ? "analysis_error" : "invalid_request",
              /*count_failure=*/true);
    return response;
  }

  const core::Phase needed = request.mode == RequestMode::verify
                                 ? core::Phase::verified
                                 : core::Phase::derived;

  // Find or create the ONE entry for this design — resident, in flight,
  // or brand new (the creator donates its parsed design to the entry and
  // registers its request bytes in the exact-bytes index).
  if (entry == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    entry = designs_.lookup(parsed.canonical);
    if (entry == nullptr) {
      const auto in_flight = inflight_.find(parsed.canonical);
      if (in_flight != inflight_.end()) {
        entry = in_flight->second;
      } else {
        entry = std::make_shared<Entry>();
        entry->key_hex = parsed.key_hex;
        entry->explicit_netlist = parsed.circuit != nullptr;
        entry->artifacts.stg = std::move(parsed.stg);
        entry->artifacts.circuit = std::move(parsed.circuit);
        entry->canonical = std::move(parsed.canonical);
        entry->stg_canonical = std::move(parsed.stg_canonical);
        inflight_.emplace(entry->canonical, entry);
        if (caching) register_exact_locked(std::move(exact), entry);
      }
    }
  }

  // The per-(entry, phase) machine: serve, wait, or run.
  bool waited = false;
  double wait_begin = 0.0;  // offset of the first coalesced wait
  std::unique_lock<std::mutex> elock(entry->mutex);
  while (true) {
    if (entry->satisfies(needed)) {
      respond_from_locked(*entry, request.mode,
                          waited ? "coalesced" : "hit", response);
      elock.unlock();
      (waited ? coalesced_ : hits_)->inc();
      response.seconds = seconds_since(start);
      if (request.trace_spans) {
        if (waited) {
          response.spans.push_back({"coalesced_wait", wait_begin,
                                    response.seconds - wait_begin,
                                    "coalesced", ""});
        } else {
          // The lookup span starts where the parse span ended, so
          // top-level spans stay disjoint (they must sum to <= wall).
          const double lookup_begin =
              response.spans.empty()
                  ? 0.0
                  : response.spans.back().start +
                        response.spans.back().seconds;
          response.spans.push_back({"cache", lookup_begin,
                                    response.seconds - lookup_begin, "hit",
                                    ""});
        }
      }
      return response;
    }

    if (entry->target > entry->completed) {  // a runner is active
      // Wait for the active run to end (waking at every phase publish in
      // case it already covers us); whatever it leaves missing we claim
      // ourselves on a later iteration. Deliberately NOT extending the
      // runner's goal: a verify runner must not pay for a coalescing
      // derive request's phases before it can answer its own. A
      // cancellable waiter sleeps only until its own budget fires — a
      // waiter must not outlive its deadline just because another
      // request's run does.
      if (!waited) {
        waited = true;
        wait_begin = seconds_since(start);
      }
      if (request.cancel.cancellable()) {
        entry->cv.wait_until(elock, request.cancel.wait_point());
        if (request.cancel.cancelled() && !entry->satisfies(needed)) {
          const bool deadline = request.cancel.deadline_expired();
          elock.unlock();
          fail_with(deadline ? "deadline exceeded while coalesced on an "
                               "in-flight run"
                             : "cancelled while coalesced on an in-flight "
                               "run",
                    deadline ? "deadline_exceeded" : "cancelled",
                    /*count_failure=*/true);
          return response;
        }
      } else {
        entry->cv.wait(elock);
      }
      if (!entry->satisfies(needed) && entry->target < needed &&
          !entry->run_error.empty()) {
        const std::string error = entry->run_error;
        const std::string code = entry->run_error_code.empty()
                                     ? "analysis_error"
                                     : entry->run_error_code;
        elock.unlock();
        fail_with(error, code, /*count_failure=*/true);
        return response;
      }
      continue;  // served (or a new runner took over) — re-evaluate
    }

    // Idle: claim the run and advance the entry ourselves.
    const core::Phase from = entry->completed;
    entry->target = needed;
    entry->run_error.clear();
    entry->run_error_code.clear();
    elock.unlock();

    std::string error;
    std::string error_code;
    RunStats run;
    core::Phase achieved = from;
    std::size_t footprint = 0;
    const double run_begin = seconds_since(start);
    const bool ok =
        run_phases(entry, request.jobs, request.cancel, error, error_code,
                   run, achieved, footprint);
    finish_run(entry, /*from_scratch=*/from == core::Phase::parsed, ok,
               achieved, footprint, run);
    const bool cold = from == core::Phase::parsed;
    record_run_metrics(run, cold);
    // Persist BEFORE the response returns: a client that saw this answer
    // may kill the server immediately and must still find the entry in
    // the store (the write reaches the page cache, which outlives the
    // process; after a power loss the entry may be recomputed).
    if (ok) maybe_spill(entry);
    if (request.trace_spans)
      append_run_spans(run, cold, run_begin, response.spans);
    if (!ok) {
      {
        std::lock_guard<std::mutex> lock(entry->mutex);
        response.netlist_eqn = entry->netlist_eqn;
      }
      fail_with(error, error_code, /*count_failure=*/false);
      return response;
    }
    {
      std::lock_guard<std::mutex> lock(entry->mutex);
      respond_from_locked(*entry, request.mode,
                          from == core::Phase::parsed ? "fresh" : "upgraded",
                          response);
    }
    response.phases_run = core::phase_range_text(from, achieved);
    response.seconds = seconds_since(start);
    return response;
  }
}

int AnalysisService::warm_benchmark_suite(const std::atomic<bool>* stop) {
  int loaded = 0;
  for (const auto& bench : benchdata::all_benchmarks()) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) break;
    AnalysisRequest request;
    request.name = bench.name;
    request.astg = bench.astg;
    request.eqn = bench.eqn;
    request.mode = RequestMode::derive;
    if (analyze(request).ok) ++loaded;
  }
  return loaded;
}

int AnalysisService::warm_from_disk() {
  if (disk_store_ == nullptr || !disk_store_->ok()) return 0;
  if (options_.cache_budget_bytes == 0) return 0;  // cache disabled
  int loaded = 0;
  for (const std::string& path : disk_store_->list_files()) {
    // Every rejection below deletes the file: a store file is either
    // provably whole and loadable by THIS binary, or it is dead weight
    // the next boot should not re-examine. The design it carried simply
    // runs cold — rejection is never an error.
    std::string bytes;
    if (!disk_store_->read_file(path, bytes)) {
      disk_load_corrupt_->inc();
      disk_store_->remove_file(path);
      continue;
    }
    core::PersistedArtifact artifact;
    const core::ArtifactDecodeStatus status =
        core::decode_artifact(bytes, artifact);
    if (status == core::ArtifactDecodeStatus::version_mismatch) {
      disk_load_skips_->inc();
      disk_store_->remove_file(path);
      continue;
    }
    if (status != core::ArtifactDecodeStatus::ok) {
      disk_load_corrupt_->inc();
      disk_store_->remove_file(path);
      continue;
    }
    // Cross-checks beyond the codec's own header hash: the payload's
    // content-address must match both its canonical content and the
    // file name it was stored under, and the entry must be terminal —
    // a file claiming a non-terminal phase set was not written by this
    // code and could provoke a phase run on artifacts the codec does
    // not carry.
    const bool terminal =
        artifact.has_report
            ? artifact.completed >= core::Phase::derived
            : artifact.completed >= core::Phase::verified &&
                  !artifact.verify_offender.empty();
    if (fnv1a_hex(artifact.canonical) != artifact.key_hex ||
        disk_store_->path_for(artifact.key_hex) != path || !terminal) {
      disk_load_skips_->inc();
      disk_store_->remove_file(path);
      continue;
    }
    // Re-parse the canonical STG under the CURRENT parser and demand an
    // exact round-trip: if the canonicalizer has drifted since the file
    // was written, the entry would never match a live request's key —
    // skip it instead of carrying dead weight.
    std::shared_ptr<const stg::Stg> stg;
    try {
      stg = std::make_shared<const stg::Stg>(
          stg::parse_astg(artifact.stg_canonical));
    } catch (const std::exception&) {
      disk_load_corrupt_->inc();
      disk_store_->remove_file(path);
      continue;
    }
    if (stg::write_astg(*stg) != artifact.stg_canonical) {
      disk_load_skips_->inc();
      disk_store_->remove_file(path);
      continue;
    }

    auto entry = std::make_shared<Entry>();
    entry->canonical = std::move(artifact.canonical);
    entry->key_hex = std::move(artifact.key_hex);
    entry->stg_canonical = std::move(artifact.stg_canonical);
    entry->explicit_netlist = artifact.explicit_netlist;
    entry->artifacts.stg = std::move(stg);
    entry->artifacts.completed = artifact.completed;
    entry->artifacts.verify_offender = std::move(artifact.verify_offender);
    entry->completed = artifact.completed;
    entry->target = artifact.completed;  // idle; terminal — never advanced
    entry->netlist_eqn = std::make_shared<const std::string>(
        std::move(artifact.netlist_eqn));
    if (artifact.has_report) {
      ReportForms forms = report_forms(std::move(artifact.report));
      entry->report = std::move(forms.report);
      entry->canonical_json = std::move(forms.canonical_json);
    }
    entry->spill_attempted = true;  // it came FROM the store
    const std::size_t footprint_now = entry->footprint_bytes();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // A duplicate key (warm_from_disk called twice, or a request beat
      // the boot load) keeps the resident entry and the file.
      if (designs_.contains(entry->canonical) ||
          inflight_.find(entry->canonical) != inflight_.end())
        continue;
      if (!designs_.insert(entry->canonical, entry, footprint_now)) {
        disk_load_skips_->inc();
        continue;  // served cold this generation; keep the file
      }
    }
    disk_loads_->inc();
    ++loaded;
  }
  return loaded;
}

std::size_t AnalysisService::decomposition_slots() const {
  std::lock_guard<std::mutex> lock(decompositions_mutex_);
  return decompositions_.size();
}

std::size_t AnalysisService::exact_slots() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return exact_.size();
}

CacheStats AnalysisService::stats() const {
  CacheStats stats;
  stats.hits = hits_->value();
  stats.misses = misses_->value();
  stats.upgrades = upgrades_->value();
  stats.coalesced = coalesced_->value();
  stats.failures = failures_->value();
  stats.deadline_exceeded = deadline_exceeded_->value();
  stats.cancelled_subtasks = cancelled_subtasks_->value();
  stats.decompose_runs = decompose_runs_->value();
  stats.verify_runs = verify_runs_->value();
  stats.derive_runs = derive_runs_->value();
  const CacheTierStats designs = designs_.stats();
  stats.evictions = designs.evictions;
  stats.entries = designs.entries;
  stats.bytes = designs.bytes;
  stats.budget_bytes = options_.cache_budget_bytes;
  stats.sg_cache_entries = sg_cache_.entries();
  stats.sg_cache_hits = sg_cache_.hits();
  stats.sg_cache_misses = sg_cache_.misses();
  stats.decomp_hits = decomp_hits_->value();
  stats.decomp_misses = decomp_misses_->value();
  stats.decomp_entries =
      live_decompositions_.load(std::memory_order_relaxed);
  stats.disk_writes = disk_writes_->value();
  stats.disk_write_errors = disk_write_errors_->value();
  stats.disk_loads = disk_loads_->value();
  stats.disk_load_skips = disk_load_skips_->value();
  stats.disk_load_corrupt = disk_load_corrupt_->value();
  return stats;
}

}  // namespace sitime::svc
