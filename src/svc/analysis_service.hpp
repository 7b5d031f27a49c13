// Resident analysis service: the server core behind sitime_serve and the
// check_hazard batch driver.
//
// One AnalysisService owns everything a long-running process wants to keep
// across requests:
//   - a content-addressed design cache: requests are keyed by the canonical
//     rendering of their parsed STG + netlist + the flow options that can
//     change the answer (expand policy/limits — NOT the request mode, and
//     NOT the worker count, which the orchestrator guarantees cannot change
//     any output byte). The cached value is a core::PhaseArtifacts — the
//     staged products of the flow (parsed design, FlowDecomposition, verify
//     verdict, derived constraints) together with a record of which
//     phases have completed, the structured FlowReport and its canonical
//     JSON (the bytes every wire hit sends).
//   - lazy phase upgrades: because the entry is mode-independent, a design
//     cached by a verify request answers a later derive request by running
//     ONLY the derive phase on the cached decomposition ("upgraded"), and a
//     derive entry answers verify requests for free ("hit"). Mixed
//     verify/derive traffic on one design holds one entry and runs
//     decompose_flow once.
//   - shared decompositions: the decomposition is a pure function of the
//     STG, so every design entry of one canonical STG holds the same one
//     (a netlist-only edit is a new entry that skips the global-SG
//     rebuild). An intern map keyed on the canonical STG points at each
//     live decomposition without owning it: a decomposition lives exactly
//     as long as some entry or in-flight run holds it.
//   - LRU eviction by byte budget: resident designs sit in one exact-LRU
//     svc::CacheTier of ServiceOptions::cache_budget_bytes. Each entry is
//     charged a calibrated estimate of its resident footprint (real
//     container capacities, SSO and node overheads accounted;
//     svc/footprint.hpp), including the full decomposition it holds even
//     when another entry shares it, so the budget bounds resident memory
//     from above.
//   - single-flight deduplication per (entry, phase): N concurrent
//     requests for the same design run each missing phase ONCE; a
//     concurrent verify and derive share the parse + decompose work, with
//     the laggard counted as `coalesced`, never as an extra phase run.
//   - the cross-request sg::SgCache and the shared base::ThreadPool the
//     per-request (component × gate) job graphs — and their OR-causality
//     expansion subtasks — are admitted onto.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/fault.hpp"
#include "base/metrics.hpp"
#include "base/thread_pool.hpp"
#include "circuit/circuit.hpp"
#include "core/flow.hpp"
#include "core/phase.hpp"
#include "core/report.hpp"
#include "sg/sg_cache.hpp"
#include "stg/stg.hpp"
#include "svc/cache_tier.hpp"
#include "svc/disk_store.hpp"

namespace sitime::svc {

// The deterministic fault-injection harness lives in base/ (layering:
// sg/core poll it too); the service layer is its main consumer, so the
// test-facing names are re-exported here.
using base::FaultInjectedError;
using base::FaultInjector;
using base::FaultPoint;
using base::FaultScope;

/// What the flow should compute for a request.
enum class RequestMode {
  verify,  // speed-independence verdict only
  derive,  // verify, then derive the relative timing constraints
};

/// One timed section of a request, reported in the response envelope when
/// the request asked for tracing (`trace_spans`). Spans never change any
/// analysis output — the canonical report bytes of a traced request are
/// identical to an untraced run.
struct TraceSpan {
  /// "queue_wait" (server only), "parse", "decompose", "verify",
  /// "derive", "expand", "coalesced_wait", "cache".
  std::string name;
  /// Offset in seconds from request start (the server shifts service
  /// spans behind its own queue_wait span). Phase spans are laid out
  /// back-to-back from when their run began: scheduling gaps between
  /// phases are not represented, so top-level spans always sum to <= the
  /// request wall time.
  double start = 0.0;
  double seconds = 0.0;
  /// Cache provenance or per-span context: "cold" / "upgrade" on phase
  /// spans, "cache=decomp" on a decompose span served by a shared
  /// decomposition (the phase appears in phases_run but no global-SG
  /// rebuild happened), "hit" on the cache span, "jobs=4 steps=123
  /// subtasks=5" on the expand aggregate.
  std::string detail;
  /// Name of the enclosing span ("" = top level): the per-job expansion
  /// aggregate nests in "derive".
  std::string in;
};

struct AnalysisRequest {
  std::string name;  // display name (file path, benchmark name, request id)
  std::string astg;  // implementation STG text (.g format)
  std::string eqn;   // optional restricted-EQN netlist; empty -> synthesize
  RequestMode mode = RequestMode::derive;
  /// Parallel (component × gate) jobs for a fresh run; 0 = the service
  /// default. Never part of the cache key (output is jobs-independent).
  int jobs = 0;
  /// Cooperative cancellation budget for THIS request. Polled by every hot
  /// loop the request's phase runs enter; also bounds how long the request
  /// waits on another request's in-flight run of the same design. Never
  /// part of the cache key.
  core::CancelToken cancel;
  /// Collect TraceSpans for this request (AnalysisResponse::spans). Off by
  /// default: tracing is per-request opt-in, never ambient.
  bool trace_spans = false;
};

struct AnalysisResponse {
  bool ok = false;            // false: `error` holds the failure
  std::string error;
  /// Machine-readable failure class, set exactly when ok == false:
  /// "invalid_request" (the design text failed to parse),
  /// "deadline_exceeded" (the request's deadline budget fired),
  /// "cancelled" (explicit cancel flag), "analysis_error" (the flow threw
  /// for any other reason, injected faults included).
  std::string error_code;
  std::string key;            // content-address (hex) of the design
  /// How this response was produced: "fresh" (this request ran every phase
  /// from the parsed design), "hit" (every phase it needed was already
  /// resident), "upgraded" (a resident entry was advanced by running only
  /// its missing phases — the lazy verify->derive upgrade), "coalesced"
  /// (attached to another request's in-flight phase run).
  std::string cache_state;
  bool cache_hit = false;     // hit or coalesced
  /// The phases THIS request executed, e.g. "decompose+verify+derive" for
  /// a cold derive or "derive" for a lazy upgrade; empty for hits and
  /// coalesced waits.
  std::string phases_run;
  double seconds = 0.0;       // request wall time inside the service
  /// Verify verdict: empty = speed independent; otherwise the first
  /// offending gate in stable job order.
  std::string verify_offender;
  bool speed_independent = false;
  /// Canonical netlist of the design (from the request EQN or
  /// synthesized). Filled as soon as the netlist exists, so it is present
  /// even when a later flow phase failed (ok == false); null only when
  /// parsing/synthesis itself threw or the response came off a coalesced
  /// failure. Shared with the cache entry — responses never copy it.
  std::shared_ptr<const std::string> netlist_eqn;
  /// The structured report and its deterministic canonical JSON body (the
  /// wire form); null for verify-only requests and failures. The report's
  /// content_hash is set; its provenance fields are not — callers that
  /// render it stamp this response's name, cache_state and phases_run onto
  /// a copy. Both are shared with the cache entry, so serving a hit copies
  /// two pointers, not the payload.
  std::shared_ptr<const core::FlowReport> report;
  std::shared_ptr<const std::string> canonical_json;
  /// Timed sections of this request; empty unless the request set
  /// trace_spans. Failures keep the spans of the phases that did run, so
  /// a deadline kill is self-explaining.
  std::vector<TraceSpan> spans;
};

/// Point-in-time counters of the design cache (monotonic except entries
/// and bytes, which track the current resident set).
struct CacheStats {
  long long hits = 0;        // every needed phase was already resident
  long long misses = 0;      // ran the flow from the parsed design
  long long upgrades = 0;    // ran only the missing phases of an entry
  long long coalesced = 0;   // waited on another request's phase run
  long long evictions = 0;   // entries dropped by the byte budget
  long long failures = 0;    // requests that ended in an error
  /// Requests answered with error_code == "deadline_exceeded" (a subset
  /// of failures; coalesced waiters inheriting the runner's deadline
  /// error count too — every affected response counts once).
  long long deadline_exceeded = 0;
  /// OR-causality subSTG subtasks that observed a cancel and unwound
  /// early (freed pool workers), summed over all requests.
  long long cancelled_subtasks = 0;
  // Phase executions (single-flight bypass runs included). A verify
  // followed by a derive on one design shows decompose_runs == 1: the
  // acceptance probe of the lazy-upgrade design.
  long long decompose_runs = 0;
  long long verify_runs = 0;
  long long derive_runs = 0;
  int entries = 0;           // resident designs
  std::size_t bytes = 0;     // estimated resident footprint
  std::size_t budget_bytes = 0;
  int sg_cache_entries = 0;  // cross-request state-graph cache
  long long sg_cache_hits = 0;
  long long sg_cache_misses = 0;
  // Shared decompositions. hits/misses count decompose-phase lookups by
  // canonical STG; entries counts the live shared decompositions (their
  // bytes are charged to the design entries that hold them).
  long long decomp_hits = 0;
  long long decomp_misses = 0;
  int decomp_entries = 0;
  // Retired decomposition-tier counters: always 0, kept for the same
  // reason as the gate_* keys below.
  long long decomp_evictions = 0;
  std::size_t decomp_bytes = 0;
  // Retired gate-slice counters: always 0. They stay in {"stats": true}
  // (same keys, same order) because existing clients read them.
  long long gate_hits = 0;
  long long gate_misses = 0;
  long long gate_evictions = 0;
  int gate_entries = 0;
  std::size_t gate_bytes = 0;
  // Persistent disk store (svc::DiskStore; --cache-dir). All zero when
  // persistence is off. writes/write_errors count spills; loads counts
  // entries warm-started at boot; load_skips counts files rejected for a
  // stale format version or a content-address mismatch; load_corrupt
  // counts files rejected as unreadable/truncated/bit-flipped. Skipped
  // and corrupt files are deleted — the affected designs run cold.
  long long disk_writes = 0;
  long long disk_write_errors = 0;
  long long disk_loads = 0;
  long long disk_load_skips = 0;
  long long disk_load_corrupt = 0;
};

struct ServiceOptions {
  /// Byte budget of the design cache. An entry larger than the whole
  /// budget is still served but not retained. 0 = caching disabled (every
  /// request is a fresh run and no decomposition is shared; single-flight
  /// still applies while the run is in flight). The cross-request
  /// sg::SgCache is bounded separately (see sg/sg_cache.hpp).
  std::size_t cache_budget_bytes = 256u << 20;
  /// Default per-request (component × gate) parallelism (FlowOptions
  /// semantics: 1 = serial, 0 = one per hardware thread).
  int jobs = 1;
  /// Pool the request job graphs are admitted onto; null = the process
  /// shared pool.
  base::ThreadPool* pool = nullptr;
  core::ExpandOptions expand;  // part of the cache key
  /// Directory of the persistent warm store (svc::DiskStore). Empty =
  /// persistence off. When set, terminal design entries (every request
  /// mode answered by resident phases) are spilled to
  /// `<cache_dir>/<key>.sit` as they complete, and warm_from_disk()
  /// rebuilds them at boot — a killed-and-restarted server serves the
  /// same designs as pure hits with byte-identical canonical reports.
  /// Persistence is best-effort: every disk failure degrades to a cold
  /// run, never an error response.
  std::string cache_dir;
};

class AnalysisService {
 public:
  explicit AnalysisService(ServiceOptions options = {});
  ~AnalysisService();

  AnalysisService(const AnalysisService&) = delete;
  AnalysisService& operator=(const AnalysisService&) = delete;

  /// Answers one request, from cache when possible, running only the
  /// phases the resident entry is missing. Thread-safe: any number of
  /// callers may be in analyze() concurrently; identical designs coalesce
  /// onto one phase run per (entry, phase) — except callers already inside
  /// a pool task (base::ThreadPool::in_task()), which run the flow
  /// themselves instead of blocking: a stolen duplicate on the owner's own
  /// help-while-wait stack would otherwise deadlock. Dedicated request
  /// threads (sitime_serve) get full coalescing. Never throws — failures
  /// come back as !ok responses (and are not cached; an entry keeps the
  /// phases that did succeed).
  AnalysisResponse analyze(const AnalysisRequest& request);

  /// Runs every bundled benchmark through the cache (mode derive), so a
  /// server answers the known suite warm from the first request. Returns
  /// the number of designs that loaded cleanly. `stop` (when non-null) is
  /// checked between designs, so a shutdown signal interrupts the warm
  /// loop promptly instead of finishing the whole suite.
  int warm_benchmark_suite(const std::atomic<bool>* stop = nullptr);

  /// Rebuilds cache entries from the persistent store (ServiceOptions::
  /// cache_dir): reads every store file, decodes and cross-validates it
  /// (format version, payload hash, content-address, canonical-STG
  /// round-trip under the CURRENT parser), and inserts the survivors as
  /// terminal entries under the normal byte budget. A file holds the
  /// FlowReport only; each entry's canonical JSON is rendered from it here,
  /// the way the derive phase renders it. Rejected files are
  /// deleted and their designs run cold — this method never throws and
  /// never loads anything it cannot prove whole. Returns the number of
  /// entries loaded. No-op without a store.
  int warm_from_disk();

  /// The persistent store behind --cache-dir; null when persistence is
  /// off. Exposed so the boot path can report an unusable directory
  /// (store->ok() false) and tests can inspect counters and files.
  const DiskStore* disk_store() const { return disk_store_.get(); }

  CacheStats stats() const;

  /// Slots in the shared-decomposition intern map, expired ones included
  /// (inserts prune them once they could outnumber the live ones).
  std::size_t decomposition_slots() const;

  const ServiceOptions& options() const { return options_; }

  /// The service-wide metric registry: the single source of truth every
  /// exposition surface (Prometheus text, {"stats": true} aliases) reads
  /// through. Layers above (svc::Server) register their own metrics here
  /// with owner-tagged callbacks and MUST remove_callbacks() before they
  /// die; the registry outlives everything its own callbacks read.
  base::MetricsRegistry& metrics() { return metrics_; }

 private:
  struct Entry;
  struct Parsed;
  struct SharedDecomposition;

  /// What one single-flight run (or bypass run) actually executed, for
  /// counters, histograms and trace spans. Captured by the runner while
  /// it is still the sole toucher of the artifacts.
  struct RunStats {
    int decomposes = 0;
    /// The decompose phase was satisfied by a shared decomposition: the
    /// phase appears in phases_run (and gets a span tagged
    /// "cache=decomp") but decomposes stays 0 — no decompose run
    /// happened, no cold-decompose latency is observed.
    bool decomp_hit = false;
    int verifies = 0;
    int derives = 0;       // derive runs that produced constraints (SI)
    bool derive_ran = false;  // the derive phase executed (SI or not)
    double decompose_seconds = 0.0;
    double verify_seconds = 0.0;
    double derive_seconds = 0.0;
    // Expansion aggregate of the derive phase (zero unless derives > 0).
    double expand_seconds = 0.0;
    long long expand_steps = 0;
    long long expand_subtasks = 0;
    int expand_jobs = 0;
  };
  /// One derived report and its wire form, as entries hold them and
  /// responses serve them.
  struct ReportForms {
    std::shared_ptr<const core::FlowReport> report;
    std::shared_ptr<const std::string> canonical_json;
  };

  static Parsed parse_request(const AnalysisRequest& request,
                              const core::ExpandOptions& expand);
  /// Shares `report` together with its canonical JSON — the one way the
  /// derive phase and the store load both make the wire form.
  static ReportForms report_forms(core::FlowReport report);
  /// Records the derive phase `artifacts` just ran in `run` and, when it
  /// produced constraints, builds the report served under `key_hex`
  /// (null forms otherwise). Shared by the single-flight runner and the
  /// bypass, so both count and render a derive identically.
  static ReportForms finish_derive(const core::PhaseArtifacts& artifacts,
                                   const std::string& key_hex,
                                   RunStats& run);
  core::FlowOptions flow_options(int request_jobs,
                                 const core::CancelToken& cancel);
  /// Advances `entry` to its claimed target phase as the single-flight
  /// runner (the caller already claimed the run by raising entry->target,
  /// which stays fixed for the run's duration). Returns true on success;
  /// on failure fills `error`/`error_code`, parks the entry at its last
  /// completed phase and wakes the waiters. `achieved` and `footprint`
  /// report the final phase and resident size, both captured before
  /// runnership is released (afterwards another runner may be mutating
  /// the artifacts).
  bool run_phases(const std::shared_ptr<Entry>& entry, int jobs,
                  const core::CancelToken& cancel, std::string& error,
                  std::string& error_code, RunStats& run,
                  core::Phase& achieved, std::size_t& footprint);
  /// The decompose phase of `entry` (the caller is its runner): shares
  /// the live decomposition of the entry's STG when there is one, else
  /// decomposes and publishes the result for the STG's later entries.
  /// Returns the canonical netlist of the entry's circuit.
  std::shared_ptr<const std::string> decompose_shared(Entry& entry,
                                                      const core::CancelToken&
                                                          cancel,
                                                      RunStats& run);
  /// The live decomposition interned under `stg_canonical`, or null;
  /// counts a hit or a miss. A caller without its own netlist
  /// (`need_synthesis`) is served only by one that kept the synthesized
  /// circuit.
  std::shared_ptr<const SharedDecomposition> find_decomposition(
      const std::string& stg_canonical, bool need_synthesis);
  /// Interns `entry`'s fresh decomposition under its STG and returns it,
  /// or null when a live one that kept synthesis products this one lacks
  /// stays interned instead. Prunes expired slots first once they could
  /// outnumber the live ones.
  std::shared_ptr<const SharedDecomposition> publish_decomposition(
      const Entry& entry, std::shared_ptr<const std::string> netlist);
  /// Runner epilogue under mutex_: retention (inflight -> design tier or
  /// resident re-charge) and counter updates.
  void finish_run(const std::shared_ptr<Entry>& entry, bool from_scratch,
                  bool ok, core::Phase achieved, std::size_t footprint,
                  const RunStats& run);
  /// Histogram observations + expand counters for the phases `run`
  /// executed; `cold` = the run started from the parsed phase.
  void record_run_metrics(const RunStats& run, bool cold);
  /// Appends back-to-back phase spans for `run` starting at offset
  /// `at_seconds`, with the expand aggregate nested in derive.
  static void append_run_spans(const RunStats& run, bool cold,
                               double at_seconds,
                               std::vector<TraceSpan>& spans);
  void register_metrics();
  /// Spills `entry` to the persistent store if it is terminal (satisfies
  /// every request mode), idle, and not yet spilled. Called by the
  /// single-flight runner after finish_run, BEFORE its response returns,
  /// so a client that saw the answer can kill the server and still find
  /// the artifact durable. Best-effort: failures only bump the write
  /// error counter. No-op without a store.
  void maybe_spill(const std::shared_ptr<Entry>& entry);
  void respond_from_locked(const Entry& entry, RequestMode mode,
                           const char* cache_state,
                           AnalysisResponse& out) const;

  ServiceOptions options_;
  sg::SgCache sg_cache_;  // cross-request SG memoization
  /// Live shared decompositions: each one's destructor decrements it
  /// without a lock, so stats() never walks the intern map. Declared
  /// before every holder of a decomposition, so it outlives them all.
  std::atomic<int> live_decompositions_{0};
  /// The intern map: canonical STG -> its shared decomposition, not
  /// owned. Expired slots are pruned on insert.
  mutable std::mutex decompositions_mutex_;
  std::unordered_map<std::string, std::weak_ptr<const SharedDecomposition>>
      decompositions_;
  /// Resident designs by canonical key, exact LRU. Changed only under
  /// mutex_, so residency and inflight_ move together.
  CacheTier<std::string, Entry> designs_;
  /// Persistent warm store (--cache-dir); null = persistence off. Never
  /// touched under mutex_ or an entry mutex — spills encode under the
  /// entry lock but write outside every lock, so disk latency cannot
  /// stall the serving path.
  std::unique_ptr<DiskStore> disk_store_;

  std::mutex mutex_;
  /// Entries being built that are not (yet) resident: the rendezvous for
  /// single-flight on brand-new designs. Removed when their runner
  /// finishes (moved into the design tier on success when it admits them).
  std::unordered_map<std::string, std::shared_ptr<Entry>> inflight_;

  /// Exception to the registry-owned rule: core::ExpandOptions carries a
  /// raw pointer to this atomic into the expansion hot loops, so the one
  /// authoritative count lives here and the registry reads it through a
  /// callback.
  std::atomic<long long> cancelled_subtasks_{0};

  // The metric registry and the registry-owned counters every stat below
  // reads through (lock-free inc on the hot paths; {"stats": true} is the
  // alias view over ->value()). Declared after the caches the
  // constructor's callbacks read, destroyed before nothing that renders.
  base::MetricsRegistry metrics_;
  base::MetricCounter* hits_ = nullptr;
  base::MetricCounter* misses_ = nullptr;
  base::MetricCounter* upgrades_ = nullptr;
  base::MetricCounter* coalesced_ = nullptr;
  base::MetricCounter* failures_ = nullptr;
  base::MetricCounter* deadline_exceeded_ = nullptr;
  base::MetricCounter* decompose_runs_ = nullptr;
  base::MetricCounter* verify_runs_ = nullptr;
  base::MetricCounter* derive_runs_ = nullptr;
  base::MetricCounter* decomp_hits_ = nullptr;
  base::MetricCounter* decomp_misses_ = nullptr;
  base::MetricCounter* expand_steps_ = nullptr;
  base::MetricCounter* expand_subtasks_ = nullptr;
  /// Per-phase latency histograms, [phase 0..3 = parse/decompose/verify/
  /// derive][source 0 = cold, 1 = upgrade]. parse never upgrades, so
  /// [0][1] stays null.
  base::MetricHistogram* phase_seconds_[4][2] = {};
  /// Local state-graph build latency, wired into every SG build the flows
  /// run (SgCache misses and the verify phase's direct builds).
  base::MetricHistogram* sg_build_seconds_ = nullptr;
};

}  // namespace sitime::svc
