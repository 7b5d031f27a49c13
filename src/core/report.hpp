// Structured flow reports: the data the thesis tool printed as free text,
// modelled so batch drivers and machine consumers can use it directly.
//
// make_flow_report() freezes a FlowResult into rendered names and per-gate
// groupings; to_text() renders the thesis Check_hazard layout plus an
// orchestration summary, and to_json() emits one self-contained JSON object
// per design (the batch driver concatenates them into an array).
#pragma once

#include <string>
#include <vector>

#include "core/flow.hpp"

namespace sitime::core {

/// One constraint with every name already rendered.
struct ReportConstraint {
  std::string gate;    // constrained gate, e.g. "i0"
  std::string before;  // transition that must arrive first, e.g. "wenin-"
  std::string after;   // e.g. "precharged-"
  int weight = 0;      // adversary weight (kEnvironmentWeight+ = via env)

  /// "i0: wenin- < precharged-" — the thesis line format.
  std::string text() const { return gate + ": " + before + " < " + after; }
};

/// Both constraint lists of one gate.
struct GateReport {
  std::string gate;
  std::vector<ReportConstraint> before;
  std::vector<ReportConstraint> after;
};

struct FlowReport {
  std::string design;  // display name (file path or benchmark name)
  // Design-cache provenance (filled by svc::AnalysisService; empty for
  // reports rendered straight from a FlowResult). content_hash is the
  // content-addressed key of the design (canonical STG + netlist + flow
  // options); cache_state records how this response was produced: "fresh"
  // (this request ran every phase), "hit" (every phase it needed was
  // already resident), "upgraded" (a resident entry was advanced by
  // running only its missing phases — e.g. derive on a verify-cached
  // decomposition) or "coalesced" (attached to another request's
  // in-flight run). phases_run lists the phases THIS response executed
  // ("decompose+verify+derive" for a cold derive, "derive" for a lazy
  // upgrade, empty for hits and coalesced waits). All three are envelope
  // provenance: they never enter the canonical body, which must stay
  // byte-identical however the answer was produced.
  std::string content_hash;
  std::string cache_state;
  std::string phases_run;
  int state_count = 0;
  int gate_count = 0;
  int input_count = 0;
  int output_count = 0;
  int mg_component_count = 0;
  int jobs = 1;
  int expand_steps = 0;
  int expand_subtasks = 0;  // subSTG expansions run as pool subtasks
  int cache_hits = 0;
  int cache_misses = 0;
  double seconds = 0.0;
  double decompose_seconds = 0.0;
  double expand_seconds = 0.0;
  std::vector<ReportConstraint> before;  // stable ConstraintSet order
  std::vector<ReportConstraint> after;
  std::vector<GateReport> gates;  // grouped, ordered by gate signal id
};

FlowReport make_flow_report(std::string design, const FlowResult& result,
                            const stg::SignalTable& signals);

/// Exactly the thesis Check_hazard text (the two constraint lists and the
/// running-time line) — format_report renders through this too, so the
/// legacy and batch outputs cannot drift apart.
std::string thesis_report_text(const FlowReport& report);

/// thesis_report_text plus a state/job/cache summary block.
std::string to_text(const FlowReport& report);

/// One JSON object; stable key order, no external dependencies. Includes a
/// "cache_provenance" object when content_hash is set. Structurally this
/// is json_report_head(...) + RenderedReport::json_body — the per-request
/// provenance lives entirely in the head, so a memoized body can be
/// re-headed without re-rendering.
std::string to_json(const FlowReport& report);

/// Every rendering of one report that does NOT depend on per-request
/// provenance (display name, cache_state, phases_run): the thesis text,
/// the full text layout, and the body of to_json (from the "states" line
/// to the closing brace). No library code keeps these: the design cache
/// holds only the FlowReport and its canonical JSON. The wire benchmark's
/// per-layer replay still wraps render_report by symbol.
struct RenderedReport {
  std::string thesis;     // == thesis_report_text(report)
  std::string text;       // == to_text(report)
  std::string json_body;  // to_json minus json_report_head
};

/// Renders all three memoizable forms in one pass over the report.
RenderedReport render_report(const FlowReport& report);

/// The provenance head of to_json: the design line plus (when
/// content_hash is non-empty) the cache_provenance object.
/// json_report_head(...) + RenderedReport::json_body is byte-identical to
/// to_json on a report carrying the same provenance fields.
std::string json_report_head(const std::string& design,
                             const std::string& content_hash,
                             const std::string& cache_state,
                             const std::string& phases_run);

/// The deterministic body of a report as one compact single-line JSON
/// object: everything a consumer can rely on byte-for-byte — design name,
/// content hash, interface/state counts and both constraint lists — and
/// nothing volatile (no wall-clock timings, worker counts, expand-step or
/// subtask counters, SG-cache counters or cache_state). Two runs of the
/// same design produce identical canonical JSON whatever the schedule,
/// worker count, or cache state; the design cache stores exactly this
/// rendering and serves it verbatim.
std::string to_canonical_json(const FlowReport& report);

/// JSON string escaping (quotes, backslashes, control characters); exposed
/// for callers assembling JSON around flow reports.
std::string json_escape(const std::string& text);

}  // namespace sitime::core
