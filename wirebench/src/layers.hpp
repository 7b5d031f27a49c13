// Per-layer timers for the traced replay.
//
// layers.cpp defines a wrapper for each public call a request crosses
// (parse_json, parse_astg, write_astg, Circuit::from_equations,
// build_global_sg, mg_components, local_stg, build_state_graph,
// Expander::expand, make_flow_report / to_canonical_json / render_report,
// encode_artifact / decode_artifact, DiskStore::save / read_file,
// AnalysisService::analyze, ThreadPool::parallel_for). The replay binary
// links the library with -Wl,--wrap for those symbols, so every call the
// service makes into another translation unit passes through a timer
// defined here — the library itself carries no spans.
//
// A timer records self time: its duration minus the wrapped calls nested
// in it on the same thread. The analyze timer's self time is the
// service's own work (keying, locking, cache bookkeeping, the verify
// conformance checks): the replay reports it as unattributed_s.
#pragma once

#include <array>

namespace wirebench::layers {

enum Layer {
  kJson,      // svc.json: parse_json
  kParse,     // stg.parse: parse_astg
  kCanon,     // stg.canon: write_astg
  kNetlist,   // circuit.netlist: Circuit::from_equations
  kGlobalSg,  // sg.global: build_global_sg
  kHack,      // pn.hack: mg_components
  kProject,   // core.project: local_stg
  kLocalSg,   // sg.local: build_state_graph on a local STG
  kExpand,    // core.expand: Expander::expand, one call per job
  kRender,    // core.render: make_flow_report, to_canonical_json,
              // render_report
  kCodec,     // core.codec: encode_artifact / decode_artifact
  kDisk,      // svc.disk: DiskStore::save / read_file
  kService,   // svc.service: AnalysisService::analyze
  kPool,      // base.pool: ThreadPool::parallel_for
  kLayers,
};

/// Metric-name prefix of each layer ("svc.json", ...).
const char* layer_name(Layer layer);

/// Extra per-layer counts, recorded by the wrappers from the calls'
/// results.
enum Count {
  kStates,       // sg.global: global states built
  kLocalStates,  // sg.local: local states built
  kComponents,   // pn.hack: MG components found
  kArcsOut,      // core.project: arcs of the projected local STG
  kSteps,        // core.expand: relaxation steps
  kSubtasks,     // core.expand: OR-causality subtasks
  kBytes,        // core.codec: bytes encoded or decoded
  kFresh,        // svc.service: responses by cache state
  kHit,
  kUpgraded,
  kCoalesced,
  kCounts,
};

struct Totals {
  std::array<long long, kLayers> calls{};
  std::array<double, kLayers> busy_s{};       // self time
  std::array<double, kLayers> inclusive_s{};  // nested calls included
  std::array<long long, kCounts> counts{};
};

/// Turns the timers on or off (off: wrappers only forward).
void enable(bool on);

/// Sum over every thread that ever ran a wrapped call. Call only while no
/// wrapped call is running.
Totals snapshot();

/// Zeroes every thread's totals (same restriction as snapshot()).
void reset();

}  // namespace wirebench::layers
