#include "core/phase.hpp"

#include <chrono>
#include <memory>
#include <utility>

#include "base/error.hpp"
#include "base/fault.hpp"
#include "sg/state_graph.hpp"
#include "synth/synthesis.hpp"

namespace sitime::core {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::parsed: return "parsed";
    case Phase::decomposed: return "decomposed";
    case Phase::verified: return "verified";
    case Phase::derived: return "derived";
  }
  return "?";
}

std::string phase_range_text(Phase from, Phase to) {
  static const char* const kStep[] = {"parse", "decompose", "verify",
                                      "derive"};
  std::string text;
  for (int p = static_cast<int>(from) + 1; p <= static_cast<int>(to); ++p) {
    if (!text.empty()) text += '+';
    text += kStep[p];
  }
  return text;
}

std::shared_ptr<const circuit::Circuit> synthesize_circuit(
    const stg::Stg& stg, const sg::GlobalSg& global) {
  return std::make_shared<const circuit::Circuit>(
      circuit::Circuit::from_synthesis(&stg.signals,
                                       synth::synthesize(stg, global)));
}

void run_decompose_phase(PhaseArtifacts& artifacts,
                         const CancelToken& cancel) {
  check(artifacts.completed == Phase::parsed,
        "run_decompose_phase: artifact is not at the parsed phase");
  check(artifacts.stg != nullptr, "run_decompose_phase: no parsed STG");
  if (base::fault_fires(base::FaultPoint::decompose))
    base::injected_failure(base::FaultPoint::decompose);
  cancel.poll("decompose phase");
  const auto start = std::chrono::steady_clock::now();
  // One global SG feeds synthesis (when the netlist is absent) and the
  // decomposition.
  const sg::GlobalSg global =
      sg::build_global_sg(*artifacts.stg, sg::kDefaultGlobalSgStateLimit,
                          cancel);
  if (artifacts.circuit == nullptr)
    artifacts.circuit = synthesize_circuit(*artifacts.stg, global);
  FlowDecomposition decomposition =
      decompose_flow(*artifacts.stg, *artifacts.circuit, global);
  // Pin the STG the decomposition's component projections point into, so
  // the decomposition stays valid beyond this artifact's lifetime.
  decomposition.source = artifacts.stg;
  artifacts.decomposition =
      std::make_shared<const FlowDecomposition>(std::move(decomposition));
  artifacts.decompose_seconds = seconds_since(start);
  artifacts.completed = Phase::decomposed;
}

void run_verify_phase(PhaseArtifacts& artifacts,
                      const FlowOptions& options) {
  check(artifacts.completed == Phase::decomposed,
        "run_verify_phase: artifact is not at the decomposed phase");
  const auto start = std::chrono::steady_clock::now();
  artifacts.verify_offender = verify_speed_independent(
      *artifacts.decomposition, *artifacts.circuit, options);
  artifacts.verify_seconds = seconds_since(start);
  artifacts.completed = Phase::verified;
}

void run_derive_phase(PhaseArtifacts& artifacts,
                      const FlowOptions& options) {
  check(artifacts.completed == Phase::verified,
        "run_derive_phase: artifact is not at the verified phase");
  const auto start = std::chrono::steady_clock::now();
  if (artifacts.verify_offender.empty()) {
    artifacts.result = derive_timing_constraints(
        *artifacts.decomposition, *artifacts.stg, *artifacts.circuit,
        options);
    artifacts.result.decompose_seconds = artifacts.decompose_seconds;
    artifacts.result.seconds += artifacts.decompose_seconds;
    artifacts.has_result = true;
  }
  artifacts.derive_seconds = seconds_since(start);
  artifacts.completed = Phase::derived;
}

}  // namespace sitime::core
