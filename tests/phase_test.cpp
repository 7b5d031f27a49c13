// The staged phase-artifact model (core/phase): each phase is a pure
// function of the previous artifact, a partly advanced artifact runs only
// the phases it is missing, and the staged products agree with the
// monolithic flow entry points they refactor.
#include <gtest/gtest.h>

#include <memory>

#include "base/error.hpp"
#include "benchdata/benchmarks.hpp"
#include "core/flow.hpp"
#include "core/phase.hpp"

namespace sitime {
namespace {

core::PhaseArtifacts parsed_artifacts(const std::string& name,
                                      bool with_netlist = true) {
  const auto& bench = benchdata::benchmark(name);
  core::PhaseArtifacts artifacts;
  artifacts.stg = std::make_unique<stg::Stg>(benchdata::load_stg(bench));
  if (with_netlist && !bench.eqn.empty())
    artifacts.circuit = std::make_unique<circuit::Circuit>(
        benchdata::load_circuit(bench, *artifacts.stg));
  return artifacts;
}

TEST(PhaseArtifacts, PhasesAdvanceOneAtATimeAndMatchTheMonolithicFlow) {
  core::PhaseArtifacts artifacts = parsed_artifacts("imec-ram-read-sbuf");
  EXPECT_EQ(artifacts.completed, core::Phase::parsed);

  core::run_decompose_phase(artifacts);
  EXPECT_EQ(artifacts.completed, core::Phase::decomposed);
  EXPECT_FALSE(artifacts.decomposition->jobs.empty());
  EXPECT_GT(artifacts.decomposition->state_count, 0);

  core::run_verify_phase(artifacts);
  EXPECT_EQ(artifacts.completed, core::Phase::verified);
  EXPECT_TRUE(artifacts.verify_offender.empty());
  EXPECT_TRUE(artifacts.speed_independent());

  core::run_derive_phase(artifacts, core::FlowOptions{});
  EXPECT_EQ(artifacts.completed, core::Phase::derived);
  ASSERT_TRUE(artifacts.has_result);

  // The staged run agrees with the monolithic entry point bit for bit.
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  const core::FlowResult classic =
      core::derive_timing_constraints(stg, circuit);
  EXPECT_EQ(artifacts.result.before, classic.before);
  EXPECT_EQ(artifacts.result.after, classic.after);
  EXPECT_EQ(artifacts.result.state_count, classic.state_count);
}

TEST(PhaseArtifacts, AdvanceRunsOnlyTheMissingPhases) {
  core::PhaseArtifacts artifacts = parsed_artifacts("adfast");
  core::run_decompose_phase(artifacts);
  core::run_verify_phase(artifacts);
  EXPECT_EQ(artifacts.completed, core::Phase::verified);
  EXPECT_FALSE(artifacts.has_result);
  const double decompose_seconds = artifacts.decompose_seconds;

  // The upgrade runs derive alone: the decomposition is untouched.
  const std::size_t job_count = artifacts.decomposition->jobs.size();
  core::run_derive_phase(artifacts, core::FlowOptions{});
  EXPECT_EQ(artifacts.completed, core::Phase::derived);
  EXPECT_TRUE(artifacts.has_result);
  EXPECT_EQ(artifacts.decomposition->jobs.size(), job_count);
  EXPECT_EQ(artifacts.decompose_seconds, decompose_seconds);
  // The result reads like a monolithic run: decompose time included.
  EXPECT_GE(artifacts.result.seconds, artifacts.result.decompose_seconds);
}

TEST(PhaseArtifacts, DecomposeSynthesizesWhenNoNetlistWasGiven) {
  core::PhaseArtifacts artifacts =
      parsed_artifacts("imec-ram-read-sbuf", /*with_netlist=*/false);
  ASSERT_EQ(artifacts.circuit, nullptr);
  core::run_decompose_phase(artifacts);
  ASSERT_NE(artifacts.circuit, nullptr);
  EXPECT_FALSE(artifacts.circuit->gates().empty());
  EXPECT_FALSE(artifacts.circuit->to_eqn().empty());
}

TEST(PhaseArtifacts, PhasesRefuseToRunOutOfOrder) {
  core::PhaseArtifacts artifacts = parsed_artifacts("adfast");
  EXPECT_THROW(core::run_verify_phase(artifacts), Error);
  EXPECT_THROW(core::run_derive_phase(artifacts, core::FlowOptions{}),
               Error);
  core::run_decompose_phase(artifacts);
  EXPECT_THROW(core::run_decompose_phase(artifacts), Error);
  EXPECT_THROW(core::run_derive_phase(artifacts, core::FlowOptions{}),
               Error);
}

TEST(PhaseArtifacts, EveryPhaseRecordsItsOwnSeconds) {
  // The observability layer builds trace spans and latency histograms
  // from the per-phase clocks, so each run_*_phase must stamp its own
  // duration — and only its own: advancing a later phase leaves the
  // earlier timings untouched.
  core::PhaseArtifacts artifacts = parsed_artifacts("fifo");
  EXPECT_EQ(artifacts.verify_seconds, 0.0);
  EXPECT_EQ(artifacts.derive_seconds, 0.0);

  core::run_decompose_phase(artifacts);
  EXPECT_GT(artifacts.decompose_seconds, 0.0);
  EXPECT_EQ(artifacts.verify_seconds, 0.0);

  core::run_verify_phase(artifacts);
  EXPECT_GT(artifacts.verify_seconds, 0.0);
  const double decompose_seconds = artifacts.decompose_seconds;
  const double verify_seconds = artifacts.verify_seconds;
  EXPECT_EQ(artifacts.derive_seconds, 0.0);

  core::run_derive_phase(artifacts, core::FlowOptions{});
  EXPECT_GT(artifacts.derive_seconds, 0.0);
  EXPECT_EQ(artifacts.decompose_seconds, decompose_seconds);
  EXPECT_EQ(artifacts.verify_seconds, verify_seconds);
  // The expansion aggregate nests inside the derive phase, so its time
  // can never exceed the phase that contains it.
  ASSERT_TRUE(artifacts.has_result);
  EXPECT_LE(artifacts.result.expand_seconds, artifacts.derive_seconds);
}

TEST(PhaseNames, RangeTextListsTheExecutedPhases) {
  EXPECT_EQ(core::phase_range_text(core::Phase::parsed,
                                   core::Phase::derived),
            "decompose+verify+derive");
  EXPECT_EQ(core::phase_range_text(core::Phase::parsed,
                                   core::Phase::verified),
            "decompose+verify");
  EXPECT_EQ(core::phase_range_text(core::Phase::verified,
                                   core::Phase::derived),
            "derive");
  EXPECT_EQ(core::phase_range_text(core::Phase::derived,
                                   core::Phase::derived),
            "");
  EXPECT_STREQ(core::phase_name(core::Phase::decomposed), "decomposed");
}

}  // namespace
}  // namespace sitime
