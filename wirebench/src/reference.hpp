// Correctness reference for the wire benchmark.
//
// Every design a run sends is first analysed in-process: serially (jobs
// 1), cold (a fresh service with caching disabled, so no cache level can
// leak an answer from one design into another), in derive mode. Its
// verdict and the FNV-1a digest of its canonical report are what every
// wire response for that design must match. For the default seed the
// reference itself is checked against digests committed with the
// benchmark (golden/<workload>.txt), and imec-ram-read-sbuf against the
// thesis before/after lists, so a change that alters the flow's answers
// shows up as failed requests rather than as a faster run.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "designs.hpp"
#include "svc/analysis_service.hpp"

namespace wirebench {

inline constexpr std::uint64_t kDefaultSeed = 1;

/// What the server must answer for one design.
struct Expected {
  bool ok = false;
  std::string error;         // set when !ok: the in-process run failed
  std::string offender;      // empty = speed independent
  std::uint64_t digest = 0;  // canonical report digest; 0 = no report
};

std::uint64_t fnv1a64(std::string_view text);

/// Spills designs[which[i]] into a persistent store at `dir` through an
/// in-process service with the server's defaults, as the warm_hits set-up
/// does. Returns false unless every design was analysed and written.
bool fill_store(const std::vector<Design>& designs,
                const std::vector<int>& which, const std::string& dir);

/// Analyses designs[which[i]] into expected[which[i]] on `threads`
/// threads (one cold service per design) and returns the summed
/// per-design wall seconds — the serial cost of the batch.
double compute_reference(const std::vector<Design>& designs,
                         const std::vector<int>& which,
                         std::vector<Expected>& expected, int threads);

/// Golden line of one expectation: the digest in hex, or "!" + offender
/// for designs that are not speed independent.
std::string golden_text(const Expected& expected);

/// Reads golden/<workload>.txt: one golden_text line per design, in the
/// order the workload creates designs for kDefaultSeed. Missing file =
/// empty list.
std::vector<std::string> read_golden(const std::string& directory,
                                     const std::string& workload);
bool write_golden(const std::string& directory, const std::string& workload,
                  const std::vector<Expected>& expected);

/// Analyses the bundled imec-ram-read-sbuf and compares its before/after
/// constraint lists with golden/imec_thesis.txt. Returns "" when they
/// match, else a one-line reason.
std::string check_thesis_lists(const std::string& directory);

/// True when the two designs parse to the same canonical STG and netlist.
bool canonically_equal(const Design& a, const Design& b);

}  // namespace wirebench
