// Seeded design generators for the wire benchmark.
//
// Three parametric families, each stressing a different layer of the flow:
//   - Muller C-element pipeline (n stages): the global state graph has
//     2^(n+2) states, so decompose_flow dominates (sg.global);
//   - fork/join tap chain (x1 = r, xi = x(i-1) or its complement,
//     y = C(taps)): a couple of
//     dozen global states but a wide C-element whose isochronic forks the
//     Expand loop relaxes one by one (core.expand, local SG builds);
//   - free-choice mode select (m modes, each a chain of buffer and
//     C-element stages behind a shared buffer chain): m MG components, so
//     Hack decomposition and multi-component jobs carry the work
//     (pn.hack).
// Every generator takes an explicit structural variant (initial state,
// tap set, per-mode stage mix), so two draws that differ in variant
// differ in index structure, not just in names — the service's SG and
// gate-slice caches key on structure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace wirebench {

/// splitmix64: small, seedable and identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound);
  /// Uniform in [0, 1).
  double unit();
  bool chance(double probability) { return unit() < probability; }

 private:
  std::uint64_t state_;
};

/// Mixes a seed with a stream tag, so independent streams of one run never
/// share draws.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

struct Design {
  std::string name;  // display name; unique within a workload
  std::string astg;  // implementation STG, one arc per graph line
  std::string eqn;   // restricted-EQN netlist; empty = synthesized
};

/// n-stage Muller pipeline between input li (left request) and input ra
/// (right acknowledge). `state` bit i is the initial value of signal i of
/// (li, c1..cn, ra); every one of the 2^(n+2) vectors is reachable.
Design muller_pipeline(int stages, std::uint64_t state);

/// Tap chain of `length` stages; `taps` bit i-1 set = xi feeds y (bit
/// length-1 is forced on, so y waits for the whole chain); `inverters`
/// bit i-1 set = stage i inverts its input (y then reads xi in the
/// polarity that rises with r). `position` picks the initial state among
/// the 2 * (length + 2) of the cycle.
Design tap_chain(int length, std::uint64_t taps, std::uint64_t inverters,
                 int position);

/// Mode select with chain_lengths.size() >= 2 modes behind a shared
/// chain y1..y<shared> of buffers after the request r. buffers[j] bit i
/// makes stage i+1 of mode j+1 a plain buffer instead of a C-element with
/// the shared chain's last stage. `position` picks the initial marking
/// among the shared + 2 places of the shared part.
Design mode_select(const std::vector<int>& chain_lengths,
                   const std::vector<std::uint64_t>& buffers, int shared,
                   int position);

/// The bundled Table 7.2 suite as generator output: netlists are
/// synthesized in-process when the suite has none, so every design
/// carries an explicit EQN that edits can rewrite.
std::vector<Design> bundled_designs();

/// Byte-different but canonically equal rendering of `design`: extra
/// blanks and tabs, comment lines, blank lines, permuted .marking tokens,
/// and consecutive arc lines of one source merged into one line. The arc
/// order itself is kept: parse_astg numbers transitions and places in
/// arc order, so reordering arcs would renumber the design.
Design textual_variant(const Design& design, Rng& rng);

/// One gate equation of a netlist: output name and cube texts.
struct GateEquation {
  std::string output;
  std::vector<std::string> cubes;
};

std::vector<GateEquation> split_netlist(const std::string& eqn);
std::string join_netlist(const std::vector<GateEquation>& gates);

}  // namespace wirebench
