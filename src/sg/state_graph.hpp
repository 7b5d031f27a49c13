// State graphs (Section 3.4).
//
// Two builders are provided:
//  - build_state_graph(): the SG of a local (marked-graph) STG, used by the
//    hazard criterion of Section 5.4. States are arc markings plus a binary
//    signal code; building checks consistency (rising/falling alternation).
//    One serial BFS on the calling thread: local SGs are small (hundreds
//    to about a thousand states), and parallelism lives one level up, in
//    the flow's per-(component × gate) jobs. The flow core reaches it only
//    through sg::SgCache, which memoizes the graphs and times the builds.
//  - build_global_sg(): the SG of the full implementation STG (a possibly
//    free-choice net), used by the synthesis substrate and for the "number
//    of states" column of Table 7.2. Signal values are inferred from the
//    transition labels by constraint propagation; conflicts mean the STG is
//    inconsistent.
//
// Packed-marking engine: states are keyed by their marking packed into a
// run of 64-bit words (base::MarkingSet; bit_width(token_limit) bits per
// place — 3 bits / 21 places per word at the default limit of 6, spilling
// to wider fields for larger limits), deduplicated by an open-addressing
// hash table, and stored in one contiguous arena. The successor relation is
// CSR-style flat adjacency whose per-state rows are sorted by transition id
// (the BFS fires transitions in ascending id order), so successor() binary
// searches instead of linear-scanning.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "base/marking_set.hpp"
#include "pn/analysis.hpp"
#include "stg/marked_graph.hpp"
#include "stg/stg.hpp"

namespace sitime::sg {

/// Explicit state graph of a marked-graph STG. States are indexed densely;
/// state 0 is the initial state.
struct StateGraph {
  base::MarkingSet states;                    // packed tokens per MgStg arc
  std::vector<std::uint64_t> codes;           // bit per signal id
  std::vector<int> out_offsets;               // CSR row starts, size n+1
  std::vector<std::pair<int, int>> out_data;  // (transition, succ)

  int state_count() const { return states.size(); }

  /// Decoded marking of state `s` (tokens per arc index of the MgStg).
  std::vector<int> marking(int s) const { return states.marking(s); }

  bool value(int state, int signal) const {
    return (codes[state] >> signal) & 1;
  }

  /// Outgoing (transition, successor) pairs of `state`, ascending by
  /// transition id.
  std::span<const std::pair<int, int>> out(int state) const {
    return {out_data.data() + out_offsets[state],
            out_data.data() + out_offsets[state + 1]};
  }

  /// Successor of `state` by firing `transition` (binary search over the
  /// sorted row), or -1 when not enabled.
  int successor(int state, int transition) const;

  /// True when some transition on `signal` with direction `rising` is
  /// enabled in `state` (the MgStg labels are needed to interpret ids).
  bool excites(const stg::MgStg& mg, int state, int signal,
               bool rising) const;
};

inline constexpr int kDefaultSgStateLimit = 200000;
inline constexpr int kDefaultSgTokenLimit = 6;
/// State bound of build_global_sg (the Petri-net reachability default).
inline constexpr int kDefaultGlobalSgStateLimit =
    pn::kDefaultReachabilityStateLimit;

/// Construction knobs for build_state_graph. The build itself is untimed:
/// latency is measured one level up, where sg::SgCache times its misses.
struct SgBuildOptions {
  int state_limit = kDefaultSgStateLimit;
  int token_limit = kDefaultSgTokenLimit;
  /// Polled every 256 states; a fired token throws base::CancelledError.
  base::CancelToken cancel;
};

/// Exhaustive reachability of the local STG: one serial BFS that numbers
/// states in discovery order. `mg.initial_values` must be set for every
/// signal that has an alive transition. Throws on inconsistent firing (a+
/// from a state where a = 1), when a state/token bound is exceeded (a
/// symptom of relaxing a gate with redundant literals, Lemma 2), or when a
/// transition has no input arc. The BFS polls `options.cancel` every 256
/// states (base::CancelledError).
StateGraph build_state_graph(const stg::MgStg& mg,
                             const SgBuildOptions& options = {});

/// State graph of the full STG: Petri-net reachability plus inferred codes.
struct GlobalSg {
  pn::ReachabilityGraph reach;
  std::vector<std::uint64_t> codes;

  int state_count() const { return reach.state_count(); }
  bool value(int state, int signal) const {
    return (codes[state] >> signal) & 1;
  }
};

/// Builds the global SG and infers a consistent binary code per state.
/// Throws when the STG is inconsistent (no consistent value assignment
/// exists) or when some signal never transitions.
GlobalSg build_global_sg(const stg::Stg& stg,
                         int state_limit = kDefaultGlobalSgStateLimit,
                         const base::CancelToken& cancel = {});

/// Signal values at the initial marking of `stg` (index = signal id).
std::vector<int> initial_values(const stg::Stg& stg, const GlobalSg& sg);

}  // namespace sitime::sg
