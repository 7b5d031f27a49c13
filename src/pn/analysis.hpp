// Behavioural and structural analysis of Petri nets (Section 3.2):
// reachability, safeness, liveness, free-choice and marked-graph predicates,
// conflict/concurrency of transitions.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "base/cancel.hpp"
#include "base/marking_set.hpp"
#include "pn/petri_net.hpp"

namespace sitime::pn {

/// Explicit reachability graph of a Petri net.
///
/// Markings live packed inside a base::MarkingSet (state id = dense index,
/// state 0 = the initial marking); the successor relation is stored as
/// CSR-style flat adjacency. Within one state the (transition, successor)
/// pairs are sorted by transition id — the BFS fires enabled transitions in
/// ascending order — so per-state transition lookups can binary search.
struct ReachabilityGraph {
  base::MarkingSet states;                     // packed markings + hash index
  std::vector<int> edge_offsets;               // CSR row starts, size n+1
  std::vector<std::pair<int, int>> edge_data;  // (transition, succ)

  int state_count() const { return states.size(); }

  /// Decoded marking of state `s` (tokens per place).
  Marking marking(int s) const { return states.marking(s); }

  /// State id of `m`, or -1 when unreachable.
  int find(const Marking& m) const { return states.find(m); }
  bool contains(const Marking& m) const { return states.contains(m); }

  /// Outgoing (transition, successor) pairs of state `s`, ascending by
  /// transition id.
  std::span<const std::pair<int, int>> edges(int s) const {
    return {edge_data.data() + edge_offsets[s],
            edge_data.data() + edge_offsets[s + 1]};
  }

  /// Successor of `s` by `transition` (binary search), or -1.
  int successor(int s, int transition) const;
};

/// Default marking bound of reachability(), and through
/// sg::kDefaultGlobalSgStateLimit of the global state graph.
inline constexpr int kDefaultReachabilityStateLimit = 1 << 20;

/// Exhaustive reachability from the initial marking. Throws when the number
/// of markings exceeds `state_limit` (defensive bound for unbounded nets) or
/// any place accumulates more than `token_limit` tokens. The BFS polls
/// `cancel` every 256 states (base::CancelledError).
ReachabilityGraph reachability(
    const PetriNet& net, int state_limit = kDefaultReachabilityStateLimit,
    int token_limit = 8, const base::CancelToken& cancel = {});

/// Every reachable marking puts at most one token in each place.
bool is_safe(const PetriNet& net, const ReachabilityGraph& graph);

/// Every transition can be enabled again from every reachable marking.
bool is_live(const PetriNet& net, const ReachabilityGraph& graph);

/// Every choice place (more than one output transition) is a free-choice
/// place: it is the unique input place of all its output transitions.
bool is_free_choice(const PetriNet& net);

/// No place has more than one input or more than one output transition.
bool is_marked_graph(const PetriNet& net);

/// Transitions t1 and t2 are in conflict when some reachable marking enables
/// both but firing one disables the other.
bool in_conflict(const PetriNet& net, const ReachabilityGraph& graph, int t1,
                 int t2);

/// Transitions t1 and t2 are concurrent: whenever both are enabled they are
/// not in conflict, and some reachable marking enables both.
bool concurrent(const PetriNet& net, const ReachabilityGraph& graph, int t1,
                int t2);

}  // namespace sitime::pn
