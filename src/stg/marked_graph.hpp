// Marked-graph STGs in arc-list form (Chapters 5-6).
//
// Local STGs — the per-gate environments the relaxation engine operates on —
// are marked graphs where every place is implicit on an arc t1 => t2 carrying
// a token count. This class implements the three structural algorithms of
// Chapter 5:
//   - project()                 Algorithm 1, hiding signals outside a gate's
//                               support,
//   - relax()                   Algorithm 2, turning one ordered pair of
//                               events into concurrent ones,
//   - eliminate_redundant_arcs() the loop-only/shortcut-place elimination of
//                               Section 5.3.3 (Algorithm 3, Dijkstra-based).
//
// Arcs carry a kind:
//   - normal       ordinary causality, candidate for relaxation,
//   - guaranteed   a type-4 arc whose relaxation was rejected (case 4); the
//                  ordering is enforced by a timing constraint ("&" in the
//                  figures) and is never relaxed again,
//   - restriction  an order-restriction arc added by OR-causality
//                  decomposition ("#" in the figures); behaves like a normal
//                  place in the token game but is never relaxed and never
//                  removed as redundant (Section 6.2).
//
// Transition ids are stable across all operations (projection only marks
// transitions dead), so prerequisite sets computed before a relaxation remain
// valid afterwards, as Section 5.4.1 requires.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stg/signal.hpp"

namespace sitime::stg {

enum class ArcKind { normal, guaranteed, restriction };

struct MgArc {
  int from = -1;
  int to = -1;
  int tokens = 0;
  ArcKind kind = ArcKind::normal;

  bool operator==(const MgArc&) const = default;
};

class MgStg {
 public:
  explicit MgStg(const SignalTable* signals);

  // ---- construction -------------------------------------------------------
  /// Adds a transition; returns its stable id.
  int add_transition(const TransitionLabel& label);

  /// Adds (or merges into) the arc from -> to. Parallel places between the
  /// same pair of transitions are merged keeping the *smaller* token count
  /// (the more restrictive place; the other would be shortcut-redundant) and
  /// the stronger kind (restriction > guaranteed > normal). Token-carrying
  /// self-loops are loop-only places and are dropped; token-free self-loops
  /// are an error (a dead cycle).
  void insert_arc(int from, int to, int tokens,
                  ArcKind kind = ArcKind::normal);

  /// Removes the arc from -> to (error when absent).
  void remove_arc(int from, int to);

  // ---- relax/undo ---------------------------------------------------------
  // The Expand loop tries one relaxation per step and rejects most of them.
  // Relaxation (and set_arc_kind) mutate only the arc table, so a trial is:
  // snapshot, relax in place, and restore on rejection — no whole-STG copy.
  struct ArcSnapshot {
    std::vector<MgArc> arcs;
    bool reduced = false;
  };
  ArcSnapshot arc_snapshot() const { return {arcs_, reduced_}; }
  void restore_arcs(ArcSnapshot snapshot) {
    arcs_ = std::move(snapshot.arcs);
    reduced_ = snapshot.reduced;
  }

  // ---- inspection ---------------------------------------------------------
  const SignalTable& signals() const { return *signals_; }
  int transition_count() const {
    return static_cast<int>(transitions_.size());
  }
  const TransitionLabel& label(int t) const { return transitions_[t]; }
  bool alive(int t) const { return alive_[t]; }
  std::vector<int> alive_transitions() const;

  const std::vector<MgArc>& arcs() const { return arcs_; }
  /// Index into arcs() of from -> to, or -1.
  int find_arc(int from, int to) const;
  bool has_arc(int from, int to) const { return find_arc(from, to) != -1; }
  int arc_tokens(int from, int to) const;
  ArcKind arc_kind(int from, int to) const;
  void set_arc_kind(int from, int to, ArcKind kind);

  /// Predecessor / successor transitions (Section 3.2's /t and t.).
  std::vector<int> preds(int t) const;
  std::vector<int> succs(int t) const;

  /// First alive transition with this label, or -1.
  int find_transition(const TransitionLabel& label) const;

  /// Rendered label of transition `t`.
  std::string transition_text(int t) const;

  // ---- Chapter 5 algorithms ----------------------------------------------
  /// Algorithm 1: hides every transition whose signal is not in
  /// `keep_signal` (indexed by signal id), rebuilding causality through the
  /// hidden events and eliminating redundant arcs after each elimination.
  /// The arcs are exactly those of a whole-graph sweep after every hidden
  /// transition, but once the graph is reduced each sweep tests only the
  /// arcs the splice created or merged.
  void project(const std::vector<bool>& keep_signal);

  /// Algorithm 2: relaxes the arc x* => y*, making the two events concurrent
  /// while preserving their orderings against all other events. Predecessors
  /// of x* become predecessors of y*; successors of y* become successors of
  /// x*; token counts follow the flow-preserving sum rule. Ends with a
  /// redundant-arc sweep, limited to the arcs touching x* or y* when the
  /// graph was reduced before the relaxation (same result as a full sweep).
  void relax(int from, int to);

  /// Section 5.3.3: removes loop-only and shortcut places until fixpoint.
  /// Arcs of kind `restriction` are never removed (Section 6.2); arcs of
  /// kind `guaranteed` are kept for constraint reporting. Arcs are tested
  /// in index order and the first of two mutually redundant arcs goes.
  void eliminate_redundant_arcs();

  /// True when no normal arc is redundant, so a sweep would remove nothing.
  /// Tests every normal arc unless a sweep has already established it, and
  /// remembers a positive answer: project() and relax() on this graph or a
  /// copy of it then sweep only the arcs they touch, from the first splice.
  bool check_reduced();

  /// True when the arc (by index) is redundant per the shortcut-place
  /// criterion: a path from -> to avoiding the arc exists whose token sum
  /// does not exceed the arc's tokens (checked with Dijkstra, Figure 5.15).
  bool arc_redundant(int arc_index) const;

  // ---- structural relations ----------------------------------------------
  /// t1 precedes t2: a token-free directed path t1 -> ... -> t2 exists.
  bool structurally_before(int t1, int t2) const;

  /// Neither order holds (and t1 != t2).
  bool structurally_concurrent(int t1, int t2) const;

  /// Liveness of the cyclic MG: the token-free subgraph is acyclic.
  bool live() const;

  /// Internal invariants: arcs reference alive transitions, no duplicates,
  /// no self-loops, non-negative tokens, every alive transition has at least
  /// one predecessor and one successor. Throws on violation.
  void validate() const;

  /// Binary signal values at the initial marking, indexed by signal id
  /// (-1 when unknown/irrelevant). Inherited from the implementation STG and
  /// preserved by projection and relaxation.
  std::vector<int> initial_values;

 private:
  /// One redundancy sweep in index order. When the graph was reduced
  /// before the caller's edit, it tests only the normal arcs for which
  /// `touched(arc)` holds, which must include every arc the edit could have
  /// made redundant; otherwise it tests every normal arc. Leaves the graph
  /// reduced.
  template <typename Touched>
  void sweep_redundant_arcs(bool was_reduced, Touched touched);

  const SignalTable* signals_;
  std::vector<TransitionLabel> transitions_;
  std::vector<bool> alive_;
  std::vector<MgArc> arcs_;
  // No normal arc is redundant. Set by every sweep; cleared by arc insertion
  // and by turning an arc normal. Removing an arc keeps it (removal only
  // lengthens paths). Lets project() and relax() sweep locally.
  bool reduced_ = false;
};

}  // namespace sitime::stg
