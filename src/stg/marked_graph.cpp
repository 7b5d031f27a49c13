#include "stg/marked_graph.hpp"

#include <algorithm>
#include <functional>
#include <queue>

#include "base/error.hpp"
#include "base/graph.hpp"

namespace sitime::stg {

namespace {

int kind_rank(ArcKind kind) {
  switch (kind) {
    case ArcKind::normal:
      return 0;
    case ArcKind::guaranteed:
      return 1;
    case ArcKind::restriction:
      return 2;
  }
  return 0;
}

ArcKind stronger(ArcKind a, ArcKind b) {
  return kind_rank(a) >= kind_rank(b) ? a : b;
}

}  // namespace

MgStg::MgStg(const SignalTable* signals) : signals_(signals) {
  check(signals != nullptr, "MgStg: null signal table");
  initial_values.assign(signals->count(), -1);
}

int MgStg::add_transition(const TransitionLabel& label) {
  check(label.signal >= 0 && label.signal < signals_->count(),
        "MgStg::add_transition: unknown signal");
  transitions_.push_back(label);
  alive_.push_back(true);
  return transition_count() - 1;
}

void MgStg::insert_arc(int from, int to, int tokens, ArcKind kind) {
  check(from >= 0 && from < transition_count() && alive_[from],
        "insert_arc: bad source");
  check(to >= 0 && to < transition_count() && alive_[to],
        "insert_arc: bad target");
  check(tokens >= 0, "insert_arc: negative tokens");
  if (from == to) {
    // Loop-only place: redundant when marked, dead when not (Section 5.3.3).
    check(tokens > 0, "insert_arc: token-free self-loop would deadlock '" +
                          transition_text(from) + "'");
    return;
  }
  const int existing = find_arc(from, to);
  if (existing != -1) {
    arcs_[existing].tokens = std::min(arcs_[existing].tokens, tokens);
    arcs_[existing].kind = stronger(arcs_[existing].kind, kind);
  } else {
    arcs_.push_back(MgArc{from, to, tokens, kind});
  }
  reduced_ = false;
}

void MgStg::remove_arc(int from, int to) {
  const int index = find_arc(from, to);
  check(index != -1, "remove_arc: arc not present: " + transition_text(from) +
                         " => " + transition_text(to));
  arcs_.erase(arcs_.begin() + index);
}

std::vector<int> MgStg::alive_transitions() const {
  std::vector<int> result;
  for (int t = 0; t < transition_count(); ++t)
    if (alive_[t]) result.push_back(t);
  return result;
}

int MgStg::find_arc(int from, int to) const {
  for (int i = 0; i < static_cast<int>(arcs_.size()); ++i)
    if (arcs_[i].from == from && arcs_[i].to == to) return i;
  return -1;
}

int MgStg::arc_tokens(int from, int to) const {
  const int index = find_arc(from, to);
  check(index != -1, "arc_tokens: arc not present");
  return arcs_[index].tokens;
}

ArcKind MgStg::arc_kind(int from, int to) const {
  const int index = find_arc(from, to);
  check(index != -1, "arc_kind: arc not present");
  return arcs_[index].kind;
}

void MgStg::set_arc_kind(int from, int to, ArcKind kind) {
  const int index = find_arc(from, to);
  check(index != -1, "set_arc_kind: arc not present");
  arcs_[index].kind = kind;
  if (kind == ArcKind::normal) reduced_ = false;
}

std::vector<int> MgStg::preds(int t) const {
  std::vector<int> result;
  for (const MgArc& arc : arcs_)
    if (arc.to == t) result.push_back(arc.from);
  return result;
}

std::vector<int> MgStg::succs(int t) const {
  std::vector<int> result;
  for (const MgArc& arc : arcs_)
    if (arc.from == t) result.push_back(arc.to);
  return result;
}

int MgStg::find_transition(const TransitionLabel& label) const {
  for (int t = 0; t < transition_count(); ++t)
    if (alive_[t] && transitions_[t] == label) return t;
  return -1;
}

std::string MgStg::transition_text(int t) const {
  check(t >= 0 && t < transition_count(), "transition_text: bad id");
  return label_text(transitions_[t], *signals_);
}

namespace {

/// Scratch for the shortcut-place test, reused across calls on a thread: an
/// intrusive out-arc list over the arc table and the Dijkstra state.
struct ShortcutSearch {
  std::vector<int> head;
  std::vector<int> next_arc;
  std::vector<std::int64_t> dist;
  std::vector<std::pair<std::int64_t, int>> heap;
  std::vector<char> removed;  // per sweep, by arc index

  void index(int transitions, const std::vector<MgArc>& arcs) {
    head.assign(transitions, -1);
    next_arc.resize(arcs.size());
    for (int i = 0; i < static_cast<int>(arcs.size()); ++i) {
      next_arc[i] = head[arcs[i].from];
      head[arcs[i].from] = i;
    }
  }

  /// Drops arc `i` from the out-arc list of its source.
  void unlink(const std::vector<MgArc>& arcs, int i) {
    int* link = &head[arcs[i].from];
    while (*link != i) link = &next_arc[*link];
    *link = next_arc[i];
  }

  /// Shortcut-place test (Figure 5.15): a path from -> to over the listed
  /// arcs other than `arc_index` whose token sum does not exceed the arc's
  /// own tokens. A budget-pruned Dijkstra: paths costlier than the arc can
  /// never witness redundancy and are cut immediately.
  bool shortcut_exists(const std::vector<MgArc>& arcs, int arc_index) {
    const MgArc& arc = arcs[arc_index];
    dist.assign(head.size(), -1);
    heap.clear();
    const std::int64_t budget = arc.tokens;
    dist[arc.from] = 0;
    heap.emplace_back(0, arc.from);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      const auto [d, v] = heap.back();
      heap.pop_back();
      if (d != dist[v]) continue;
      if (v == arc.to) return true;  // settled within the budget
      for (int i = head[v]; i != -1; i = next_arc[i]) {
        if (i == arc_index) continue;
        const std::int64_t candidate = d + arcs[i].tokens;
        if (candidate > budget) continue;
        const int next = arcs[i].to;
        if (dist[next] == -1 || candidate < dist[next]) {
          dist[next] = candidate;
          heap.emplace_back(candidate, next);
          std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        }
      }
    }
    return false;
  }
};

ShortcutSearch& shortcut_search() {
  thread_local ShortcutSearch search;
  return search;
}

}  // namespace

bool MgStg::arc_redundant(int arc_index) const {
  const MgArc& arc = arcs_[arc_index];
  if (arc.from == arc.to) return arc.tokens > 0;
  ShortcutSearch& search = shortcut_search();
  search.index(transition_count(), arcs_);
  return search.shortcut_exists(arcs_, arc_index);
}

template <typename Touched>
void MgStg::sweep_redundant_arcs(bool was_reduced, Touched touched) {
  // One pass in index order, which removes exactly what restarting from arc
  // 0 after every removal would: removing an arc only lengthens the other
  // arcs' witness paths, so an arc found non-redundant stays non-redundant.
  // For the same reason, on a graph that was reduced before the caller's
  // edit, the untouched arcs need no test. The out-arc lists are built
  // once; removed arcs are unlinked from them and erased together at the
  // end.
  auto checked = [was_reduced, &touched](const MgArc& arc) {
    return arc.kind == ArcKind::normal && (!was_reduced || touched(arc));
  };
  reduced_ = true;
  if (std::none_of(arcs_.begin(), arcs_.end(), checked)) return;
  ShortcutSearch& search = shortcut_search();
  search.index(transition_count(), arcs_);
  std::vector<char>& removed = search.removed;
  removed.assign(arcs_.size(), 0);
  bool any_removed = false;
  for (int i = 0; i < static_cast<int>(arcs_.size()); ++i) {
    if (!checked(arcs_[i]) || !search.shortcut_exists(arcs_, i)) continue;
    search.unlink(arcs_, i);
    removed[i] = 1;
    any_removed = true;
  }
  if (!any_removed) return;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < arcs_.size(); ++i)
    if (!removed[i]) arcs_[kept++] = arcs_[i];
  arcs_.resize(kept);
}

bool MgStg::check_reduced() {
  if (reduced_) return true;
  ShortcutSearch& search = shortcut_search();
  search.index(transition_count(), arcs_);
  for (int i = 0; i < static_cast<int>(arcs_.size()); ++i)
    if (arcs_[i].kind == ArcKind::normal && search.shortcut_exists(arcs_, i))
      return false;
  reduced_ = true;
  return true;
}

void MgStg::eliminate_redundant_arcs() {
  sweep_redundant_arcs(/*was_reduced=*/false, [](const MgArc&) {
    return true;
  });
}

void MgStg::project(const std::vector<bool>& keep_signal) {
  check(static_cast<int>(keep_signal.size()) == signals_->count(),
        "project: keep mask size mismatch");
  std::vector<MgArc> in;
  std::vector<MgArc> out;
  for (int t = 0; t < transition_count(); ++t) {
    if (!alive_[t] || keep_signal[transitions_[t].signal]) continue;
    const bool was_reduced = reduced_;
    // Splice causality through t: every predecessor connects to every
    // successor, accumulating the token counts of the two spliced places.
    in.clear();
    out.clear();
    for (const MgArc& arc : arcs_) {
      if (arc.to == t) in.push_back(arc);
      if (arc.from == t) out.push_back(arc);
    }
    for (const MgArc& p : in)
      for (const MgArc& s : out) insert_arc(p.from, s.to, p.tokens + s.tokens);
    std::erase_if(arcs_, [t](const MgArc& arc) {
      return arc.from == t || arc.to == t;
    });
    alive_[t] = false;
    // Splicing preserves every token distance between the surviving
    // transitions (each new arc p => s stands for the path p => t => s), so
    // only the spliced arcs can have become redundant.
    sweep_redundant_arcs(was_reduced, [&in, &out](const MgArc& arc) {
      const auto from_pred = [&arc](const MgArc& p) {
        return p.from == arc.from;
      };
      const auto to_succ = [&arc](const MgArc& s) { return s.to == arc.to; };
      return std::any_of(in.begin(), in.end(), from_pred) &&
             std::any_of(out.begin(), out.end(), to_succ);
    });
  }
}

void MgStg::relax(int from, int to) {
  const int index = find_arc(from, to);
  check(index != -1, "relax: arc not present: " + transition_text(from) +
                         " => " + transition_text(to));
  check(arcs_[index].kind == ArcKind::normal,
        "relax: only normal arcs may be relaxed");
  const bool was_reduced = reduced_;
  const int shared_tokens = arcs_[index].tokens;
  const std::vector<int> before = preds(from);
  const std::vector<int> after = succs(to);
  // Remove first so the inserted arcs do not merge against the relaxed one.
  arcs_.erase(arcs_.begin() + index);
  for (int b : before)
    insert_arc(b, to, arc_tokens(b, from) + shared_tokens);
  for (int d : after)
    insert_arc(from, d, arc_tokens(to, d) + shared_tokens);
  // Each inserted arc stands for a path through the relaxed arc, so only
  // arcs touching `from` or `to` can have become redundant: the inserted
  // ones, and (when a token-free cycle runs through the relaxed arc) arcs
  // into `from` or out of `to` that the inserted arcs now shortcut.
  sweep_redundant_arcs(was_reduced, [from, to](const MgArc& arc) {
    return arc.from == from || arc.from == to || arc.to == from ||
           arc.to == to;
  });
}

bool MgStg::structurally_before(int t1, int t2) const {
  if (t1 == t2) return false;
  std::vector<bool> visited(transition_count(), false);
  std::queue<int> frontier;
  frontier.push(t1);
  visited[t1] = true;
  while (!frontier.empty()) {
    const int v = frontier.front();
    frontier.pop();
    for (const MgArc& arc : arcs_) {
      if (arc.from != v || arc.tokens > 0 || visited[arc.to]) continue;
      if (arc.to == t2) return true;
      visited[arc.to] = true;
      frontier.push(arc.to);
    }
  }
  return false;
}

bool MgStg::structurally_concurrent(int t1, int t2) const {
  return t1 != t2 && !structurally_before(t1, t2) &&
         !structurally_before(t2, t1);
}

bool MgStg::live() const {
  base::WeightedGraph graph(transition_count());
  for (const MgArc& arc : arcs_)
    if (arc.tokens == 0) graph[arc.from].emplace_back(arc.to, 1);
  return !base::has_cycle(graph);
}

void MgStg::validate() const {
  for (const MgArc& arc : arcs_) {
    check(arc.from >= 0 && arc.from < transition_count() && alive_[arc.from],
          "validate: arc from dead transition");
    check(arc.to >= 0 && arc.to < transition_count() && alive_[arc.to],
          "validate: arc to dead transition");
    check(arc.from != arc.to, "validate: self-loop arc");
    check(arc.tokens >= 0, "validate: negative tokens");
  }
  for (std::size_t i = 0; i < arcs_.size(); ++i)
    for (std::size_t j = i + 1; j < arcs_.size(); ++j)
      check(arcs_[i].from != arcs_[j].from || arcs_[i].to != arcs_[j].to,
            "validate: duplicate arc");
  for (int t = 0; t < transition_count(); ++t) {
    if (!alive_[t]) continue;
    check(!preds(t).empty(), "validate: transition without predecessors: " +
                                 transition_text(t));
    check(!succs(t).empty(),
          "validate: transition without successors: " + transition_text(t));
  }
}

}  // namespace sitime::stg
