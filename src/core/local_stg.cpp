#include "core/local_stg.hpp"

#include <algorithm>
#include <string>

#include "base/error.hpp"
#include "base/marking_set.hpp"
#include "sg/sg_cache.hpp"

namespace sitime::core {

stg::MgStg mg_from_component(const stg::Stg& stg,
                             const pn::MgComponent& component,
                             const std::vector<int>& initial_values) {
  stg::MgStg mg(&stg.signals);
  check(static_cast<int>(initial_values.size()) == stg.signals.count(),
        "mg_from_component: initial values size mismatch");
  // Stable mapping: MgStg transition ids follow the component's order.
  std::vector<int> to_local(stg.net.transition_count(), -1);
  for (int t : component.transitions)
    to_local[t] = mg.add_transition(stg.labels[t]);
  for (int p : component.places) {
    int from = -1;
    int to = -1;
    for (int t : stg.net.place_inputs(p))
      if (to_local[t] != -1) from = to_local[t];
    for (int t : stg.net.place_outputs(p))
      if (to_local[t] != -1) to = to_local[t];
    check(from != -1 && to != -1,
          "mg_from_component: dangling place '" + stg.net.place_name(p) +
              "' in component");
    mg.insert_arc(from, to, stg.net.initial_marking()[p]);
  }
  mg.initial_values = initial_values;
  mg.validate();
  check(mg.live(), "mg_from_component: component has a token-free cycle");
  // Checked once here instead of swept after the first splice of every
  // gate's projection (the result is the same either way).
  mg.check_reduced();
  return mg;
}

stg::MgStg local_stg(const stg::MgStg& component_stg,
                     const circuit::Gate& gate) {
  stg::MgStg local = component_stg;
  std::vector<bool> keep(local.signals().count(), false);
  keep[gate.output] = true;
  for (int fanin : gate.fanins) keep[fanin] = true;
  local.project(keep);
  local.validate();
  return local;
}

ArcType classify_arc(const stg::MgStg& mg, const stg::MgArc& arc,
                     int gate_signal) {
  const int from_signal = mg.label(arc.from).signal;
  const int to_signal = mg.label(arc.to).signal;
  if (from_signal == to_signal) return ArcType::same_signal;
  if (to_signal == gate_signal) return ArcType::input_to_output;
  if (from_signal == gate_signal) return ArcType::output_to_input;
  return ArcType::input_to_input;
}

std::vector<int> relaxable_arcs(const stg::MgStg& mg, int gate_signal) {
  std::vector<int> result;
  const auto& arcs = mg.arcs();
  for (int i = 0; i < static_cast<int>(arcs.size()); ++i) {
    if (arcs[i].kind != stg::ArcKind::normal) continue;
    if (classify_arc(mg, arcs[i], gate_signal) == ArcType::input_to_input)
      result.push_back(i);
  }
  return result;
}

namespace {

/// Appends a string as length + bytes packed eight to a word.
void append_text(const std::string& text, std::vector<std::uint64_t>& out) {
  out.push_back(text.size());
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    word = (word << 8) | static_cast<unsigned char>(text[i]);
    if (i % 8 == 7) {
      out.push_back(word);
      word = 0;
    }
  }
  out.push_back(word);
}

void append_cover(const boolfn::Cover& cover,
                  std::vector<std::uint64_t>& out) {
  out.push_back(cover.cubes.size());
  for (const boolfn::Cube& cube : cover.cubes) {
    out.push_back(cube.pos);
    out.push_back(cube.neg);
  }
}

}  // namespace

ComponentKeyBase component_key_base(
    const stg::MgStg& component, const circuit::AdversaryAnalysis* adversary,
    int order_policy, int max_steps, int max_depth) {
  std::vector<std::uint64_t> words;
  // Phase discriminator: the verify verdict ignores adversary weights and
  // expand knobs, so verify bases (tag 1) and derive bases (tag 2) never
  // alias even for the same component.
  words.push_back(adversary != nullptr ? 2 : 1);

  // The token-game content, shared verbatim with the SG cache key.
  sg::append_sg_key_words(component, words);

  // The SG key deliberately omits arc kinds (they do not change the state
  // graph) and label occurrence indices; both steer the relaxation loop
  // and name the emitted constraints, so the job key adds them.
  std::uint64_t word = 0;
  const auto& arcs = component.arcs();
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    word = (word << 2) | static_cast<std::uint64_t>(arcs[i].kind);
    if (i % 32 == 31) {
      words.push_back(word);
      word = 0;
    }
  }
  words.push_back(word);
  std::vector<int> alive;  // ids, ascending (MgStg ids are stable)
  for (int t = 0; t < component.transition_count(); ++t)
    if (component.alive(t)) alive.push_back(t);
  word = 0;
  for (std::size_t i = 0; i < alive.size(); ++i) {
    word = (word << 16) |
           (static_cast<std::uint64_t>(component.label(alive[i]).occurrence) &
            0xffff);
    if (i % 4 == 3) {
      words.push_back(word);
      word = 0;
    }
  }
  words.push_back(word);

  // The signals a job of this component can mention: cached slices store
  // raw signal ids, so reuse is only sound when those ids carry the same
  // names and kinds — pack all three. (A gate fan-in outside the
  // component never reaches a slice: constraints relate transitions of
  // the projection, and covers consult fan-ins by id only.)
  std::vector<int> signals;
  for (int t : alive) signals.push_back(component.label(t).signal);
  std::sort(signals.begin(), signals.end());
  signals.erase(std::unique(signals.begin(), signals.end()), signals.end());
  words.push_back(signals.size());
  for (int s : signals) {
    words.push_back((static_cast<std::uint64_t>(s) << 8) |
                    static_cast<std::uint64_t>(component.signals().kind(s)));
    append_text(component.signals().name(s), words);
  }

  if (adversary != nullptr) {
    // Derive-phase extras: the expand policy knobs and the full
    // adversary-weight matrix over the component's alive transition
    // pairs. Every weight the relaxation can consult is a pair of labels
    // of the local STG — a subset of the component's labels (projection,
    // relax, and OR-causality decomposition never add transitions) — so
    // the matrix captures the job's entire dependence on the
    // implementation STG.
    words.push_back((static_cast<std::uint64_t>(order_policy) << 48) |
                    (static_cast<std::uint64_t>(max_depth) << 32) |
                    static_cast<std::uint64_t>(max_steps));
    for (int from : alive)
      for (int to : alive) {
        if (from == to) continue;
        words.push_back(static_cast<std::uint64_t>(
            adversary->weight(component.label(from), component.label(to))));
      }
  }
  ComponentKeyBase base;
  base.hash = base::MarkingSet::hash_words(words.data(),
                                           static_cast<int>(words.size()));
  base.words = std::make_shared<const std::vector<std::uint64_t>>(
      std::move(words));
  return base;
}

GateJobKey gate_job_key(const ComponentKeyBase& component_base,
                        const circuit::Gate& gate) {
  GateJobKey key;
  key.base = component_base;
  std::vector<std::uint64_t>& words = key.gate_words;

  // The gate itself: the projection keep-set is {output} + fan-ins, and
  // conformance and hazard checks evaluate the covers as stored.
  words.push_back(static_cast<std::uint64_t>(gate.output));
  append_cover(gate.up, words);
  append_cover(gate.down, words);
  words.push_back(gate.fanins.size());
  for (int fanin : gate.fanins)
    words.push_back(static_cast<std::uint64_t>(fanin));

  // Continue the component digest over the suffix: identical to hashing
  // the concatenated words, at the cost of the suffix alone.
  key.hash = base::MarkingSet::hash_words(
      words.data(), static_cast<int>(words.size()), component_base.hash);
  return key;
}

GateJobKey gate_job_key(const stg::MgStg& component,
                        const circuit::Gate& gate,
                        const circuit::AdversaryAnalysis* adversary,
                        int order_policy, int max_steps, int max_depth) {
  return gate_job_key(
      component_key_base(component, adversary, order_policy, max_steps,
                         max_depth),
      gate);
}

}  // namespace sitime::core
