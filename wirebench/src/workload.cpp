#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "core/report.hpp"
#include "reference.hpp"

namespace wirebench {

namespace {

/// JSON request line for `design` in the given mode.
std::string request_line(const Design& design, bool derive) {
  using sitime::core::json_escape;
  return "{\"design\":{\"name\":\"" + json_escape(design.name) +
         "\",\"astg\":\"" + json_escape(design.astg) + "\",\"eqn\":\"" +
         json_escape(design.eqn) + "\"},\"mode\":\"" +
         (derive ? "derive" : "verify") + "\"}\n";
}

}  // namespace

std::vector<std::string> Workload::server_flags() const {
  return {"--jobs", std::to_string(kJobs)};
}

std::vector<int> Workload::take_new_designs() {
  std::vector<int> fresh;
  for (; reported_designs_ < designs.size(); ++reported_designs_)
    fresh.push_back(static_cast<int>(reported_designs_));
  return fresh;
}

int Workload::add_design(Design design) {
  designs.push_back(std::move(design));
  return static_cast<int>(designs.size()) - 1;
}

int Workload::add_line(int design, bool derive, const Design& text) {
  lines.push_back(Line{request_line(text, derive), design, derive});
  return static_cast<int>(lines.size()) - 1;
}

namespace {

/// A probe design no workload stream ever draws (streams start at four
/// pipeline stages), so its STG and gates share no cache key with them.
Design probe_design() { return muller_pipeline(2, 0); }

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t k = items.size(); k > 1; --k)
    std::swap(items[k - 1], items[rng.below(k)]);
}

/// A mode-select draw — 2-4 modes of 1-5 stages with a random buffer /
/// C-element mix behind 1-3 shared stages — plus one key per MG component.
/// Two designs that agree on a component's key share that component's
/// gate-slice keys (the component's signal ids and structure coincide),
/// whatever their other modes look like.
struct ModeSelectDraw {
  Design design;
  std::vector<std::string> component_keys;
};

ModeSelectDraw draw_mode_select(Rng& rng) {
  const int modes = 2 + static_cast<int>(rng.below(3));
  const int shared = 1 + static_cast<int>(rng.below(3));
  const int position = static_cast<int>(rng.below(shared + 2));
  std::vector<int> chains(modes);
  std::vector<std::uint64_t> buffers(modes);
  ModeSelectDraw draw;
  int prefix = 0;
  for (int j = 0; j < modes; ++j) {
    chains[j] = 1 + static_cast<int>(rng.below(5));
    buffers[j] = rng.next() & ((std::uint64_t{1} << (chains[j] - 1)) - 1);
    draw.component_keys.push_back(
        std::to_string(modes) + "/" + std::to_string(shared) + "/" +
        std::to_string(position) + "/" + std::to_string(j) + "/" +
        std::to_string(prefix) + "/" + std::to_string(chains[j]) + "/" +
        std::to_string(buffers[j]));
    prefix += chains[j];
  }
  draw.design = mode_select(chains, buffers, shared, position);
  return draw;
}

/// Small and medium generated designs (0.2–10 ms cold), one family per
/// draw in rotation.
Design small_design(int family, Rng& rng) {
  switch (family % 3) {
    case 0:
      return muller_pipeline(4 + static_cast<int>(rng.below(6)), rng.next());
    case 1: {
      const int length = 4 + static_cast<int>(rng.below(4));
      return tap_chain(length, rng.next(), rng.next(),
                       static_cast<int>(rng.below(2 * (length + 2))));
    }
    default:
      return draw_mode_select(rng).design;
  }
}

// ---- cold_mix ---------------------------------------------------------------

/// Every request is a design the server has never seen, in derive mode,
/// with no --cache-dir. The server's byte budget (kCacheMb) fills within
/// the first seconds, so its peak memory is set by the budget, not by how
/// many designs a run gets through.
///
/// Each connection draws from blocks of kBlock slots with a fixed family
/// and size per slot, so the cost mix is the same for every seed; the seed
/// picks the order and each draw's structure (initial state, taps,
/// inverting stages, per-mode stage mix). The tail — 3% Muller pipelines
/// of 13 stages (sg.global bound) and 3% ten-stage tap chains (expand
/// bound), both about 35 ms cold — is one group of similar cost, so the
/// 99th percentile sits inside it rather than on the edge between two.
class ColdMix : public Workload {
 public:
  explicit ColdMix(std::uint64_t seed) : Workload("cold_mix", seed) {
    for (int c = 0; c < kConnections; ++c)
      streams_.push_back(Stream{Rng(derive_seed(seed, 10 + c)), {}, {}, 0});
    const Design probe = probe_design();
    probe_ = add_line(add_design(probe), true, probe);
  }

  std::vector<std::string> server_flags() const override {
    std::vector<std::string> flags = Workload::server_flags();
    flags.insert(flags.end(), {"--cache-mb", std::to_string(kCacheMb)});
    return flags;
  }

  int next(int connection) override {
    Stream& stream = streams_[connection];
    if (stream.cursor >= stream.lines.size()) return -1;
    return stream.lines[stream.cursor++];
  }

  void extend_round() override {
    for (Stream& stream : streams_)
      for (int i = 0; i < kChunk; ++i) {
        const Design design = draw(stream);
        stream.lines.push_back(add_line(add_design(design), true, design));
      }
  }

 private:
  enum class Family { mode_select, tap_chain, tap_tail, muller };
  struct Slot {
    Family family;
    int size;  // stages (mode select: unused)
  };
  static constexpr int kBlock = 100;
  static constexpr int kCacheMb = 32;
  /// Redraws before a slot whose variant space ran out falls back to a
  /// seven-stage tap chain (taps × inverters × positions: 147,456).
  static constexpr int kAttempts = 200;
  static constexpr int kChunk = 8;

  /// One block; cold serial cost per draw on the recorded machine.
  static std::vector<Slot> block() {
    std::vector<Slot> slots;
    auto add = [&](int count, Family family, int size) {
      slots.insert(slots.end(), count, Slot{family, size});
    };
    add(16, Family::mode_select, 0);  // 1-3 ms, pn.hack
    for (int stages = 4; stages <= 7; ++stages)
      add(stages < 6 ? 8 : 7, Family::tap_chain, stages);  // 0.4-1.2 ms
    for (int stages = 8; stages <= 10; ++stages)
      add(stages < 10 ? 15 : 14, Family::muller, stages);  // 2.8-6.4 ms
    add(4, Family::muller, 11);      // 12 ms
    add(3, Family::muller, 13);      // ~38 ms, the decompose tail
    add(3, Family::tap_tail, 10);    // ~33 ms, the expand tail
    return slots;
  }

  struct Stream {
    Rng rng;
    std::vector<Slot> slots;  // what is left of the current block
    std::vector<int> lines;
    std::size_t cursor = 0;
  };

  static Design draw_slot(const Slot& slot, Rng& rng) {
    switch (slot.family) {
      case Family::tap_chain:
        return tap_chain(slot.size, rng.next(), rng.next(),
                         static_cast<int>(rng.below(2 * (slot.size + 2))));
      case Family::tap_tail:
        // Every stage tapped but one of x1..x9.
        return tap_chain(slot.size,
                         ~(std::uint64_t{1} << rng.below(slot.size - 1)),
                         rng.next(),
                         static_cast<int>(rng.below(2 * (slot.size + 2))));
      default:
        return muller_pipeline(slot.size, rng.next());
    }
  }

  Design draw(Stream& stream) {
    if (stream.slots.empty()) {
      stream.slots = block();
      shuffle(stream.slots, stream.rng);
    }
    Slot slot = stream.slots.back();
    stream.slots.pop_back();
    // Structure decides the cache keys, so a repeat is redrawn rather than
    // sent. A mode-select design must be new in every MG component, not
    // just as a whole.
    for (int attempt = 0;; ++attempt) {
      if (attempt == kAttempts) slot = Slot{Family::tap_chain, 7};
      if (slot.family == Family::mode_select) {
        ModeSelectDraw draw = draw_mode_select(stream.rng);
        const bool fresh = std::none_of(
            draw.component_keys.begin(), draw.component_keys.end(),
            [&](const std::string& key) { return used_.count(key) != 0; });
        if (!fresh) continue;
        used_.insert(draw.component_keys.begin(), draw.component_keys.end());
        used_.insert(draw.design.name);
        return std::move(draw.design);
      }
      Design design = draw_slot(slot, stream.rng);
      if (used_.insert(design.name).second) return design;
    }
  }

  std::vector<Stream> streams_;
  std::set<std::string> used_;
};

// ---- warm_hits --------------------------------------------------------------

/// A seeded Zipf stream over a working set of kWorkingSet designs (the
/// bundled suite plus generated ones), half verify and half derive. The
/// working set is spilled into the --cache-dir during set-up, so the
/// server boots warm and every request is a hit; kVariantShare of the
/// requests carry a textual variant that differs in bytes but is
/// canonically equal.
class WarmHits : public Workload {
 public:
  explicit WarmHits(std::uint64_t seed) : Workload("warm_hits", seed) {
    Rng gen(derive_seed(seed, 20));
    std::set<std::string> names;
    for (Design& design : bundled_designs()) {
      names.insert(design.name);
      add_design(std::move(design));
    }
    for (int family = 0; static_cast<int>(designs.size()) < kWorkingSet;) {
      Design design = small_design(family, gen);
      if (!names.insert(design.name).second) continue;
      ++family;
      add_design(std::move(design));
    }
    choices_.resize(designs.size());
    for (std::size_t d = 0; d < designs.size(); ++d) {
      for (int mode = 0; mode < 2; ++mode) {
        Choice::Mode& lines_of = choices_[d].modes[mode];
        lines_of.canonical =
            add_line(static_cast<int>(d), mode == 1, designs[d]);
        for (int& variant : lines_of.variants) {
          const Design text = textual_variant(designs[d], gen);
          if (!canonically_equal(text, designs[d]))
            throw std::runtime_error("textual variant of " + designs[d].name +
                                     " is not canonically equal");
          variant = add_line(static_cast<int>(d), mode == 1, text);
        }
      }
    }
    // Zipf(kZipfExponent) popularity over a seeded rank order.
    for (std::size_t d = 0; d < designs.size(); ++d)
      by_rank_.push_back(static_cast<int>(d));
    shuffle(by_rank_, gen);
    double total = 0.0;
    for (std::size_t rank = 1; rank <= designs.size(); ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& point : cdf_) point /= total;
    for (int c = 0; c < kConnections; ++c)
      rngs_.push_back(Rng(derive_seed(seed, 30 + c)));
    probe_ = choices_[by_rank_[0]].modes[1].canonical;
  }

  Store store() const override { return Store::prefilled; }
  std::vector<int> store_designs() const override {
    std::vector<int> all;
    for (std::size_t d = 0; d < designs.size(); ++d)
      all.push_back(static_cast<int>(d));
    return all;
  }
  bool unbounded() const override { return true; }

  int next(int connection) override {
    Rng& rng = rngs_[connection];
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), rng.unit()) -
        cdf_.begin());
    const Choice::Mode& mode =
        choices_[by_rank_[std::min(rank, by_rank_.size() - 1)]]
            .modes[rng.below(2)];
    if (rng.chance(kVariantShare))
      return mode.variants[rng.below(kVariants)];
    return mode.canonical;
  }

 private:
  static constexpr int kWorkingSet = 300;
  static constexpr int kVariants = 4;
  static constexpr double kVariantShare = 0.25;
  static constexpr double kZipfExponent = 1.0;

  struct Choice {
    struct Mode {
      int canonical = -1;
      int variants[kVariants] = {};
    };
    Mode modes[2];  // [0] verify, [1] derive
  };
  std::vector<Choice> choices_;
  std::vector<int> by_rank_;
  std::vector<double> cdf_;
  std::vector<Rng> rngs_;
};

// ---- edit_loop --------------------------------------------------------------

/// Each connection is a designer iterating on one base design:
/// connection 0 on the thesis design imec-ram-read-sbuf (11 gates),
/// connection 1 on a generated 10-stage Muller pipeline (4,096 global
/// states: decompose-heavy, so decomposition-cache hits matter, and the
/// request times sit well above the host's fsync and wake-up jitter). An iteration edits one gate —
/// mostly a function-preserving re-arrangement of its cubes (duplicated
/// and reordered, as in bench/incremental_flow), sometimes an edit that
/// drops a C-element's hold terms and so flips the verdict to not speed
/// independent — and sends verify, then derive (a lazy upgrade).
/// Sometimes the designer reverts to an earlier version instead (a hit
/// while it is still resident).
class EditLoop : public Workload {
 public:
  explicit EditLoop(std::uint64_t seed) : Workload("edit_loop", seed) {
    Rng pick(derive_seed(seed, 40));
    for (const Design& design : bundled_designs())
      if (design.name == "imec-ram-read-sbuf")
        sessions_.push_back(session(design, 0));
    sessions_.push_back(session(muller_pipeline(10, pick.next()), 1));
    const Design probe = probe_design();
    // A verify probe: a speed-independent verify-only entry is not
    // spilled, so set-up time carries no fsync.
    probe_ = add_line(add_design(probe), false, probe);
  }

  Store store() const override { return Store::fresh; }
  std::vector<std::string> server_flags() const override {
    std::vector<std::string> flags = Workload::server_flags();
    flags.insert(flags.end(), {"--cache-mb", std::to_string(kCacheMb)});
    return flags;
  }

  int next(int connection) override {
    Session& session = sessions_[connection];
    if (session.cursor >= session.lines.size()) return -1;
    return session.lines[session.cursor++];
  }

  void extend_round() override {
    for (Session& session : sessions_)
      for (int i = 0; i < kChunk; ++i) iterate(session);
  }

  /// Design-cache budget (MiB) the session outgrows within a second: a
  /// version's entry is charged ~25 KB, so resident versions are evicted
  /// and, under the shed priority design > decomposition > gate slice,
  /// decompositions and gate slices are shed.
  static constexpr int kCacheMb = 8;

  bool requires_si(int design) const override {
    (void)design;
    return false;  // flip edits are meant to break speed independence
  }

 private:
  static constexpr int kChunk = 8;
  static constexpr double kRevertShare = 0.1;
  static constexpr double kFlipShare = 0.1;
  static constexpr std::size_t kRevertDepth = 32;

  using Version = std::vector<std::vector<int>>;  // per gate: cube order

  struct Session {
    Rng rng{0};
    Design base;
    std::vector<GateEquation> gates;
    std::vector<int> hold_gates;  // gates with a cube reading their output
    Version current;
    std::vector<Version> history;
    std::map<std::string, int> design_of;  // netlist text -> design
    std::vector<int> lines;
    std::size_t cursor = 0;
  };

  Session session(const Design& base, int index) {
    Session s;
    s.rng = Rng(derive_seed(seed_, 50 + index));
    s.base = base;
    s.gates = split_netlist(base.eqn);
    for (std::size_t g = 0; g < s.gates.size(); ++g) {
      std::vector<int> order;
      bool holds = false;
      for (std::size_t k = 0; k < s.gates[g].cubes.size(); ++k) {
        order.push_back(static_cast<int>(k));
        holds |= reads_output(s.gates[g], s.gates[g].cubes[k]);
      }
      s.current.push_back(order);
      if (holds && s.gates[g].cubes.size() > 1)
        s.hold_gates.push_back(static_cast<int>(g));
    }
    return s;
  }

  static bool reads_output(const GateEquation& gate, const std::string& cube) {
    std::string literal;
    for (const char c : cube + "*") {
      if (c == '*') {
        if (literal == gate.output) return true;
        literal.clear();
      } else if (c != '\'') {
        literal += c;
      }
    }
    return false;
  }

  /// A new cube order for `gate`: every cube once or twice (a single-cube
  /// gate up to three times), shuffled — the same function, a new text.
  static std::vector<int> rearrange(const GateEquation& gate, Rng& rng) {
    std::vector<int> order;
    const int cubes = static_cast<int>(gate.cubes.size());
    for (int k = 0; k < cubes; ++k) {
      const int copies = 1 + static_cast<int>(rng.below(cubes == 1 ? 3 : 2));
      order.insert(order.end(), copies, k);
    }
    shuffle(order, rng);
    return order;
  }

  std::string render(const Session& s, const Version& version,
                     int flipped_gate) const {
    std::vector<GateEquation> gates = s.gates;
    for (std::size_t g = 0; g < gates.size(); ++g) {
      std::vector<std::string> cubes;
      for (int k : version[g]) {
        const std::string& cube = s.gates[g].cubes[k];
        if (static_cast<int>(g) == flipped_gate &&
            reads_output(s.gates[g], cube))
          continue;
        cubes.push_back(cube);
      }
      gates[g].cubes = cubes;
    }
    return join_netlist(gates);
  }

  void iterate(Session& s) {
    const double u = s.rng.unit();
    std::string eqn;
    if (u < kRevertShare && !s.history.empty()) {
      const std::size_t depth =
          std::min(kRevertDepth, s.history.size());
      s.current = s.history[s.history.size() - 1 - s.rng.below(depth)];
      eqn = render(s, s.current, -1);
    } else if (u < kRevertShare + kFlipShare && !s.hold_gates.empty()) {
      const int gate = s.hold_gates[s.rng.below(s.hold_gates.size())];
      eqn = render(s, s.current, gate);
    } else {
      const std::size_t g = s.rng.below(s.gates.size());
      std::vector<int> order = rearrange(s.gates[g], s.rng);
      while (order == s.current[g]) order = rearrange(s.gates[g], s.rng);
      s.current[g] = std::move(order);
      s.history.push_back(s.current);
      eqn = render(s, s.current, -1);
    }
    auto [at, inserted] = s.design_of.emplace(eqn, -1);
    if (inserted) {
      Design version{s.base.name + "@" + std::to_string(s.design_of.size()),
                     s.base.astg, eqn};
      at->second = add_design(std::move(version));
    }
    const Design& design = designs[at->second];
    s.lines.push_back(add_line(at->second, false, design));
    s.lines.push_back(add_line(at->second, true, design));
  }

  std::vector<Session> sessions_;
};

}  // namespace

std::unique_ptr<Workload> Workload::make(const std::string& name,
                                         std::uint64_t seed) {
  if (name == "cold_mix") return std::make_unique<ColdMix>(seed);
  if (name == "warm_hits") return std::make_unique<WarmHits>(seed);
  if (name == "edit_loop") return std::make_unique<EditLoop>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace wirebench
