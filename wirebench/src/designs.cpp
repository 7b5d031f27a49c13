#include "designs.hpp"

#include <algorithm>
#include <sstream>

#include "benchdata/benchmarks.hpp"

namespace wirebench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t Rng::below(std::uint64_t bound) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(next()) * bound) >> 64);
}

double Rng::unit() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  Rng rng(seed ^ (tag * 0xd1b54a32d192ed03ull));
  return rng.next();
}

namespace {

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex << value;
  return out.str();
}

/// Collects arcs and marked places of one STG and renders the astg text.
struct StgText {
  std::string model;
  std::vector<std::string> inputs, outputs, internals;
  std::vector<std::string> arcs;  // "from to"
  std::vector<std::string> marking;

  void arc(const std::string& from, const std::string& to) {
    arcs.push_back(from + " " + to);
  }

  std::string render() const {
    std::string out = ".model " + model + "\n";
    auto declare = [&out](const char* directive,
                          const std::vector<std::string>& names) {
      if (names.empty()) return;
      out += directive;
      for (const std::string& name : names) out += " " + name;
      out += "\n";
    };
    declare(".inputs", inputs);
    declare(".outputs", outputs);
    declare(".internal", internals);
    out += ".graph\n";
    for (const std::string& line : arcs) out += line + "\n";
    out += ".marking {";
    for (const std::string& token : marking) out += " " + token;
    out += " }\n.end\n";
    return out;
  }
};

/// Equation of a C-element on (a, b) with output c: ab + ac + bc.
std::string c_element(const std::string& c, const std::string& a,
                      const std::string& b) {
  return c + " = " + a + "*" + b + " + " + a + "*" + c + " + " + b + "*" +
         c + ";\n";
}

}  // namespace

Design muller_pipeline(int stages, std::uint64_t state) {
  std::vector<std::string> names;
  names.push_back("li");
  for (int i = 1; i <= stages; ++i) names.push_back("c" + std::to_string(i));
  names.push_back("ra");
  const std::uint64_t mask =
      (std::uint64_t{1} << static_cast<unsigned>(stages + 2)) - 1;
  state &= mask;

  StgText stg;
  stg.model = "muller" + std::to_string(stages);
  stg.inputs = {"li", "ra"};
  for (int i = 1; i <= stages; ++i) stg.outputs.push_back(names[i]);
  // Each neighbour pair (a, b) runs the four-phase cycle a+ b+ a- b-;
  // its one token sits before whichever transition the pair's initial
  // values enable next.
  for (int i = 0; i <= stages; ++i) {
    const std::string& a = names[i];
    const std::string& b = names[i + 1];
    stg.arc(a + "+", b + "+");
    stg.arc(b + "+", a + "-");
    stg.arc(a + "-", b + "-");
    stg.arc(b + "-", a + "+");
    const bool va = (state >> i) & 1;
    const bool vb = (state >> (i + 1)) & 1;
    if (!va && !vb) stg.marking.push_back("<" + b + "-," + a + "+>");
    if (va && !vb) stg.marking.push_back("<" + a + "+," + b + "+>");
    if (va && vb) stg.marking.push_back("<" + b + "+," + a + "->");
    if (!va && vb) stg.marking.push_back("<" + a + "-," + b + "->");
  }

  Design design;
  design.name = "muller-n" + std::to_string(stages) + "-s" + hex(state);
  design.astg = stg.render();
  // ci = C(c(i-1), c(i+1)'): a stage fills when its predecessor is full
  // and its successor empty.
  for (int i = 1; i <= stages; ++i) {
    const std::string& prev = names[i - 1];
    const std::string next = names[i + 1] + "'";
    design.eqn += c_element(names[i], prev, next);
  }
  return design;
}

Design tap_chain(int length, std::uint64_t taps, std::uint64_t inverters,
                 int position) {
  taps |= std::uint64_t{1} << static_cast<unsigned>(length - 1);
  taps &= (std::uint64_t{1} << static_cast<unsigned>(length)) - 1;
  inverters &= (std::uint64_t{1} << static_cast<unsigned>(length)) - 1;
  auto x = [](int i) { return "x" + std::to_string(i); };
  auto tapped = [&](int i) { return ((taps >> (i - 1)) & 1) != 0; };
  // parity[i]: xi moves against r (an odd number of inverting stages up
  // to and including stage i).
  std::vector<bool> parity(length + 1, false);
  for (int i = 1; i <= length; ++i)
    parity[i] = parity[i - 1] != (((inverters >> (i - 1)) & 1) != 0);
  auto edge_of = [&](int i, bool rising) {
    return std::string(rising != parity[i] ? "+" : "-");
  };

  // One period of the (totally ordered) cycle, r rising first.
  std::vector<std::string> sequence;
  for (const bool rising : {true, false}) {
    sequence.push_back(std::string("r") + (rising ? "+" : "-"));
    for (int i = 1; i <= length; ++i)
      sequence.push_back(x(i) + edge_of(i, rising));
    sequence.push_back(std::string("y") + (rising ? "+" : "-"));
  }
  const int period = static_cast<int>(sequence.size());
  position = ((position % period) + period) % period;
  auto rank = [&](const std::string& transition) {
    const int at = static_cast<int>(
        std::find(sequence.begin(), sequence.end(), transition) -
        sequence.begin());
    return (at - position + period) % period;
  };

  StgText stg;
  stg.model = "tapchain" + std::to_string(length);
  stg.inputs = {"r"};
  stg.outputs = {"y"};
  for (int i = 1; i <= length; ++i) stg.internals.push_back(x(i));
  auto arc = [&](const std::string& from, const std::string& to) {
    stg.arc(from, to);
    // Marked iff `to` fires before `from` in the period starting at the
    // initial position.
    if (rank(to) < rank(from))
      stg.marking.push_back("<" + from + "," + to + ">");
  };
  for (const bool rising : {true, false}) {
    const std::string e = rising ? "+" : "-";
    arc("r" + e, x(1) + edge_of(1, rising));
    for (int i = 2; i <= length; ++i)
      arc(x(i - 1) + edge_of(i - 1, rising), x(i) + edge_of(i, rising));
    for (int i = 1; i <= length; ++i)
      if (tapped(i)) arc(x(i) + edge_of(i, rising), "y" + e);
    arc("y" + e, std::string("r") + (rising ? "-" : "+"));
  }

  Design design;
  design.name = "tapchain-k" + std::to_string(length) + "-t" + hex(taps) +
                "-i" + hex(inverters) + "-p" + std::to_string(position);
  design.astg = stg.render();
  for (int i = 1; i <= length; ++i) {
    const bool inverting = parity[i] != parity[i - 1];
    design.eqn += x(i) + " = " + (i == 1 ? std::string("r") : x(i - 1)) +
                  (inverting ? "'" : "") + ";\n";
  }
  // y = C(taps), each tap read in the polarity that rises with r.
  std::string all;
  std::string hold;
  for (int i = 1; i <= length; ++i) {
    if (!tapped(i)) continue;
    const std::string literal = x(i) + (parity[i] ? "'" : "");
    all += (all.empty() ? "" : "*") + literal;
    hold += " + y*" + literal;
  }
  design.eqn += "y = " + all + hold + ";\n";
  return design;
}

Design mode_select(const std::vector<int>& chain_lengths,
                   const std::vector<std::uint64_t>& buffers, int shared,
                   int position) {
  const int modes = static_cast<int>(chain_lengths.size());
  auto z = [](int mode, int stage) {
    return "z" + std::to_string(mode) + "_" + std::to_string(stage);
  };
  auto y = [](int stage) { return "y" + std::to_string(stage); };
  const std::string last_y = y(shared);
  // Mode 1 uses the plain r-/yi- transitions, mode j > 1 the instances
  // r-/j and yi-/j (one per choice branch, as in the nowick benchmark).
  auto instance = [](const std::string& transition, int mode) {
    return mode == 1 ? transition : transition + "/" + std::to_string(mode);
  };
  // Stage i of mode j is a buffer of its predecessor when bit i-1 of
  // buffers[j-1] is set, else a C-element of its predecessor and the last
  // shared stage; the last stage of a chain is always a C-element, so
  // every mode waits for the shared chain to reset.
  auto is_buffer = [&](int mode, int stage) {
    return stage < chain_lengths[mode - 1] &&
           ((buffers[mode - 1] >> (stage - 1)) & 1) != 0;
  };

  StgText stg;
  stg.model = "modesel" + std::to_string(modes);
  stg.inputs.push_back("r");
  for (int j = 1; j <= modes; ++j)
    stg.inputs.push_back("m" + std::to_string(j));
  for (int i = 1; i <= shared; ++i) stg.outputs.push_back(y(i));
  for (int j = 1; j <= modes; ++j)
    for (int i = 1; i <= chain_lengths[j - 1]; ++i)
      stg.outputs.push_back(z(j, i));

  stg.arc("pm", "r+");
  stg.arc("r+", y(1) + "+");
  for (int i = 2; i <= shared; ++i) stg.arc(y(i - 1) + "+", y(i) + "+");
  stg.arc(last_y + "+", "pc");
  for (int j = 1; j <= modes; ++j) {
    const std::string m = "m" + std::to_string(j);
    const int stages = chain_lengths[j - 1];
    stg.arc("pc", m + "+");
    stg.arc(m + "+", z(j, 1) + "+");
    for (int i = 2; i <= stages; ++i) stg.arc(z(j, i - 1) + "+", z(j, i) + "+");
    stg.arc(z(j, stages) + "+", instance("r-", j));
    stg.arc(instance("r-", j), instance(y(1) + "-", j));
    for (int i = 2; i <= shared; ++i)
      stg.arc(instance(y(i - 1) + "-", j), instance(y(i) + "-", j));
    stg.arc(instance("r-", j), m + "-");
    for (int i = 1; i <= stages; ++i) {
      stg.arc((i == 1 ? m : z(j, i - 1)) + "-", z(j, i) + "-");
      if (!is_buffer(j, i))
        stg.arc(instance(last_y + "-", j), z(j, i) + "-");
    }
    stg.arc(z(j, stages) + "-", "pm");
  }
  // Positions: 0 = idle, 1..shared = before the rise of that shared
  // stage, shared + 1 = at the mode choice.
  position = ((position % (shared + 2)) + shared + 2) % (shared + 2);
  if (position == 0)
    stg.marking.push_back("pm");
  else if (position == shared + 1)
    stg.marking.push_back("pc");
  else
    stg.marking.push_back("<" + (position == 1 ? std::string("r")
                                                 : y(position - 1)) +
                          "+," + y(position) + "+>");

  Design design;
  design.name = "modesel-m" + std::to_string(modes) + "-s" +
                std::to_string(shared) + "-L";
  for (int j = 1; j <= modes; ++j) {
    design.name += std::to_string(chain_lengths[j - 1]);
    std::uint64_t mask = 0;
    for (int i = 1; i <= chain_lengths[j - 1]; ++i)
      if (is_buffer(j, i)) mask |= std::uint64_t{1} << (i - 1);
    design.name += "b" + hex(mask) + (j < modes ? "." : "");
  }
  design.name += "-p" + std::to_string(position);
  design.astg = stg.render();
  design.eqn = y(1) + " = r;\n";
  for (int i = 2; i <= shared; ++i)
    design.eqn += y(i) + " = " + y(i - 1) + ";\n";
  for (int j = 1; j <= modes; ++j)
    for (int i = 1; i <= chain_lengths[j - 1]; ++i) {
      const std::string prev = i == 1 ? "m" + std::to_string(j) : z(j, i - 1);
      design.eqn += is_buffer(j, i) ? z(j, i) + " = " + prev + ";\n"
                                    : c_element(z(j, i), prev, last_y);
    }
  return design;
}

std::vector<Design> bundled_designs() {
  std::vector<Design> designs;
  for (const auto& bench : sitime::benchdata::all_benchmarks()) {
    const sitime::stg::Stg stg = sitime::benchdata::load_stg(bench);
    const sitime::circuit::Circuit circuit =
        sitime::benchdata::load_circuit(bench, stg);
    designs.push_back(Design{bench.name, bench.astg, circuit.to_eqn()});
  }
  return designs;
}

namespace {

std::vector<std::string> words(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string word;
  while (in >> word) out.push_back(word);
  return out;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

std::string blank(Rng& rng) {
  static const char* const kBlanks[] = {" ", "  ", "\t", " \t", "   "};
  return kBlanks[rng.below(5)];
}

std::string comment(Rng& rng) {
  return "# rev " + hex(rng.next() & 0xffffff) + "\n";
}

}  // namespace

Design textual_variant(const Design& design, Rng& rng) {
  Design out;
  out.name = design.name;
  const std::vector<std::string> lines = lines_of(design.astg);
  bool in_graph = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::vector<std::string> tokens = words(lines[i]);
    if (tokens.empty()) continue;
    if (rng.chance(0.15)) out.astg += comment(rng);
    if (rng.chance(0.05)) out.astg += blank(rng) + "\n";
    if (tokens[0] == ".graph") in_graph = true;
    if (tokens[0][0] == '.') {
      if (tokens[0] == ".marking") {
        // Keep "<a,b>" units together while permuting.
        const std::string& line = lines[i];
        const auto open = line.find('{');
        const auto close = line.rfind('}');
        std::vector<std::string> marks =
            words(line.substr(open + 1, close - open - 1));
        for (std::size_t k = marks.size(); k > 1; --k)
          std::swap(marks[k - 1], marks[rng.below(k)]);
        out.astg += ".marking" + blank(rng) + "{";
        for (const std::string& mark : marks) out.astg += blank(rng) + mark;
        out.astg += blank(rng) + "}\n";
        continue;
      }
      std::string rendered = tokens[0];
      for (std::size_t k = 1; k < tokens.size(); ++k)
        rendered += blank(rng) + tokens[k];
      out.astg += rendered + "\n";
      continue;
    }
    if (in_graph) {
      // Merge following lines of the same source: same arcs, same order.
      while (i + 1 < lines.size() && rng.chance(0.6)) {
        const std::vector<std::string> next = words(lines[i + 1]);
        if (next.size() < 2 || next[0] != tokens[0]) break;
        tokens.insert(tokens.end(), next.begin() + 1, next.end());
        ++i;
      }
    }
    std::string rendered = rng.chance(0.2) ? blank(rng) : "";
    rendered += tokens[0];
    for (std::size_t k = 1; k < tokens.size(); ++k)
      rendered += blank(rng) + tokens[k];
    if (rng.chance(0.2)) rendered += blank(rng);
    out.astg += rendered + "\n";
  }

  for (const std::string& line : lines_of(design.eqn)) {
    if (words(line).empty()) continue;
    if (rng.chance(0.15)) out.eqn += comment(rng);
    std::string rendered;
    for (const char c : line) {
      if (c == ' ') continue;
      if (c == '+' || c == '=' || c == '*') {
        rendered += blank(rng);
        rendered += c;
        rendered += blank(rng);
        // An equation may continue on the next line until its ';'.
        if (c == '+' && rng.chance(0.1)) rendered += "\n";
      } else {
        rendered += c;
      }
    }
    out.eqn += rendered + "\n";
  }
  return out;
}

std::vector<GateEquation> split_netlist(const std::string& eqn) {
  std::vector<GateEquation> gates;
  std::string statement;
  for (const char c : eqn) {
    if (c != ';') {
      statement += c;
      continue;
    }
    const auto eq = statement.find('=');
    GateEquation gate;
    for (const std::string& word : words(statement.substr(0, eq)))
      gate.output += word;
    std::string cube;
    for (const char d : statement.substr(eq + 1) + "+") {
      if (d == '+') {
        if (!cube.empty()) gate.cubes.push_back(cube);
        cube.clear();
      } else if (d != ' ' && d != '\t' && d != '\n' && d != '\r') {
        cube += d;
      }
    }
    gates.push_back(std::move(gate));
    statement.clear();
  }
  return gates;
}

std::string join_netlist(const std::vector<GateEquation>& gates) {
  std::string out;
  for (const GateEquation& gate : gates) {
    out += gate.output + " =";
    for (std::size_t i = 0; i < gate.cubes.size(); ++i)
      out += (i == 0 ? " " : " + ") + gate.cubes[i];
    out += ";\n";
  }
  return out;
}

}  // namespace wirebench
