#include "layers.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/thread_pool.hpp"
#include "circuit/circuit.hpp"
#include "core/artifact_codec.hpp"
#include "core/expand.hpp"
#include "core/local_stg.hpp"
#include "core/report.hpp"
#include "pn/hack.hpp"
#include "sg/state_graph.hpp"
#include "stg/astg.hpp"
#include "svc/analysis_service.hpp"
#include "svc/disk_store.hpp"
#include "svc/json.hpp"

namespace wirebench::layers {

const char* layer_name(Layer layer) {
  static const char* const kNames[kLayers] = {
      "svc.json",   "stg.parse",   "stg.canon",   "circuit.netlist",
      "sg.global",  "pn.hack",     "core.project", "sg.local",
      "core.expand", "core.render", "core.codec",  "svc.disk",
      "svc.service", "base.pool"};
  return kNames[layer];
}

namespace {

using Clock = std::chrono::steady_clock;

std::atomic<bool> g_enabled{false};

/// Per-thread totals, owned by the registry so snapshot() can read the
/// totals of pool workers that outlive any one replay.
std::mutex g_registry_mutex;
std::vector<std::unique_ptr<Totals>>& registry() {
  static std::vector<std::unique_ptr<Totals>> totals;
  return totals;
}

Totals& thread_totals() {
  thread_local Totals* mine = [] {
    auto owned = std::make_unique<Totals>();
    Totals* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    registry().push_back(std::move(owned));
    return raw;
  }();
  return *mine;
}

/// Time spent in wrapped calls nested in each open timer of this thread.
thread_local std::vector<double> t_child_seconds;

class Span {
 public:
  explicit Span(Layer layer)
      : layer_(layer), on_(g_enabled.load(std::memory_order_relaxed)) {
    if (!on_) return;
    t_child_seconds.push_back(0.0);
    start_ = Clock::now();
  }
  ~Span() {
    if (!on_) return;
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start_).count();
    const double nested = t_child_seconds.back();
    t_child_seconds.pop_back();
    Totals& totals = thread_totals();
    ++totals.calls[layer_];
    totals.busy_s[layer_] += seconds - nested;
    totals.inclusive_s[layer_] += seconds;
    if (!t_child_seconds.empty()) t_child_seconds.back() += seconds;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void count(Count which, long long amount) {
    if (on_) thread_totals().counts[which] += amount;
  }

 private:
  Layer layer_;
  bool on_;
  Clock::time_point start_;
};

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

Totals snapshot() {
  Totals sum;
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& totals : registry()) {
    for (int l = 0; l < kLayers; ++l) {
      sum.calls[l] += totals->calls[l];
      sum.busy_s[l] += totals->busy_s[l];
      sum.inclusive_s[l] += totals->inclusive_s[l];
    }
    for (int c = 0; c < kCounts; ++c) sum.counts[c] += totals->counts[c];
  }
  return sum;
}

void reset() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& totals : registry()) *totals = Totals{};
}

}  // namespace wirebench::layers

// ---- the wrappers -----------------------------------------------------------
//
// Each wrapped call is declared twice under its mangled name: the
// "__real_" alias the linker points at the library's definition and the
// "__wrap_" definition it redirects every other object's calls to. Member
// functions take the object as an explicit first parameter (the Itanium
// ABI passes `this` that way). The symbol list must match the
// --wrap list in wirebench/CMakeLists.txt.

#define WIREBENCH_STRING "NSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"

namespace wirebench::layers::wrap {

namespace s = sitime;
using wirebench::layers::Span;

#define WIREBENCH_WRAP(ret, fn, params, symbol)             \
  ret real_##fn params __asm__("__real_" symbol);           \
  ret wrap_##fn params __asm__("__wrap_" symbol);

WIREBENCH_WRAP(s::svc::JsonValue, parse_json, (const std::string& text),
               "_ZN6sitime3svc10parse_jsonERK" WIREBENCH_STRING)
s::svc::JsonValue wrap_parse_json(const std::string& text) {
  Span span(kJson);
  return real_parse_json(text);
}

WIREBENCH_WRAP(s::stg::Stg, parse_astg, (const std::string& text),
               "_ZN6sitime3stg10parse_astgERK" WIREBENCH_STRING)
s::stg::Stg wrap_parse_astg(const std::string& text) {
  Span span(kParse);
  return real_parse_astg(text);
}

WIREBENCH_WRAP(std::string, write_astg, (const s::stg::Stg& stg),
               "_ZN6sitime3stg10write_astgB5cxx11ERKNS0_3StgE")
std::string wrap_write_astg(const s::stg::Stg& stg) {
  Span span(kCanon);
  return real_write_astg(stg);
}

WIREBENCH_WRAP(s::circuit::Circuit, from_equations,
               (const s::stg::SignalTable* signals, const std::string& text),
               "_ZN6sitime7circuit7Circuit14from_equationsEPKNS_3stg11"
               "SignalTableERK" WIREBENCH_STRING)
s::circuit::Circuit wrap_from_equations(const s::stg::SignalTable* signals,
                                        const std::string& text) {
  Span span(kNetlist);
  return real_from_equations(signals, text);
}

WIREBENCH_WRAP(s::sg::GlobalSg, build_global_sg,
               (const s::stg::Stg& stg, int state_limit,
                const s::base::CancelToken& cancel),
               "_ZN6sitime2sg15build_global_sgERKNS_3stg3StgEiRKNS_4base11"
               "CancelTokenE")
s::sg::GlobalSg wrap_build_global_sg(const s::stg::Stg& stg, int state_limit,
                                     const s::base::CancelToken& cancel) {
  Span span(kGlobalSg);
  s::sg::GlobalSg global = real_build_global_sg(stg, state_limit, cancel);
  span.count(kStates, global.state_count());
  return global;
}

WIREBENCH_WRAP(std::vector<s::pn::MgComponent>, mg_components,
               (const s::pn::PetriNet& net, int limit),
               "_ZN6sitime2pn13mg_componentsERKNS0_8PetriNetEi")
std::vector<s::pn::MgComponent> wrap_mg_components(const s::pn::PetriNet& net,
                                                   int limit) {
  Span span(kHack);
  std::vector<s::pn::MgComponent> components = real_mg_components(net, limit);
  span.count(kComponents, static_cast<long long>(components.size()));
  return components;
}

WIREBENCH_WRAP(s::stg::MgStg, local_stg,
               (const s::stg::MgStg& component, const s::circuit::Gate& gate),
               "_ZN6sitime4core9local_stgERKNS_3stg5MgStgERKNS_7circuit4GateE")
s::stg::MgStg wrap_local_stg(const s::stg::MgStg& component,
                             const s::circuit::Gate& gate) {
  Span span(kProject);
  s::stg::MgStg local = real_local_stg(component, gate);
  span.count(kArcsOut, static_cast<long long>(local.arcs().size()));
  return local;
}

WIREBENCH_WRAP(s::sg::StateGraph, build_state_graph,
               (const s::stg::MgStg& mg, const s::sg::SgBuildOptions& options),
               "_ZN6sitime2sg17build_state_graphERKNS_3stg5MgStgERKNS0_"
               "14SgBuildOptionsE")
s::sg::StateGraph wrap_build_state_graph(
    const s::stg::MgStg& mg, const s::sg::SgBuildOptions& options) {
  Span span(kLocalSg);
  s::sg::StateGraph graph = real_build_state_graph(mg, options);
  span.count(kLocalStates, graph.state_count());
  return graph;
}

WIREBENCH_WRAP(void, expand,
               (s::core::Expander * self, s::stg::MgStg local,
                const s::circuit::Gate& gate, s::core::ConstraintSet& rt),
               "_ZN6sitime4core8Expander6expandENS_3stg5MgStgERKNS_7circuit4"
               "GateERSt3mapINS0_16TimingConstraintEiSt4lessIS9_ESaISt4pair"
               "IKS9_iEEE")
void wrap_expand(s::core::Expander* self, s::stg::MgStg local,
                 const s::circuit::Gate& gate, s::core::ConstraintSet& rt) {
  Span span(kExpand);
  real_expand(self, std::move(local), gate, rt);
  span.count(kSteps, self->steps());
  span.count(kSubtasks, self->subtasks());
}

WIREBENCH_WRAP(s::core::FlowReport, make_flow_report,
               (std::string design, const s::core::FlowResult& result,
                const s::stg::SignalTable& signals),
               "_ZN6sitime4core16make_flow_reportE" WIREBENCH_STRING
               "RKNS0_10FlowResultERKNS_3stg11SignalTableE")
s::core::FlowReport wrap_make_flow_report(std::string design,
                                          const s::core::FlowResult& result,
                                          const s::stg::SignalTable& signals) {
  Span span(kRender);
  return real_make_flow_report(std::move(design), result, signals);
}

WIREBENCH_WRAP(std::string, to_canonical_json,
               (const s::core::FlowReport& report),
               "_ZN6sitime4core17to_canonical_jsonB5cxx11ERKNS0_10FlowReportE")
std::string wrap_to_canonical_json(const s::core::FlowReport& report) {
  Span span(kRender);
  return real_to_canonical_json(report);
}

WIREBENCH_WRAP(s::core::RenderedReport, render_report,
               (const s::core::FlowReport& report),
               "_ZN6sitime4core13render_reportERKNS0_10FlowReportE")
s::core::RenderedReport wrap_render_report(const s::core::FlowReport& report) {
  Span span(kRender);
  return real_render_report(report);
}

WIREBENCH_WRAP(std::string, encode_artifact,
               (const s::core::PersistedArtifact& artifact),
               "_ZN6sitime4core15encode_artifactB5cxx11ERKNS0_"
               "17PersistedArtifactE")
std::string wrap_encode_artifact(const s::core::PersistedArtifact& artifact) {
  Span span(kCodec);
  std::string bytes = real_encode_artifact(artifact);
  span.count(kBytes, static_cast<long long>(bytes.size()));
  return bytes;
}

WIREBENCH_WRAP(s::core::ArtifactDecodeStatus, decode_artifact,
               (const std::string& bytes, s::core::PersistedArtifact& artifact,
                std::string* error),
               "_ZN6sitime4core15decode_artifactERK" WIREBENCH_STRING
               "RNS0_17PersistedArtifactEPS6_")
s::core::ArtifactDecodeStatus wrap_decode_artifact(
    const std::string& bytes, s::core::PersistedArtifact& artifact,
    std::string* error) {
  Span span(kCodec);
  span.count(kBytes, static_cast<long long>(bytes.size()));
  return real_decode_artifact(bytes, artifact, error);
}

WIREBENCH_WRAP(bool, disk_save,
               (s::svc::DiskStore * self, const std::string& key,
                const std::string& bytes),
               "_ZN6sitime3svc9DiskStore4saveERK" WIREBENCH_STRING "S9_")
bool wrap_disk_save(s::svc::DiskStore* self, const std::string& key,
                    const std::string& bytes) {
  Span span(kDisk);
  return real_disk_save(self, key, bytes);
}

WIREBENCH_WRAP(bool, disk_read_file,
               (s::svc::DiskStore * self, const std::string& path,
                std::string& bytes),
               "_ZN6sitime3svc9DiskStore9read_fileERK" WIREBENCH_STRING "RS7_")
bool wrap_disk_read_file(s::svc::DiskStore* self, const std::string& path,
                         std::string& bytes) {
  Span span(kDisk);
  return real_disk_read_file(self, path, bytes);
}

WIREBENCH_WRAP(s::svc::AnalysisResponse, analyze,
               (s::svc::AnalysisService * self,
                const s::svc::AnalysisRequest& request),
               "_ZN6sitime3svc15AnalysisService7analyzeERKNS0_"
               "15AnalysisRequestE")
s::svc::AnalysisResponse wrap_analyze(s::svc::AnalysisService* self,
                                      const s::svc::AnalysisRequest& request) {
  Span span(kService);
  s::svc::AnalysisResponse response = real_analyze(self, request);
  const std::string& state = response.cache_state;
  span.count(state == "fresh"      ? kFresh
             : state == "hit"      ? kHit
             : state == "upgraded" ? kUpgraded
                                   : kCoalesced,
             response.ok ? 1 : 0);
  return response;
}

WIREBENCH_WRAP(void, parallel_for,
               (s::base::ThreadPool * self, int begin, int end,
                const std::function<void(int)>& fn, int grain, int max_tasks),
               "_ZN6sitime4base10ThreadPool12parallel_forEiiRKSt8functionI"
               "FviEEii")
void wrap_parallel_for(s::base::ThreadPool* self, int begin, int end,
                       const std::function<void(int)>& fn, int grain,
                       int max_tasks) {
  Span span(kPool);
  real_parallel_for(self, begin, end, fn, grain, max_tasks);
}

}  // namespace wirebench::layers::wrap
