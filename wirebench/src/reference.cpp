#include "reference.hpp"

#include <atomic>
#include <chrono>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "benchdata/benchmarks.hpp"
#include "circuit/circuit.hpp"
#include "stg/astg.hpp"

namespace wirebench {

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

namespace {

/// The service request for one design (inline text, derive mode).
sitime::svc::AnalysisRequest analysis_request(const Design& design) {
  sitime::svc::AnalysisRequest request;
  request.name = design.name;
  request.astg = design.astg;
  request.eqn = design.eqn;
  request.mode = sitime::svc::RequestMode::derive;
  return request;
}

}  // namespace

bool fill_store(const std::vector<Design>& designs,
                const std::vector<int>& which, const std::string& dir) {
  sitime::svc::ServiceOptions options;
  options.cache_dir = dir;
  sitime::svc::AnalysisService service(options);
  for (const int d : which)
    if (!service.analyze(analysis_request(designs[d])).ok) return false;
  return service.stats().disk_writes == static_cast<long long>(which.size());
}

namespace {

sitime::svc::AnalysisResponse analyze_cold(const Design& design) {
  sitime::svc::ServiceOptions options;
  options.cache_budget_bytes = 0;  // no design, decomposition or gate cache
  options.jobs = 1;
  sitime::svc::AnalysisService service(options);
  return service.analyze(analysis_request(design));
}

}  // namespace

double compute_reference(const std::vector<Design>& designs,
                         const std::vector<int>& which,
                         std::vector<Expected>& expected, int threads) {
  if (expected.size() < designs.size()) expected.resize(designs.size());
  std::atomic<std::size_t> cursor{0};
  std::vector<double> busy(static_cast<std::size_t>(threads), 0.0);
  auto work = [&](int thread) {
    for (std::size_t i = cursor++; i < which.size(); i = cursor++) {
      const int d = which[i];
      const auto start = std::chrono::steady_clock::now();
      const sitime::svc::AnalysisResponse response =
          analyze_cold(designs[d]);
      busy[thread] += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
      Expected& out = expected[d];
      out.ok = response.ok;
      out.error = response.error;
      out.offender = response.verify_offender;
      out.digest = response.canonical_json != nullptr
                       ? fnv1a64(*response.canonical_json)
                       : 0;
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(work, t);
  work(0);
  for (std::thread& thread : pool) thread.join();
  double total = 0.0;
  for (const double seconds : busy) total += seconds;
  return total;
}

std::string golden_text(const Expected& expected) {
  if (!expected.ok) return "error";
  if (!expected.offender.empty()) return "!" + expected.offender;
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(expected.digest));
  return hex;
}

std::vector<std::string> read_golden(const std::string& directory,
                                     const std::string& workload) {
  std::vector<std::string> lines;
  std::ifstream in(directory + "/" + workload + ".txt");
  std::string line;
  while (std::getline(in, line))
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  return lines;
}

bool write_golden(const std::string& directory, const std::string& workload,
                  const std::vector<Expected>& expected) {
  std::ofstream out(directory + "/" + workload + ".txt");
  out << "# " << workload << " seed " << kDefaultSeed
      << ": golden_text of each design, in creation order\n";
  for (const Expected& e : expected) out << golden_text(e) << "\n";
  return static_cast<bool>(out.flush());
}

std::string check_thesis_lists(const std::string& directory) {
  std::set<std::string> want_before, want_after;
  std::ifstream in(directory + "/imec_thesis.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("before ", 0) == 0) want_before.insert(line.substr(7));
    if (line.rfind("after ", 0) == 0) want_after.insert(line.substr(6));
  }
  if (want_before.empty() || want_after.empty())
    return "imec_thesis.txt is missing or empty";
  const auto& bench = sitime::benchdata::benchmark("imec-ram-read-sbuf");
  const sitime::svc::AnalysisResponse response =
      analyze_cold(Design{bench.name, bench.astg, bench.eqn});
  if (!response.ok || response.report == nullptr)
    return "imec-ram-read-sbuf did not produce a report: " + response.error;
  std::set<std::string> before, after;
  for (const auto& constraint : response.report->before)
    before.insert(constraint.text());
  for (const auto& constraint : response.report->after)
    after.insert(constraint.text());
  if (before != want_before)
    return "imec-ram-read-sbuf before list differs from the thesis";
  if (after != want_after)
    return "imec-ram-read-sbuf after list differs from the thesis";
  return "";
}

bool canonically_equal(const Design& a, const Design& b) {
  const sitime::stg::Stg stg_a = sitime::stg::parse_astg(a.astg);
  const sitime::stg::Stg stg_b = sitime::stg::parse_astg(b.astg);
  if (sitime::stg::write_astg(stg_a) != sitime::stg::write_astg(stg_b))
    return false;
  if (a.eqn.empty() || b.eqn.empty()) return a.eqn.empty() && b.eqn.empty();
  return sitime::circuit::Circuit::from_equations(&stg_a.signals, a.eqn)
             .to_eqn() ==
         sitime::circuit::Circuit::from_equations(&stg_b.signals, b.eqn)
             .to_eqn();
}

}  // namespace wirebench
