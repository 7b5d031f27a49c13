// The three wire workloads: seeded request streams plus the server flags
// that are part of each workload's definition.
//
// Every workload drives Workload::kConnections closed-loop connections,
// and every server runs with --jobs Workload::kJobs, so connections × jobs
// equals the four cores the benchmark is recorded on. A stream is a pure
// function of (workload, seed): the same seed renders byte-identical
// request lines in the same order, whatever the machine or its speed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "designs.hpp"

namespace wirebench {

/// One pre-rendered request line.
struct Line {
  std::string text;    // one JSON request, '\n'-terminated
  int design = -1;     // index into Workload::designs
  bool derive = true;  // mode "derive"; "verify" otherwise
};

class Workload {
 public:
  static constexpr int kConnections = 2;
  static constexpr int kJobs = 2;

  /// "cold_mix", "warm_hits" or "edit_loop"; throws on anything else.
  static std::unique_ptr<Workload> make(const std::string& name,
                                        std::uint64_t seed);
  virtual ~Workload() = default;

  const std::string& name() const { return name_; }

  /// How the server's --cache-dir is used.
  enum class Store {
    none,       // no --cache-dir
    prefilled,  // a store spilled during set-up (store_designs), booted warm
    fresh,      // a new empty directory for every launch
  };
  virtual Store store() const { return Store::none; }
  virtual std::vector<int> store_designs() const { return {}; }

  /// sitime_serve flags besides --listen and --cache-dir.
  virtual std::vector<std::string> server_flags() const;

  /// The set-up probe: a cheap request whose first `ok` marks the server
  /// ready. It never shares a design, an STG or a gate with the stream,
  /// except on warm_hits where it is a working-set hit like every other
  /// request.
  int probe() const { return probe_; }

  /// Index into `lines` of connection c's next request, or -1 when its
  /// materialized stream is spent. Concurrent calls for distinct c are
  /// safe; extend_round() must not run concurrently.
  virtual int next(int connection) = 0;

  /// Materializes one more chunk of every connection's stream, in
  /// connection order (so the prefix a run materializes never depends on
  /// how many chunks it asked for). Unbounded streams ignore it.
  virtual void extend_round() {}
  virtual bool unbounded() const { return false; }

  /// False for designs an edit may legitimately make not speed
  /// independent; every other design must verify speed independent.
  virtual bool requires_si(int design) const {
    (void)design;
    return true;
  }

  /// Designs whose reference must be known before their lines are sent:
  /// those added since the previous call.
  std::vector<int> take_new_designs();

  std::vector<Design> designs;
  std::vector<Line> lines;

 protected:
  Workload(std::string name, std::uint64_t seed)
      : name_(std::move(name)), seed_(seed) {}
  int add_design(Design design);
  int add_line(int design, bool derive, const Design& text);

  std::string name_;
  std::uint64_t seed_;
  int probe_ = -1;
  std::size_t reported_designs_ = 0;
};

}  // namespace wirebench
