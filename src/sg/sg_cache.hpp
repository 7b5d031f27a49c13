// Memoized state-graph construction keyed by the packed arc-state of an
// MgStg, safe for concurrent use.
//
// The Expand loop (Algorithm 4) builds the SG of a trial STG at every
// relaxation attempt, and its OR-causality recursion re-derives the same
// intermediate STGs along different decomposition branches. Two MgStgs with
// the same arc table (from, to, tokens — kinds do not participate in the
// token game), the same alive set, and the same initial values have the
// same SG, so the cache packs exactly that into a word key, hashes it
// (FNV-1a, shared with base::MarkingSet), and stores the built graphs
// behind shared_ptr so accepted relaxations keep using the already-built
// graph after the loop moves on.
//
// Concurrency: the table is split into kShardCount independently locked
// shards (selected by high key-hash bits, decorrelated from the in-shard
// bucket index). Lookups hold only their shard's mutex; graph construction
// on a miss runs outside any lock, so two workers racing on the same key
// may both build — the loser discards its copy and adopts the winner's, so
// every caller observes one canonical graph per key. hits()/misses() are
// monotonic atomics; hits + misses always equals the number of
// get_or_build calls.
//
// Misses build with the library's default state/token limits — cached
// graphs must not depend on who triggered the miss — and the caller's
// cancel token. The cache times its own misses: each completed miss build
// makes one observation in the build-latency sink.
//
// The flow core gets every local SG here: the verify phase once per
// (MG component × gate) job it runs, Expand after every relaxation. The
// decomposition's job memo answers the unchanged gates of a resident
// service's repeated or edited designs without either, so the graphs
// served here go to the jobs that do run (an edited gate's, or those of a
// design with no shared decomposition) where an earlier run built them.
//
// Bound: a shard that reaches 256 graphs is cleared before its next
// insert, so the cache never holds more than 16 × 256 = 4 096 graphs. That
// is a count bound, not a byte bound: the graphs are not charged to the
// service's cache budget.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "sg/state_graph.hpp"
#include "stg/marked_graph.hpp"

namespace sitime::base {
class MetricHistogram;
}  // namespace sitime::base

namespace sitime::sg {

class SgCache {
 public:
  /// The SG of `mg`, built on miss via build_state_graph(mg). Thread-safe.
  /// `cancel` is polled only during a miss's build: a cancelled build
  /// throws before anything is inserted, so the cache never holds a
  /// partial graph.
  std::shared_ptr<const StateGraph> get_or_build(
      const stg::MgStg& mg, const base::CancelToken& cancel = {});

  /// Latency sink observed once per completed miss build (null = none); a
  /// hit or a build that throws observes nothing. Call before sharing the
  /// cache across threads (a resident service sets it once at
  /// construction).
  void set_build_seconds(base::MetricHistogram* seconds) {
    build_seconds_ = seconds;
  }

  // 64-bit: a resident service (svc::AnalysisService) keeps one cache for
  // the process lifetime, where 32-bit counters would wrap under traffic.
  long long hits() const { return hits_.load(std::memory_order_relaxed); }
  long long misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Cached graphs currently held (across all shards).
  int entries() const;
  void clear();

 private:
  struct Entry {
    std::vector<std::uint64_t> key;
    std::shared_ptr<const StateGraph> graph;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::uint64_t, std::vector<Entry>> buckets;
    int entries = 0;
  };
  static constexpr int kShardCount = 16;

  Shard shards_[kShardCount];
  base::MetricHistogram* build_seconds_ = nullptr;
  std::atomic<long long> hits_{0};
  std::atomic<long long> misses_{0};
};

}  // namespace sitime::sg
