// The lowest tier of the three-tier service cache: per-(MG component ×
// gate) job slices, content-addressed by core::gate_job_key().
//
// The whole-design tier (AnalysisService's PhaseArtifacts entries) only
// helps when a request's canonical content matches byte for byte; an editor
// loop that touches one gate misses it every time. The gate cache catches
// exactly that traffic: the edited design decomposes, every unchanged
// gate's job key still hits here, and only the delta re-expands. The store
// is deliberately dumber than the design tier — immutable values behind
// shared_ptr, no single-flight (two flows racing on one key both compute;
// the content address guarantees they computed the same slice, so either
// insert may win) — because a slice is cheap to recompute and the design
// tier above already deduplicates whole requests.
//
// Storage is a 16-shard svc::CacheTier at the bottom of the service's
// CacheBudget, so gate slices are shed first and can never push a design
// or a decomposition out. The shards keep the job hot path off a global
// lock; shedding pops their LRU tails round-robin.
#pragma once

#include <cstddef>
#include <memory>

#include "core/local_stg.hpp"
#include "svc/cache_tier.hpp"

namespace sitime::svc {

class GateCache : public core::GateSliceStore {
 public:
  /// Joins `budget` as its next tier.
  explicit GateCache(CacheBudget& budget) : tier_(budget, kShardCount) {}

  /// Thread-safe; counts a hit or miss and refreshes LRU order on hit.
  std::shared_ptr<const core::GateSlice> lookup(
      const core::GateJobKey& key) override {
    return tier_.lookup(key);
  }

  /// Thread-safe; duplicate keys keep the resident slice (both copies are
  /// equal by construction). Polls the gate_cache_insert fault point: a
  /// fired fault skips retention — the inserting flow already holds its
  /// slice, so correctness is untouched. Inserting may shed other gate
  /// entries; it never touches the tiers above.
  void insert(const core::GateJobKey& key,
              std::shared_ptr<const core::GateSlice> slice) override;

  const CacheTierBase& tier() const { return tier_; }

 private:
  struct KeyHash {
    std::size_t operator()(const core::GateJobKey& key) const {
      return key.hash;
    }
  };
  static constexpr int kShardCount = 16;

  CacheTier<core::GateJobKey, const core::GateSlice, KeyHash> tier_;
};

}  // namespace sitime::svc
