#include "svc/gate_cache.hpp"

#include <cstdint>
#include <utility>

#include "base/fault.hpp"
#include "svc/footprint.hpp"

namespace sitime::svc {

namespace {

/// Calibrated footprint of one resident slice: the shared model in
/// svc/footprint.hpp plus the key slabs and node overheads specific to
/// this cache's layout.
std::size_t node_bytes(const core::GateJobKey& key,
                       const core::GateSlice& slice) {
  // The node itself, its list links, one bucket-vector slot, the key's
  // word slabs, and the slice behind its shared_ptr control block. The
  // component prefix is shared by every key stamped from the same base,
  // but each entry is charged its full size — over-counting shared bytes
  // keeps the budget conservative.
  const std::size_t base_words =
      key.base.words != nullptr ? key.base.words->capacity() : 0;
  return sizeof(void*) * 4 +
         (base_words + key.gate_words.capacity()) * sizeof(std::uint64_t) +
         kControlBlockBytes + sizeof(core::GateSlice) +
         footprint(slice.before) + footprint(slice.after);
}

}  // namespace

void GateCache::insert(const core::GateJobKey& key,
                       std::shared_ptr<const core::GateSlice> slice) {
  if (slice == nullptr) return;
  // Injected gate_cache_insert fault: the flow that computed the slice
  // already holds it, so skipping retention only costs a later recompute —
  // the gate-tier analogue of the cache_insert point two tiers up.
  if (base::fault_fires(base::FaultPoint::gate_cache_insert)) return;
  const std::size_t cost = node_bytes(key, *slice);
  if (tier_.insert(key, std::move(slice), cost))
    tier_.budget().shed_from(tier_);
}

}  // namespace sitime::svc
