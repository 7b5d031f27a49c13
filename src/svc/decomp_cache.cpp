#include "svc/decomp_cache.hpp"

#include <utility>

#include "base/fault.hpp"
#include "svc/footprint.hpp"

namespace sitime::svc {

namespace {

/// Calibrated cost of one resident value: the decomposition, the STG it
/// pins, the retained synthesized circuit, the canonical key (charged
/// twice: node copy + index copy) and the container node overheads. The
/// pinned STG may also be resident as a design entry — double-charging
/// shared bytes keeps the budget conservative.
std::size_t value_bytes(const std::string& key,
                        const DecompCache::Value& value) {
  std::size_t total = sizeof(DecompCache::Value) + kControlBlockBytes +
                      2 * heap_bytes(key) + kHashNodeBytes +
                      4 * sizeof(void*) +  // list links + map slot
                      footprint(value.decomposition) +
                      heap_bytes(value.built_eqn);
  if (value.decomposition.source != nullptr)
    total += footprint(*value.decomposition.source);
  if (value.synth_circuit != nullptr)
    total += footprint(*value.synth_circuit) + kControlBlockBytes;
  if (value.synth_eqn != nullptr)
    total += sizeof(std::string) + heap_bytes(*value.synth_eqn) +
             kControlBlockBytes;
  return total;
}

}  // namespace

std::shared_ptr<const DecompCache::Value> DecompCache::lookup(
    const std::string& stg_canonical, bool have_circuit) {
  return tier_.lookup(stg_canonical, [have_circuit](const Value& value) {
    return have_circuit || value.synth_circuit != nullptr;
  });
}

void DecompCache::insert(const std::string& stg_canonical, Value value) {
  // Injected decomp_cache_insert fault: the flow that decomposed already
  // holds its artifacts, so skipping retention only costs a later
  // re-decompose — the decomposition-tier analogue of cache_insert.
  if (base::fault_fires(base::FaultPoint::decomp_cache_insert)) return;
  tier_.upsert(stg_canonical, [&](const Value* resident) {
    // Whichever insert carried the synthesis products keeps them.
    if (resident != nullptr && value.synth_circuit == nullptr) {
      value.synth_circuit = resident->synth_circuit;
      value.synth_eqn = resident->synth_eqn;
    }
    const std::size_t cost = value_bytes(stg_canonical, value);
    return std::make_pair(std::make_shared<const Value>(std::move(value)),
                          cost);
  });
  // The lowest tier makes room among its own entries, within what the
  // designs above it leave.
  tier_.budget().shed_from(tier_);
}

}  // namespace sitime::svc
