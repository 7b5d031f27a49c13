#include "svc/cache_tier.hpp"

#include <algorithm>

namespace sitime::svc {

CacheTierBase::CacheTierBase(CacheBudget& budget) : budget_(budget) {
  budget.tiers_.push_back(this);
}

CacheTierBase::~CacheTierBase() {
  std::vector<CacheTierBase*>& tiers = budget_.tiers_;
  tiers.erase(std::find(tiers.begin(), tiers.end(), this));
}

CacheTierStats CacheTierBase::stats() const {
  CacheTierStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.entries = entries_.load(std::memory_order_relaxed);
  stats.bytes = bytes();
  return stats;
}

void CacheTierBase::register_metrics(base::MetricsRegistry& registry,
                                     const void* owner,
                                     const std::string& prefix,
                                     const CacheTierHelp& help) const {
  const auto add = [&](const char* suffix, const char* text,
                       const char* type,
                       double (*read)(const CacheTierStats&)) {
    if (text == nullptr) return;
    registry.callback(owner, prefix + suffix, text, type, "",
                      [this, read] { return read(stats()); });
  };
  add("_hits_total", help.hits, "counter",
      [](const CacheTierStats& s) { return static_cast<double>(s.hits); });
  add("_misses_total", help.misses, "counter",
      [](const CacheTierStats& s) { return static_cast<double>(s.misses); });
  add("_evictions_total", help.evictions, "counter",
      [](const CacheTierStats& s) {
        return static_cast<double>(s.evictions);
      });
  add("_entries", help.entries, "gauge",
      [](const CacheTierStats& s) { return static_cast<double>(s.entries); });
  add("_bytes", help.bytes, "gauge",
      [](const CacheTierStats& s) { return static_cast<double>(s.bytes); });
}

std::size_t CacheBudget::allowance(const CacheTierBase& tier) const {
  std::size_t above = 0;
  for (const CacheTierBase* upper : tiers_) {
    if (upper == &tier) break;
    above += upper->bytes();
  }
  return budget_bytes_ > above ? budget_bytes_ - above : 0;
}

void CacheBudget::shed_from(CacheTierBase& tier) {
  for (auto at = std::find(tiers_.begin(), tiers_.end(), &tier);
       at != tiers_.end(); ++at)
    (*at)->shed_to(allowance(**at));
}

void CacheBudget::shed_lower_first(CacheTierBase& tier) {
  const auto at = std::find(tiers_.begin(), tiers_.end(), &tier);
  if (at != tiers_.end() && at + 1 != tiers_.end()) shed_from(**(at + 1));
  shed_from(tier);
}

}  // namespace sitime::svc
