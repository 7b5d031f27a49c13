#include "svc/cache_tier.hpp"

namespace sitime::svc {

void register_tier_metrics(base::MetricsRegistry& registry, const void* owner,
                           const std::string& prefix,
                           const CacheTierHelp& help,
                           std::function<CacheTierStats()> read) {
  const auto add = [&](const char* suffix, const char* text,
                       const char* type,
                       double (*field)(const CacheTierStats&)) {
    if (text == nullptr) return;
    registry.callback(owner, prefix + suffix, text, type, "",
                      [read, field] { return field(read()); });
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

}  // namespace sitime::svc
