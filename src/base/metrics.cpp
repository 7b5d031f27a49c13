#include "base/metrics.hpp"

#include <cstdio>
#include <thread>

#include "base/error.hpp"

namespace sitime::base {

namespace metrics_detail {

int thread_shard() {
  thread_local const int shard = static_cast<int>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      static_cast<std::size_t>(kShards));
  return shard;
}

}  // namespace metrics_detail

// ---- MetricHistogram -------------------------------------------------------

MetricHistogram::Shard::Shard(std::size_t buckets)
    : counts(new std::atomic<long long>[buckets]) {
  for (std::size_t b = 0; b < buckets; ++b)
    counts[b].store(0, std::memory_order_relaxed);
}

MetricHistogram::MetricHistogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)) {
  for (std::size_t b = 1; b < bounds_.size(); ++b)
    check(bounds_[b - 1] < bounds_[b],
          "MetricHistogram: bounds must be strictly increasing");
  shards_.reserve(metrics_detail::kShards);
  for (int s = 0; s < metrics_detail::kShards; ++s)
    shards_.push_back(std::make_unique<Shard>(bounds_.size() + 1));
}

void MetricHistogram::observe(double value) {
  // Linear scan: latency histograms have ~20 buckets and the scan is
  // branch-predictable; a binary search would not pay for itself.
  std::size_t bucket = 0;
  while (bucket < bounds_.size() && value > bounds_[bucket]) ++bucket;
  Shard& shard = *shards_[metrics_detail::thread_shard()];
  shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
}

MetricHistogram::Snapshot MetricHistogram::snapshot() const {
  Snapshot merged;
  merged.buckets.assign(bounds_.size() + 1, 0);
  for (const auto& shard : shards_) {
    for (std::size_t b = 0; b < merged.buckets.size(); ++b)
      merged.buckets[b] += shard->counts[b].load(std::memory_order_relaxed);
    merged.count += shard->count.load(std::memory_order_relaxed);
    merged.sum += shard->sum.load(std::memory_order_relaxed);
  }
  return merged;
}

const std::vector<double>& MetricHistogram::default_latency_bounds() {
  static const std::vector<double> bounds = {
      0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
      0.025,   0.05,   0.1,     0.25,   0.5,   1.0,    2.5,   5.0,
      10.0};
  return bounds;
}

// ---- MetricsRegistry -------------------------------------------------------

MetricsRegistry::Family& MetricsRegistry::family_locked(
    const std::string& name, const std::string& help,
    const std::string& type) {
  for (auto& family : families_) {
    if (family->name != name) continue;
    check(family->type == type, "MetricsRegistry: '" + name +
                                    "' already registered as " +
                                    family->type + ", not " + type);
    return *family;
  }
  auto family = std::make_unique<Family>();
  family->name = name;
  family->help = help;
  family->type = type;
  families_.push_back(std::move(family));
  return *families_.back();
}

MetricsRegistry::Series* MetricsRegistry::find_series_locked(
    Family& family, const std::string& labels) {
  for (auto& series : family.series)
    if (series->labels == labels) return series.get();
  return nullptr;
}

MetricCounter& MetricsRegistry::counter(const std::string& name,
                                        const std::string& help,
                                        const std::string& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family& family = family_locked(name, help, "counter");
  if (Series* existing = find_series_locked(family, labels)) {
    check(existing->counter != nullptr,
          "MetricsRegistry: '" + name + "' series is not a plain counter");
    return *existing->counter;
  }
  auto series = std::make_unique<Series>();
  series->labels = labels;
  series->counter = std::make_unique<MetricCounter>();
  family.series.push_back(std::move(series));
  return *family.series.back()->counter;
}

MetricHistogram& MetricsRegistry::histogram(const std::string& name,
                                            const std::string& help,
                                            std::vector<double> bounds,
                                            const std::string& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family& family = family_locked(name, help, "histogram");
  if (Series* existing = find_series_locked(family, labels)) {
    check(existing->histogram != nullptr,
          "MetricsRegistry: '" + name + "' series is not a histogram");
    return *existing->histogram;
  }
  auto series = std::make_unique<Series>();
  series->labels = labels;
  series->histogram = std::make_unique<MetricHistogram>(std::move(bounds));
  family.series.push_back(std::move(series));
  return *family.series.back()->histogram;
}

void MetricsRegistry::callback(const void* owner, const std::string& name,
                               const std::string& help,
                               const std::string& type,
                               const std::string& labels,
                               std::function<double()> read) {
  check(type == "counter" || type == "gauge",
        "MetricsRegistry: callback type must be counter or gauge");
  std::lock_guard<std::mutex> lock(mutex_);
  Family& family = family_locked(name, help, type);
  check(find_series_locked(family, labels) == nullptr,
        "MetricsRegistry: callback series '" + name + "{" + labels +
            "}' registered twice");
  auto series = std::make_unique<Series>();
  series->labels = labels;
  series->read = std::move(read);
  series->owner = owner;
  family.series.push_back(std::move(series));
}

void MetricsRegistry::remove_callbacks(const void* owner) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& family : families_) {
    auto& series = family->series;
    for (std::size_t s = series.size(); s-- > 0;)
      if (series[s]->owner == owner)
        series.erase(series.begin() + static_cast<std::ptrdiff_t>(s));
  }
}

namespace {

/// Shortest round-trip decimal: integers render bare ("3"), everything
/// else with enough digits ("0.0245"). %g never emits a locale comma for
/// the C locale the tools run under.
std::string render_number(double value) {
  if (value == static_cast<double>(static_cast<long long>(value)) &&
      value >= -9.2e18 && value <= 9.2e18) {
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
    return buffer;
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

void append_sample(std::string& out, const std::string& name,
                   const std::string& labels, const std::string& extra,
                   double value) {
  out += name;
  if (!labels.empty() || !extra.empty()) {
    out += '{';
    out += labels;
    if (!labels.empty() && !extra.empty()) out += ',';
    out += extra;
    out += '}';
  }
  out += ' ';
  out += render_number(value);
  out += '\n';
}

}  // namespace

std::string MetricsRegistry::render_prometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  out.reserve(4096);
  for (const auto& family : families_) {
    if (family->series.empty()) continue;
    out += "# HELP " + family->name + " " + family->help + "\n";
    out += "# TYPE " + family->name + " " + family->type + "\n";
    for (const auto& series : family->series) {
      if (series->counter != nullptr) {
        append_sample(out, family->name, series->labels, "",
                      static_cast<double>(series->counter->value()));
      } else if (series->histogram != nullptr) {
        const MetricHistogram::Snapshot snap = series->histogram->snapshot();
        const std::vector<double>& bounds = series->histogram->bounds();
        long long cumulative = 0;
        for (std::size_t b = 0; b < snap.buckets.size(); ++b) {
          cumulative += snap.buckets[b];
          const std::string le =
              b < bounds.size() ? render_number(bounds[b]) : "+Inf";
          append_sample(out, family->name + "_bucket", series->labels,
                        "le=\"" + le + "\"",
                        static_cast<double>(cumulative));
        }
        append_sample(out, family->name + "_sum", series->labels, "",
                      snap.sum);
        append_sample(out, family->name + "_count", series->labels, "",
                      static_cast<double>(snap.count));
      } else if (series->read) {
        append_sample(out, family->name, series->labels, "", series->read());
      }
    }
  }
  return out;
}

}  // namespace sitime::base
