// Dependency-free metrics primitives for the resident service: sharded
// atomic counters and fixed-boundary latency histograms, collected in a
// registry that renders Prometheus text exposition format. Gauges are
// scrape-time callbacks over state another object owns.
//
// Design constraints, in order:
//   - the RECORD side is the hot path (a counter bump per cache lookup, a
//     histogram observation per request phase) and must never take a lock:
//     counters and histograms shard their atomics by thread so concurrent
//     recorders do not even contend a cache line;
//   - the SCRAPE side is rare (a {"metrics": true} control request, a
//     {"stats": true} snapshot) and merges the shards on demand. A merged
//     snapshot taken after all recorders quiesced is exact; one taken
//     mid-traffic is a point-in-time view with the usual monotonicity
//     guarantees (counters never decrease, histogram count >= any bucket).
//   - metric OBJECTS are owned by the registry and never move or die while
//     it lives, so instrumented code holds plain pointers with no
//     lifetime protocol on the record path. Callback metrics (scrape-time
//     reads of state another object owns — an SgCache hit counter, a
//     queue depth, a cache tier's resident bytes) are the one exception:
//     they are registered with an owner tag and MUST be removed
//     (remove_callbacks) before whatever they read dies.
//
// The registry is the single source of truth for exposition: everything
// the server publishes — {"stats": true} aliases included — reads through
// it. An outcome the owning component decides is a registry counter;
// a callback reads only state that another object owns.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sitime::base {

namespace metrics_detail {
/// Shard index of the calling thread: a cheap thread-id hash, computed
/// once per thread. Distinct threads usually land on distinct shards, so
/// concurrent record()s touch distinct cache lines.
int thread_shard();
constexpr int kShards = 8;
}  // namespace metrics_detail

/// Monotonic counter, sharded over metrics_detail::kShards cache lines.
/// inc() is lock-free and wait-free; value() merges the shards.
class MetricCounter {
 public:
  void inc(long long delta = 1) {
    shards_[metrics_detail::thread_shard()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  long long value() const {
    long long total = 0;
    for (const Shard& shard : shards_)
      total += shard.value.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<long long> value{0};
  };
  Shard shards_[metrics_detail::kShards];
};

/// Fixed-boundary histogram: `bounds` are strictly increasing inclusive
/// upper bounds (Prometheus `le` semantics); an implicit +Inf bucket
/// catches the rest. observe() is lock-free: one fetch_add on the bucket,
/// count and sum of the calling thread's shard. snapshot() merges.
class MetricHistogram {
 public:
  explicit MetricHistogram(std::vector<double> bounds);

  void observe(double value);

  struct Snapshot {
    std::vector<long long> buckets;  // per-bucket (NON-cumulative), +Inf last
    long long count = 0;
    double sum = 0.0;
  };
  Snapshot snapshot() const;

  const std::vector<double>& bounds() const { return bounds_; }

  /// The default request/phase latency boundaries: 50 µs .. 10 s, roughly
  /// logarithmic — wide enough that a cache hit and an exploding design
  /// land many buckets apart.
  static const std::vector<double>& default_latency_bounds();

 private:
  struct alignas(64) Shard {
    explicit Shard(std::size_t buckets);
    std::unique_ptr<std::atomic<long long>[]> counts;  // bounds + Inf
    std::atomic<long long> count{0};
    std::atomic<double> sum{0.0};
  };

  std::vector<double> bounds_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// A registry of named metrics, rendered as Prometheus text exposition.
///
/// Names follow the Prometheus conventions (snake_case, `_total` suffix on
/// counters); `labels` is the pre-rendered label body without braces, e.g.
/// `phase="verify",source="cold"` — the (name, labels) pair identifies one
/// time series, and all series of one name form a family sharing a single
/// HELP/TYPE header. Requesting an already-registered series returns the
/// existing object (idempotent), so layers can share series by name; a
/// kind mismatch on an existing series throws.
///
/// Registration takes a mutex (cold path); recording on the returned
/// objects never does. render_prometheus()/each callback read runs under
/// the registry mutex — callbacks must not re-enter the registry.
class MetricsRegistry {
 public:
  MetricCounter& counter(const std::string& name, const std::string& help,
                         const std::string& labels = "");
  MetricHistogram& histogram(const std::string& name, const std::string& help,
                             std::vector<double> bounds,
                             const std::string& labels = "");

  /// Scrape-time metric over an authoritative atomic that lives elsewhere
  /// (an SgCache hit counter, the admission queue depth). `type` is
  /// "counter" or "gauge" (exposition only — the callback is trusted to
  /// honour the semantics). `owner` tags the registration so
  /// remove_callbacks(owner) can drop every callback of a component that
  /// dies before the registry (a Server over a longer-lived service).
  void callback(const void* owner, const std::string& name,
                const std::string& help, const std::string& type,
                const std::string& labels, std::function<double()> read);
  void remove_callbacks(const void* owner);

  /// Prometheus text exposition format (version 0.0.4): families in
  /// registration order, one HELP/TYPE header per family, histogram
  /// series expanded into cumulative `_bucket{le=...}` plus `_sum` and
  /// `_count`.
  std::string render_prometheus() const;

 private:
  struct Series {
    std::string labels;
    // Exactly one of these is set.
    std::unique_ptr<MetricCounter> counter;
    std::unique_ptr<MetricHistogram> histogram;
    std::function<double()> read;  // callback series
    const void* owner = nullptr;   // callback series only
  };
  struct Family {
    std::string name;
    std::string help;
    std::string type;  // "counter" | "gauge" | "histogram"
    std::vector<std::unique_ptr<Series>> series;
  };

  Family& family_locked(const std::string& name, const std::string& help,
                        const std::string& type);
  Series* find_series_locked(Family& family, const std::string& labels);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Family>> families_;  // registration order
};

}  // namespace sitime::base
