// base/metrics: sharded counters and histograms, callback series and the
// Prometheus registry. The contract under test: the record side is exact under
// concurrency (a quiesced merged snapshot equals the sum of everything
// recorded — the TSan lane runs this too), bucket boundaries follow the
// `le` inclusive-upper-bound semantics, and render_prometheus() emits
// well-formed text exposition format.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "base/error.hpp"
#include "base/metrics.hpp"

namespace sitime {
namespace {

TEST(MetricCounter, AccumulatesAndMergesShards) {
  base::MetricCounter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.inc();
  counter.inc(41);
  EXPECT_EQ(counter.value(), 42);
  counter.inc(0);
  EXPECT_EQ(counter.value(), 42);
}

TEST(MetricCounter, ConcurrentIncrementsAreExactAfterJoin) {
  base::MetricCounter counter;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) counter.inc();
    });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(),
            static_cast<long long>(kThreads) * kIncrements);
}

TEST(MetricHistogram, BucketBoundariesAreInclusiveUpperBounds) {
  base::MetricHistogram histogram({0.001, 0.01, 0.1});
  histogram.observe(0.0005);  // bucket 0
  histogram.observe(0.001);   // bucket 0: le is INCLUSIVE
  histogram.observe(0.0011);  // bucket 1
  histogram.observe(0.1);     // bucket 2
  histogram.observe(5.0);     // +Inf bucket
  const base::MetricHistogram::Snapshot snap = histogram.snapshot();
  ASSERT_EQ(snap.buckets.size(), 4u);  // bounds + the implicit +Inf
  EXPECT_EQ(snap.buckets[0], 2);
  EXPECT_EQ(snap.buckets[1], 1);
  EXPECT_EQ(snap.buckets[2], 1);
  EXPECT_EQ(snap.buckets[3], 1);
  EXPECT_EQ(snap.count, 5);
  EXPECT_DOUBLE_EQ(snap.sum, 0.0005 + 0.001 + 0.0011 + 0.1 + 5.0);
}

TEST(MetricHistogram, RejectsNonIncreasingBounds) {
  EXPECT_THROW(base::MetricHistogram({0.1, 0.1}), sitime::Error);
  EXPECT_THROW(base::MetricHistogram({0.2, 0.1}), sitime::Error);
}

TEST(MetricHistogram, ConcurrentObservationsAreExactAfterJoin) {
  // N threads each record M observations of 0.25 (exactly representable,
  // so the sharded double sums merge with no rounding slack): the merged
  // snapshot must hold count == N*M with every observation in the 0.25
  // bucket. This is the determinism contract the TSan lane exercises.
  base::MetricHistogram histogram(
      base::MetricHistogram::default_latency_bounds());
  constexpr int kThreads = 8;
  constexpr int kObservations = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&histogram] {
      for (int i = 0; i < kObservations; ++i) histogram.observe(0.25);
    });
  for (std::thread& thread : threads) thread.join();
  const base::MetricHistogram::Snapshot snap = histogram.snapshot();
  const long long expected =
      static_cast<long long>(kThreads) * kObservations;
  EXPECT_EQ(snap.count, expected);
  EXPECT_DOUBLE_EQ(snap.sum, 0.25 * static_cast<double>(expected));
  long long in_buckets = 0;
  for (const long long bucket : snap.buckets) in_buckets += bucket;
  EXPECT_EQ(in_buckets, expected);
  // 0.25 is itself a bound: inclusive le puts every observation there.
  const std::vector<double>& bounds = histogram.bounds();
  for (std::size_t b = 0; b < bounds.size(); ++b)
    if (bounds[b] == 0.25) EXPECT_EQ(snap.buckets[b], expected);
}

TEST(MetricsRegistry, RegistrationIsIdempotentPerNameAndLabels) {
  base::MetricsRegistry registry;
  base::MetricCounter& a =
      registry.counter("sitime_test_total", "help", "k=\"1\"");
  base::MetricCounter& b =
      registry.counter("sitime_test_total", "help", "k=\"1\"");
  base::MetricCounter& c =
      registry.counter("sitime_test_total", "help", "k=\"2\"");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  // Same family name with a different kind is a registration bug.
  EXPECT_THROW(registry.histogram("sitime_test_total", "help", {1.0}),
               sitime::Error);
}

TEST(MetricsRegistry, RendersPrometheusTextExposition) {
  base::MetricsRegistry registry;
  registry.counter("sitime_reqs_total", "Requests.", "kind=\"a\"").inc(3);
  registry.counter("sitime_reqs_total", "Requests.", "kind=\"b\"").inc(1);
  registry.callback(&registry, "sitime_depth", "Queue depth.", "gauge", "",
                    [] { return 2.0; });
  base::MetricHistogram& histogram = registry.histogram(
      "sitime_lat_seconds", "Latency.", {0.5, 1.0});
  histogram.observe(0.25);
  histogram.observe(0.75);
  histogram.observe(2.0);

  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("# HELP sitime_reqs_total Requests.\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE sitime_reqs_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("sitime_reqs_total{kind=\"a\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("sitime_reqs_total{kind=\"b\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE sitime_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("sitime_depth 2\n"), std::string::npos);
  // Histogram buckets are CUMULATIVE and end at +Inf == _count.
  EXPECT_NE(text.find("sitime_lat_seconds_bucket{le=\"0.5\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("sitime_lat_seconds_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("sitime_lat_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("sitime_lat_seconds_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("sitime_lat_seconds_sum 3\n"), std::string::npos);
  // One HELP/TYPE header per family, even with several series.
  std::size_t headers = 0;
  for (std::size_t at = text.find("# TYPE sitime_reqs_total");
       at != std::string::npos;
       at = text.find("# TYPE sitime_reqs_total", at + 1))
    ++headers;
  EXPECT_EQ(headers, 1u);
}

TEST(MetricsRegistry, CallbacksReadLiveStateAndAreRemovable) {
  base::MetricsRegistry registry;
  long long source = 5;
  const int owner_tag = 0;
  registry.callback(&owner_tag, "sitime_cb_total", "Callback.", "counter",
                    "", [&source] { return static_cast<double>(source); });
  EXPECT_NE(registry.render_prometheus().find("sitime_cb_total 5\n"),
            std::string::npos);
  source = 9;
  EXPECT_NE(registry.render_prometheus().find("sitime_cb_total 9\n"),
            std::string::npos);
  registry.remove_callbacks(&owner_tag);
  EXPECT_EQ(registry.render_prometheus().find("sitime_cb_total"),
            std::string::npos);
}

}  // namespace
}  // namespace sitime
