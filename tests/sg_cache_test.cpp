// sg::SgCache under concurrency: many workers hammering one cache must
// keep the hit/miss accounting exact (hits + misses == calls), converge on
// one canonical graph per key (racing builders adopt the winner's graph),
// and keep distinct keys separate however they collide on shards and
// buckets.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "base/thread_pool.hpp"
#include "sg/sg_cache.hpp"
#include "sg/state_graph.hpp"
#include "stg/marked_graph.hpp"

namespace sitime::sg {
namespace {

using stg::SignalKind;
using stg::SignalTable;
using stg::TransitionLabel;

/// A consistent ring over `signals` signals: s0+ => s1+ => ... => s0- =>
/// s1- => ... => (s0+ with token). Its SG is one cycle of 2 * signals
/// states, so every ring length is a distinct cache key with a checkable
/// graph.
stg::MgStg ring_stg(SignalTable& table, int signals) {
  table = SignalTable();
  std::vector<int> ids;
  for (int s = 0; s < signals; ++s)
    ids.push_back(table.add("s" + std::to_string(s), SignalKind::input));
  stg::MgStg mg(&table);
  std::vector<int> rises, falls;
  for (int s = 0; s < signals; ++s)
    rises.push_back(mg.add_transition(TransitionLabel{ids[s], true, 1}));
  for (int s = 0; s < signals; ++s)
    falls.push_back(mg.add_transition(TransitionLabel{ids[s], false, 1}));
  for (int s = 0; s + 1 < signals; ++s) mg.insert_arc(rises[s], rises[s + 1], 0);
  mg.insert_arc(rises[signals - 1], falls[0], 0);
  for (int s = 0; s + 1 < signals; ++s) mg.insert_arc(falls[s], falls[s + 1], 0);
  mg.insert_arc(falls[signals - 1], rises[0], 1);
  mg.initial_values.assign(signals, 0);
  return mg;
}

TEST(SgCache, HitMissAccountingIsExact) {
  SignalTable table2, table3;
  const stg::MgStg small = ring_stg(table2, 2);
  const stg::MgStg large = ring_stg(table3, 3);
  SgCache cache;
  const auto first = cache.get_or_build(small);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 1);
  const auto second = cache.get_or_build(small);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(first.get(), second.get());
  const auto other = cache.get_or_build(large);
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_NE(first.get(), other.get());
  EXPECT_EQ(first->state_count(), 4);
  EXPECT_EQ(other->state_count(), 6);
  EXPECT_EQ(cache.entries(), 2);
  cache.clear();
  EXPECT_EQ(cache.entries(), 0);
  cache.get_or_build(small);
  EXPECT_EQ(cache.misses(), 3);  // cleared -> rebuilt
}

TEST(SgCache, ConcurrentCallersShareOneCanonicalGraph) {
  SignalTable table;
  const stg::MgStg mg = ring_stg(table, 4);
  SgCache cache;
  base::ThreadPool pool(8);
  constexpr int kCalls = 256;
  std::vector<std::shared_ptr<const StateGraph>> seen(kCalls);
  pool.parallel_for(0, kCalls,
                    [&](int i) { seen[i] = cache.get_or_build(mg); });
  // Racing first builders may each build, but every caller must end up
  // holding the same canonical graph.
  for (int i = 1; i < kCalls; ++i)
    ASSERT_EQ(seen[i].get(), seen[0].get()) << "call " << i;
  EXPECT_EQ(seen[0]->state_count(), 8);
  EXPECT_EQ(cache.hits() + cache.misses(), kCalls);
  EXPECT_GE(cache.misses(), 1);
  EXPECT_EQ(cache.entries(), 1);
}

TEST(SgCache, DistinctKeysStaySeparateUnderConcurrency) {
  // 48 distinct rings spread over the shards and buckets; every lookup
  // must come back with the graph of *its* ring whatever the interleaving.
  constexpr int kVariants = 48;
  constexpr int kRounds = 8;
  std::vector<std::unique_ptr<SignalTable>> tables;
  std::vector<stg::MgStg> variants;
  for (int v = 0; v < kVariants; ++v) {
    tables.push_back(std::make_unique<SignalTable>());
    variants.push_back(ring_stg(*tables.back(), 2 + v));
  }
  SgCache cache;
  base::ThreadPool pool(8);
  pool.parallel_for(0, kVariants * kRounds, [&](int i) {
    const int v = i % kVariants;
    const auto graph = cache.get_or_build(variants[v]);
    ASSERT_EQ(graph->state_count(), 2 * (2 + v)) << "variant " << v;
  });
  EXPECT_EQ(cache.hits() + cache.misses(), kVariants * kRounds);
  EXPECT_GE(cache.misses(), kVariants);
  EXPECT_EQ(cache.entries(), kVariants);
  // A serial re-query of every variant is now all hits.
  const int hits_before = cache.hits();
  for (int v = 0; v < kVariants; ++v) cache.get_or_build(variants[v]);
  EXPECT_EQ(cache.hits(), hits_before + kVariants);
}

}  // namespace
}  // namespace sitime::sg
