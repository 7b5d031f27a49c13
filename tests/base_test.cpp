#include <gtest/gtest.h>

#include <random>

#include "base/cancel.hpp"
#include "base/error.hpp"
#include "base/graph.hpp"
#include "base/marking_set.hpp"
#include "base/strings.hpp"

namespace sitime::base {
namespace {

TEST(Strings, SplitDropsEmptyPieces) {
  EXPECT_EQ(split("a  b\tc"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split(""), std::vector<std::string>{});
  EXPECT_EQ(split("   "), std::vector<std::string>{});
}

TEST(Strings, SplitCustomSeparators) {
  EXPECT_EQ(split("a*b*c", "*"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("x + y", "+"), (std::vector<std::string>{"x ", " y"}));
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hello \t"), "hello");
  EXPECT_EQ(trim("hello"), "hello");
  EXPECT_EQ(trim("  \t "), "");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"one"}, ","), "one");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with(".inputs a b", ".inputs"));
  EXPECT_FALSE(starts_with(".in", ".inputs"));
  EXPECT_TRUE(ends_with("wenin'", "'"));
  EXPECT_FALSE(ends_with("", "'"));
}

TEST(Error, CheckThrowsWithMessage) {
  EXPECT_NO_THROW(check(true, "fine"));
  try {
    check(false, "broken invariant");
    FAIL() << "expected throw";
  } catch (const Error& error) {
    EXPECT_STREQ(error.what(), "broken invariant");
  }
}

TEST(Deadline, AHugeBudgetSaturatesInsteadOfOverflowing) {
  // 1e13 ms overflows a nanosecond steady_clock time point; the deadline
  // must saturate far in the future, not wrap into the past.
  const Deadline deadline = Deadline::after_ms(10'000'000'000'000LL);
  EXPECT_TRUE(deadline.active());
  EXPECT_FALSE(deadline.expired());
  EXPECT_EQ(deadline.when(), Deadline::Clock::time_point::max());
  EXPECT_FALSE(CancelToken(deadline).cancelled());
  // Ordinary budgets are untouched; non-positive ones stay inactive.
  const auto now = Deadline::Clock::now();
  EXPECT_EQ(Deadline::after_ms(5, now).when(),
            now + std::chrono::milliseconds(5));
  EXPECT_FALSE(Deadline::after_ms(0).active());
}

TEST(Graph, DijkstraShortestPath) {
  // 0 ->(1) 1 ->(2) 2, 0 ->(5) 2
  WeightedGraph graph(3);
  graph[0] = {{1, 1}, {2, 5}};
  graph[1] = {{2, 2}};
  const auto dist = dijkstra(graph, 0);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], 3);
}

TEST(Graph, DijkstraUnreachable) {
  WeightedGraph graph(3);
  graph[0] = {{1, 0}};
  const auto dist = dijkstra(graph, 0);
  EXPECT_EQ(dist[2], kUnreachable);
}

TEST(Graph, DijkstraZeroWeights) {
  // Token-free paths must count as distance 0 (shortcut place check).
  WeightedGraph graph(4);
  graph[0] = {{1, 0}};
  graph[1] = {{2, 0}};
  graph[2] = {{3, 1}};
  const auto dist = dijkstra(graph, 0);
  EXPECT_EQ(dist[2], 0);
  EXPECT_EQ(dist[3], 1);
}

TEST(Graph, TopologicalOrderDetectsCycle) {
  WeightedGraph graph(2);
  graph[0] = {{1, 1}};
  graph[1] = {{0, 1}};
  EXPECT_TRUE(has_cycle(graph));
  EXPECT_THROW(topological_order(graph), Error);
}

TEST(Graph, DagLongestPath) {
  // Diamond: 0->1->3 (2+1), 0->2->3 (1+5).
  WeightedGraph graph(4);
  graph[0] = {{1, 2}, {2, 1}};
  graph[1] = {{3, 1}};
  graph[2] = {{3, 5}};
  const auto dist = dag_longest_paths(graph, 0);
  EXPECT_EQ(dist[3], 6);
  EXPECT_EQ(dist[1], 2);
}

TEST(Graph, WeakComponentsRespectMembership) {
  // 0-1 connected, 2 isolated member, 3 not a member.
  WeightedGraph graph(4);
  graph[0] = {{1, 1}};
  graph[2] = {{3, 1}};
  const std::vector<bool> member{true, true, true, false};
  const auto comp = weak_components(graph, member);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_EQ(comp[3], -1);
}

TEST(Graph, WeakComponentsIgnoreDirection) {
  WeightedGraph graph(3);
  graph[2] = {{0, 1}};
  graph[1] = {{0, 1}};
  const auto comp = weak_components(graph, {true, true, true});
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
}

TEST(MarkingSet, PackingGeometryAtTheDefaultTokenLimit) {
  // token_limit 6 plus one firing of headroom -> 3 bits per place,
  // 21 places per 64-bit word.
  MarkingSet set(21, 7);
  EXPECT_EQ(set.bits_per_place(), 3);
  EXPECT_EQ(set.places_per_word(), 21);
  EXPECT_EQ(set.words_per_marking(), 1);
  // One place more crosses the word boundary.
  MarkingSet wide(22, 7);
  EXPECT_EQ(wide.words_per_marking(), 2);
}

TEST(MarkingSet, InsertDeduplicatesAndDecodes) {
  MarkingSet set(5, 7);
  const std::vector<int> a{1, 0, 3, 7, 2};
  const std::vector<int> b{0, 0, 0, 0, 0};
  EXPECT_EQ(set.insert(a), (std::pair<int, bool>{0, true}));
  EXPECT_EQ(set.insert(b), (std::pair<int, bool>{1, true}));
  EXPECT_EQ(set.insert(a), (std::pair<int, bool>{0, false}));
  EXPECT_EQ(set.size(), 2);
  EXPECT_EQ(set.marking(0), a);
  EXPECT_EQ(set.marking(1), b);
  EXPECT_EQ(set.find(a), 0);
  EXPECT_EQ(set.find({1, 1, 1, 1, 1}), -1);
  EXPECT_EQ(set.tokens(0, 3), 7);
}

TEST(MarkingSet, TokenSpillWidensTheFields) {
  // Token counts above 7 no longer fit 3 bits: the packing must spill to
  // wider fields instead of corrupting neighbours.
  MarkingSet set(3, 100);
  EXPECT_EQ(set.bits_per_place(), 7);
  const std::vector<int> m{100, 0, 99};
  set.insert(m);
  EXPECT_EQ(set.marking(0), m);
  EXPECT_THROW(set.insert({101, 0, 0}), Error);
  EXPECT_THROW(set.insert({-1, 0, 0}), Error);
}

TEST(MarkingSet, MoreThanTwentyOnePlacesPerWordBoundary) {
  // 45 places at 3 bits/place span three words; exercise every boundary
  // field (20/21/41/42/44) plus a middle one.
  MarkingSet set(45, 7);
  ASSERT_EQ(set.words_per_marking(), 3);
  std::vector<int> m(45, 0);
  m[0] = 5;
  m[20] = 7;
  m[21] = 1;
  m[30] = 3;
  m[41] = 6;
  m[42] = 2;
  m[44] = 4;
  const auto [id, inserted] = set.insert(m);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(set.marking(id), m);
  // A marking differing only in the last field of the last word must not
  // collide.
  std::vector<int> n = m;
  n[44] = 5;
  EXPECT_NE(set.insert(n).first, id);
  EXPECT_EQ(set.marking(1), n);
}

TEST(MarkingSet, SurvivesRehashWithManyStates) {
  // Push well past the initial capacity so grow() rehashes several times;
  // ids, dedup, and decode must hold throughout.
  MarkingSet set(8, 7);
  std::mt19937 rng(7);
  std::vector<std::vector<int>> all;
  for (int i = 0; i < 2000; ++i) {
    std::vector<int> m(8);
    for (int& v : m) v = static_cast<int>(rng() % 8);
    const auto [id, inserted] = set.insert(m);
    if (inserted) {
      EXPECT_EQ(id, static_cast<int>(all.size()));
      all.push_back(m);
    } else {
      EXPECT_EQ(all[id], m);
    }
  }
  EXPECT_EQ(set.size(), static_cast<int>(all.size()));
  for (int id = 0; id < set.size(); ++id) {
    EXPECT_EQ(set.marking(id), all[id]);
    EXPECT_EQ(set.find(all[id]), id);
  }
}

TEST(MarkingSet, ZeroPlaces) {
  // A net without places has exactly one (empty) marking.
  MarkingSet set(0, 7);
  EXPECT_EQ(set.insert({}), (std::pair<int, bool>{0, true}));
  EXPECT_EQ(set.insert({}), (std::pair<int, bool>{0, false}));
  EXPECT_EQ(set.marking(0), std::vector<int>{});
}

TEST(FireTable, PackedFiringMatchesThePlainTokenGame) {
  // p0 -> t0 -> p1, p1 -> t1 -> p0 (two tokens circulating).
  MarkingSet set(2, 3);
  FireTable fire(set, 2);
  fire.add_input(0, 0);
  fire.add_output(0, 1);
  fire.add_input(1, 1);
  fire.add_output(1, 0);
  fire.seal();
  const auto [id, inserted] = set.insert({2, 0});
  ASSERT_TRUE(inserted);
  std::vector<std::uint64_t> next(std::max(1, set.words_per_marking()));
  EXPECT_TRUE(fire.enabled(0, set.packed(id)));
  EXPECT_FALSE(fire.enabled(1, set.packed(id)));
  fire.fire(0, set.packed(id), next.data());
  const auto [succ, fresh] = set.insert_packed(next.data());
  EXPECT_TRUE(fresh);
  EXPECT_EQ(set.marking(succ), (std::vector<int>{1, 1}));
  EXPECT_EQ(fire.max_output_tokens(0, next.data()), 1);
}

}  // namespace
}  // namespace sitime::base
