// svc::CacheTier and svc::CacheBudget on their own: eviction order inside
// a tier, shed order across tiers, allowance admission, re-charging, the
// registered metric families, and a concurrent storm.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/metrics.hpp"
#include "svc/cache_tier.hpp"

namespace sitime::svc {
namespace {

using Tier = CacheTier<int, const int>;

std::shared_ptr<const int> value(int v) {
  return std::make_shared<const int>(v);
}

/// The keys in [0, limit) the tier holds.
std::vector<int> resident(const Tier& tier, int limit) {
  std::vector<int> keys;
  for (int key = 0; key < limit; ++key)
    if (tier.contains(key)) keys.push_back(key);
  return keys;
}

TEST(CacheTier, EvictsInExactLruOrder) {
  CacheBudget budget(1000);
  Tier tier(budget);
  for (int key = 0; key < 5; ++key)
    ASSERT_TRUE(tier.insert(key, value(key), 10));
  // Touch 0 and 2: the LRU order is now 1, 3, 4, 0, 2 (oldest first).
  ASSERT_NE(tier.lookup(0), nullptr);
  ASSERT_NE(tier.lookup(2), nullptr);
  EXPECT_EQ(tier.lookup(7), nullptr);
  // A vetoed resident value is not served, is not touched, and counts as
  // a miss.
  EXPECT_EQ(tier.lookup(1, [](int) { return false; }), nullptr);

  tier.shed_to(30);
  EXPECT_EQ(resident(tier, 5), (std::vector<int>{0, 2, 4}));
  tier.shed_to(10);
  EXPECT_EQ(resident(tier, 5), (std::vector<int>{2}));

  const CacheTierStats stats = tier.stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.evictions, 4);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.bytes, 10u);
}

TEST(CacheBudget, ALowerTierBurstNeverEvictsAnUpperTierEntry) {
  CacheBudget budget(100);
  Tier upper(budget);
  Tier lower(budget);
  for (int key = 0; key < 6; ++key) {
    ASSERT_TRUE(upper.insert(key, value(key), 10));
    budget.shed_lower_first(upper);
  }
  EXPECT_EQ(budget.allowance(lower), 40u);
  for (int key = 0; key < 50; ++key) {
    if (lower.insert(key, value(key), 10)) budget.shed_from(lower);
    EXPECT_LE(lower.bytes(), budget.allowance(lower));
  }
  EXPECT_EQ(resident(upper, 6), (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(upper.stats().evictions, 0);
  EXPECT_EQ(lower.stats().entries, 4);
  EXPECT_EQ(lower.stats().evictions, 46);
  // Even an entry the lower tier would have room for without the upper
  // tier is refused once the upper tier leaves no allowance.
  ASSERT_TRUE(upper.insert(6, value(6), 40));
  budget.shed_lower_first(upper);
  EXPECT_EQ(budget.allowance(lower), 0u);
  EXPECT_FALSE(lower.insert(99, value(99), 1));
}

TEST(CacheBudget, AnUpperTierInsertShedsLowerTiersBeforeItsOwnEntries) {
  CacheBudget budget(100);
  Tier upper(budget);
  Tier middle(budget);
  Tier lower(budget);
  for (int key = 0; key < 3; ++key) {
    ASSERT_TRUE(upper.insert(key, value(key), 20));
    ASSERT_TRUE(lower.insert(key, value(key), 10));
  }
  ASSERT_TRUE(middle.insert(0, value(0), 10));

  // 60 + 10 + 30 = 100. Growing the upper tier by 20 squeezes only the
  // bottom tier.
  ASSERT_TRUE(upper.insert(3, value(3), 20));
  budget.shed_lower_first(upper);
  EXPECT_EQ(upper.stats().evictions, 0);
  EXPECT_EQ(middle.stats().evictions, 0);
  EXPECT_EQ(resident(lower, 3), (std::vector<int>{2}));

  // Growing it past the whole budget empties both lower tiers against the
  // unshed upper bytes before the upper tier gives up its own LRU entries.
  ASSERT_TRUE(upper.insert(4, value(4), 50));
  budget.shed_lower_first(upper);
  EXPECT_EQ(middle.stats().entries, 0);
  EXPECT_EQ(lower.stats().entries, 0);
  EXPECT_EQ(resident(upper, 5), (std::vector<int>{2, 3, 4}));
  EXPECT_EQ(upper.bytes(), 90u);

  // shed_from() on a middle tier that outgrew its allowance sheds it
  // first, then the tier below against what it kept.
  upper.shed_to(50);
  ASSERT_TRUE(middle.insert(1, value(1), 10));
  ASSERT_TRUE(lower.insert(5, value(5), 30));
  ASSERT_TRUE(lower.insert(6, value(6), 10));
  ASSERT_TRUE(middle.upsert(1, [](const int*) {
    return std::make_pair(value(1), std::size_t{30});
  }));
  budget.shed_from(middle);
  EXPECT_EQ(middle.bytes(), 30u);
  EXPECT_EQ(resident(lower, 7), (std::vector<int>{6}));
}

TEST(CacheTier, ARechargePastTheAllowanceEvictsAndCountsTheEntry) {
  CacheBudget budget(100);
  CacheTier<std::string, int> tier(budget);
  auto entry = std::make_shared<int>(1);
  ASSERT_TRUE(tier.insert("a", entry, 30));
  ASSERT_TRUE(tier.insert("b", std::make_shared<int>(2), 30));

  // Only the value the key still maps to can be re-charged.
  const int other = 1;
  EXPECT_FALSE(tier.recharge("a", &other, 50));
  EXPECT_FALSE(tier.recharge("z", entry.get(), 50));

  // A re-charge within the allowance keeps LRU order: "a" stays oldest.
  EXPECT_TRUE(tier.recharge("a", entry.get(), 50));
  EXPECT_EQ(tier.bytes(), 80u);
  tier.shed_to(50);
  EXPECT_FALSE(tier.contains("a"));
  ASSERT_TRUE(tier.insert("a", entry, 30));

  // Growing past the whole allowance drops the entry on the spot.
  EXPECT_TRUE(tier.recharge("a", entry.get(), 101));
  EXPECT_FALSE(tier.contains("a"));
  const CacheTierStats stats = tier.stats();
  EXPECT_EQ(stats.evictions, 2);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.bytes, 30u);
}

TEST(CacheTier, AnInsertLargerThanTheAllowanceIsSkipped) {
  CacheBudget budget(100);
  Tier upper(budget);
  Tier lower(budget);
  EXPECT_FALSE(upper.insert(0, value(0), 101));
  ASSERT_TRUE(upper.insert(0, value(0), 70));
  EXPECT_FALSE(lower.insert(0, value(0), 31));
  EXPECT_TRUE(lower.insert(1, value(1), 30));
  // A resident key keeps its value; upsert() replaces it in place even
  // past the allowance (the caller sheds afterwards).
  EXPECT_FALSE(lower.insert(1, value(2), 1));
  EXPECT_EQ(*lower.lookup(1), 1);
  EXPECT_TRUE(lower.upsert(1, [](const int* resident) {
    return std::make_pair(value(*resident + 10), std::size_t{40});
  }));
  EXPECT_EQ(*lower.lookup(1), 11);
  EXPECT_EQ(lower.bytes(), 40u);
  budget.shed_from(lower);
  EXPECT_EQ(lower.stats().entries, 0);
  // A disabled budget admits nothing.
  CacheBudget off(0);
  Tier none(off);
  EXPECT_FALSE(none.insert(0, value(0), 1));
}

/// The value of the unlabelled sample `name` in a Prometheus exposition,
/// or -1 when absent.
double sample(const std::string& text, const std::string& name) {
  const auto at = text.find("\n" + name + " ");
  if (at == std::string::npos) return -1;
  return std::stod(text.substr(at + name.size() + 2));
}

TEST(CacheTier, CountersEqualTheRegisteredMetricValues) {
  base::MetricsRegistry registry;
  CacheBudget budget(50);
  Tier tier(budget);
  Tier quiet(budget);
  tier.register_metrics(registry, &tier, "t",
                        {.hits = "h", .misses = "m", .evictions = "e",
                         .entries = "n", .bytes = "b"});
  quiet.register_metrics(registry, &quiet, "q", {.evictions = "e"});
  for (int key = 0; key < 8; ++key)
    if (tier.insert(key, value(key), 10)) budget.shed_from(tier);
  for (int key = 0; key < 8; ++key) tier.lookup(key);

  const CacheTierStats stats = tier.stats();
  EXPECT_EQ(stats.hits, 5);
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.evictions, 3);
  const std::string text = registry.render_prometheus();
  EXPECT_EQ(sample(text, "t_hits_total"), stats.hits);
  EXPECT_EQ(sample(text, "t_misses_total"), stats.misses);
  EXPECT_EQ(sample(text, "t_evictions_total"), stats.evictions);
  EXPECT_EQ(sample(text, "t_entries"), stats.entries);
  EXPECT_EQ(sample(text, "t_bytes"), static_cast<double>(stats.bytes));
  EXPECT_NE(text.find("# TYPE t_hits_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE t_bytes gauge"), std::string::npos);
  // Families without a HELP text are not registered.
  EXPECT_EQ(sample(text, "q_evictions_total"), 0);
  EXPECT_EQ(text.find("q_hits_total"), std::string::npos);
  EXPECT_EQ(text.find("q_bytes"), std::string::npos);
  registry.remove_callbacks(&tier);
  registry.remove_callbacks(&quiet);
}

TEST(CacheTier, ConcurrentLookupInsertShedStormKeepsTheBooks) {
  constexpr std::size_t kBudget = 2000;
  CacheBudget budget(kBudget);
  Tier upper(budget);
  Tier lower(budget);
  constexpr int kThreads = 4;
  constexpr int kOps = 4000;
  std::atomic<long long> lookups{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      std::uint64_t state = 0x9e3779b97f4a7c15ull * (t + 1);
      for (int op = 0; op < kOps; ++op) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const int key = static_cast<int>((state >> 33) % 300);
        const std::size_t bytes = 1 + (state >> 20) % 40;
        switch ((state >> 8) % 5) {
          case 0:
            if (upper.insert(key, value(key), bytes))
              budget.shed_lower_first(upper);
            break;
          case 1:
            if (lower.insert(key, value(key), bytes)) budget.shed_from(lower);
            break;
          case 2:
            if (const auto found = upper.lookup(key)) {
              EXPECT_EQ(*found, key);
            }
            ++lookups;
            break;
          default:
            if (const auto found = lower.lookup(key)) {
              EXPECT_EQ(*found, key);
            }
            ++lookups;
            break;
        }
      }
    });
  for (std::thread& thread : threads) thread.join();

  budget.shed_lower_first(upper);
  const CacheTierStats up = upper.stats();
  const CacheTierStats down = lower.stats();
  EXPECT_EQ(up.hits + up.misses + down.hits + down.misses, lookups.load());
  EXPECT_EQ(static_cast<std::size_t>(up.entries), resident(upper, 300).size());
  EXPECT_EQ(static_cast<std::size_t>(down.entries),
            resident(lower, 300).size());
  EXPECT_LE(up.bytes + down.bytes, kBudget);
  EXPECT_GT(up.evictions + down.evictions, 0);
}

}  // namespace
}  // namespace sitime::svc
