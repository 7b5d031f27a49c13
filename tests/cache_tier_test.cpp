// svc::CacheTier on its own: exact-LRU eviction under its byte budget,
// admission, re-charging, and a concurrent storm.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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
  Tier tier(50);
  for (int key = 0; key < 5; ++key)
    ASSERT_TRUE(tier.insert(key, value(key), 10));
  // Touch 0 and 2: the LRU order is now 1, 3, 4, 0, 2 (oldest first).
  ASSERT_NE(tier.lookup(0), nullptr);
  ASSERT_NE(tier.lookup(2), nullptr);
  EXPECT_EQ(tier.lookup(7), nullptr);

  // Each insert sheds the oldest entries until the tier fits its budget.
  ASSERT_TRUE(tier.insert(5, value(5), 30));
  EXPECT_EQ(resident(tier, 7), (std::vector<int>{0, 2, 5}));
  ASSERT_TRUE(tier.insert(6, value(6), 40));
  EXPECT_EQ(resident(tier, 7), (std::vector<int>{6}));

  const CacheTierStats stats = tier.stats();
  EXPECT_EQ(stats.evictions, 6);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.bytes, 40u);
}

TEST(CacheTier, ARechargeShedsFromTheLruEndAndPastTheBudgetEvicts) {
  CacheTier<std::string, int> tier(100);
  auto a = std::make_shared<int>(1);
  auto b = std::make_shared<int>(2);
  ASSERT_TRUE(tier.insert("a", a, 30));
  ASSERT_TRUE(tier.insert("b", b, 30));

  // Only the value the key still maps to can be re-charged.
  const int other = 1;
  EXPECT_FALSE(tier.recharge("a", &other, 50));
  EXPECT_FALSE(tier.recharge("z", a.get(), 50));

  // A re-charge within the budget keeps LRU order: "a" stays oldest, so
  // growing it past the budget sheds it first.
  EXPECT_TRUE(tier.recharge("a", a.get(), 50));
  EXPECT_EQ(tier.bytes(), 80u);
  EXPECT_TRUE(tier.recharge("a", a.get(), 80));
  EXPECT_FALSE(tier.contains("a"));
  EXPECT_TRUE(tier.contains("b"));

  // A re-charge that outgrows the budget sheds the older entries, and
  // one that alone exceeds it drops the entry on the spot.
  ASSERT_TRUE(tier.insert("a", a, 30));
  EXPECT_TRUE(tier.recharge("a", a.get(), 90));
  EXPECT_FALSE(tier.contains("b"));
  EXPECT_TRUE(tier.recharge("a", a.get(), 101));
  EXPECT_FALSE(tier.contains("a"));
  const CacheTierStats stats = tier.stats();
  EXPECT_EQ(stats.evictions, 3);
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(CacheTier, AnInsertLargerThanTheBudgetIsSkipped) {
  Tier tier(100);
  EXPECT_FALSE(tier.insert(0, value(0), 101));
  ASSERT_TRUE(tier.insert(0, value(0), 70));
  // A resident key keeps its value.
  EXPECT_FALSE(tier.insert(0, value(2), 1));
  EXPECT_EQ(*tier.lookup(0), 0);
  // An entry that fits alone is admitted and sheds the rest.
  ASSERT_TRUE(tier.insert(1, value(1), 100));
  EXPECT_EQ(resident(tier, 2), (std::vector<int>{1}));
  EXPECT_EQ(tier.stats().evictions, 1);
  // A disabled tier admits nothing.
  Tier none(0);
  EXPECT_FALSE(none.insert(0, value(0), 1));
}

TEST(CacheTier, ConcurrentLookupInsertRechargeStormKeepsTheBooks) {
  constexpr std::size_t kBudget = 2000;
  Tier tier(kBudget);
  constexpr int kThreads = 4;
  constexpr int kOps = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      std::uint64_t state = 0x9e3779b97f4a7c15ull * (t + 1);
      for (int op = 0; op < kOps; ++op) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const int key = static_cast<int>((state >> 33) % 300);
        const std::size_t bytes = 1 + (state >> 20) % 40;
        switch ((state >> 8) % 4) {
          case 0:
            tier.insert(key, value(key), bytes);
            break;
          case 1:
            if (const auto found = tier.lookup(key)) {
              EXPECT_EQ(*found, key);
              tier.recharge(key, found.get(), bytes);
            }
            break;
          default:
            if (const auto found = tier.lookup(key)) {
              EXPECT_EQ(*found, key);
            }
            break;
        }
      }
    });
  for (std::thread& thread : threads) thread.join();

  const CacheTierStats stats = tier.stats();
  EXPECT_EQ(static_cast<std::size_t>(stats.entries),
            resident(tier, 300).size());
  EXPECT_LE(stats.bytes, kBudget);
  EXPECT_GT(stats.evictions, 0);
}

}  // namespace
}  // namespace sitime::svc
