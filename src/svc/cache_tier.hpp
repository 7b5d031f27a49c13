// One byte-budgeted cache tier, and the budget the service's tiers share.
//
// A CacheTier is an exact-LRU map from keys to shared_ptr values under one
// mutex. Every entry carries the byte charge its caller computed (the
// calibrated model in svc/footprint.hpp), and the tier keeps
// hit/miss/eviction counters plus its resident entry and byte counts.
//
// A CacheBudget is one byte budget over an ordered stack of tiers. The
// tier constructed first has the highest shed priority. Each tier may hold
// the budget minus whatever the tiers above it hold — its allowance — so a
// lower tier's entries can never push an upper tier's entry out. The
// service stacks two tiers: whole designs, then decompositions
// (svc::DecompCache).
//
// Tiers never shed on their own: whoever changed a tier asks the budget to
// shed afterwards, so the order of shedding across tiers lives in one
// place.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/metrics.hpp"

namespace sitime::svc {

class CacheBudget;

/// Point-in-time counters of one tier: hits, misses and evictions are
/// monotonic; entries and bytes track the resident set.
struct CacheTierStats {
  long long hits = 0;
  long long misses = 0;
  long long evictions = 0;
  int entries = 0;
  std::size_t bytes = 0;
};

/// HELP texts of a tier's metric families; a null text skips its family.
struct CacheTierHelp {
  const char* hits = nullptr;
  const char* misses = nullptr;
  const char* evictions = nullptr;
  const char* entries = nullptr;
  const char* bytes = nullptr;
};

/// The key- and value-independent part of a tier: its counters and the
/// shedding the budget drives.
class CacheTierBase {
 public:
  CacheTierBase(const CacheTierBase&) = delete;
  CacheTierBase& operator=(const CacheTierBase&) = delete;

  CacheBudget& budget() const { return budget_; }
  std::size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  CacheTierStats stats() const;

  /// Registers `<prefix>_hits_total`, `_misses_total`, `_evictions_total`,
  /// `_entries` and `_bytes` as scrape-time callbacks tagged `owner`,
  /// skipping each family whose HELP text is null.
  void register_metrics(base::MetricsRegistry& registry, const void* owner,
                        const std::string& prefix,
                        const CacheTierHelp& help) const;

  /// Evicts LRU entries until the tier holds at most `target` bytes.
  virtual void shed_to(std::size_t target) = 0;

 protected:
  /// Joins `budget` below every tier constructed on it before; the
  /// destructor leaves it.
  explicit CacheTierBase(CacheBudget& budget);
  ~CacheTierBase();

  CacheBudget& budget_;
  std::atomic<std::size_t> bytes_{0};
  std::atomic<int> entries_{0};
  std::atomic<long long> hits_{0};
  std::atomic<long long> misses_{0};
  std::atomic<long long> evictions_{0};
};

class CacheBudget {
 public:
  /// 0 disables every tier: no allowance admits an entry.
  explicit CacheBudget(std::size_t budget_bytes)
      : budget_bytes_(budget_bytes) {}
  CacheBudget(const CacheBudget&) = delete;
  CacheBudget& operator=(const CacheBudget&) = delete;

  /// The bytes `tier` may hold: the budget less what the tiers above hold.
  std::size_t allowance(const CacheTierBase& tier) const;

  /// Sheds `tier` and then each tier below it to its allowance, top-down,
  /// so each allowance reflects the shedding above it.
  void shed_from(CacheTierBase& tier);

  /// shed_from(tier) for a tier that may have grown past its own
  /// allowance: the tiers below it shed first, against its unshed bytes.
  /// An upper-tier burst thus squeezes the lower tiers before it evicts
  /// any entry of its own.
  void shed_lower_first(CacheTierBase& tier);

 private:
  friend class CacheTierBase;

  const std::size_t budget_bytes_;
  std::vector<CacheTierBase*> tiers_;  // shed priority order, top first
};

template <typename Key, typename Value>
class CacheTier final : public CacheTierBase {
 public:
  using Ptr = std::shared_ptr<Value>;

  explicit CacheTier(CacheBudget& budget) : CacheTierBase(budget) {}

  /// The value under `key`, or null. A hit refreshes LRU order. A resident
  /// value that `servable` rejects is not served and counts as a miss, so
  /// the counters always agree with what was served.
  template <typename Servable>
  Ptr lookup(const Key& key, Servable servable) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto found = index_.find(key);
      if (found != index_.end() && servable(*found->second->value)) {
        lru_.splice(lru_.begin(), lru_, found->second);
        hits_.fetch_add(1, std::memory_order_relaxed);
        return found->second->value;
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Ptr lookup(const Key& key) {
    return lookup(key, [](const Value&) { return true; });
  }

  /// Uncounted, and leaves LRU order alone.
  bool contains(const Key& key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return index_.count(key) != 0;
  }

  /// Stores `value` at `bytes` under a key that is not resident, if
  /// `bytes` fits the tier's allowance; a resident key keeps its value.
  /// Returns whether `value` was stored.
  bool insert(const Key& key, Ptr value, std::size_t bytes) {
    return upsert(key, [&](const Value* resident) {
      return resident == nullptr ? std::make_pair(std::move(value), bytes)
                                 : std::make_pair(Ptr(), std::size_t{0});
    });
  }

  /// Stores the {value, bytes} pair `make(resident)` returns, where
  /// `resident` is the value under `key` (null if none) and a null value
  /// keeps the resident one. A resident key is replaced in place at the
  /// new charge and refreshed to most recent; a new key is admitted only
  /// within the allowance. `make` runs under the tier lock, so a merge
  /// with the resident value is atomic. Returns whether a value was stored.
  template <typename Make>
  bool upsert(const Key& key, Make make) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto found = index_.find(key);
    const bool resident = found != index_.end();
    auto [value, bytes] =
        make(resident ? found->second->value.get() : nullptr);
    if (value == nullptr) return false;
    if (resident) {
      found->second->value = std::move(value);
      charge(*found->second, bytes);
      lru_.splice(lru_.begin(), lru_, found->second);
      return true;
    }
    if (bytes > budget_.allowance(*this)) return false;
    const auto slot = index_.emplace(key, lru_.end()).first;
    lru_.push_front(Node{&slot->first, std::move(value), bytes});
    slot->second = lru_.begin();
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    entries_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Re-charges `key` at `bytes` if it still maps to `value`, leaving LRU
  /// order alone. An entry that alone outgrows the tier's allowance is
  /// evicted (and counted). Returns false when `key` does not map to
  /// `value`.
  bool recharge(const Key& key, const Value* value, std::size_t bytes) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto found = index_.find(key);
    if (found == index_.end() || found->second->value.get() != value)
      return false;
    if (bytes > budget_.allowance(*this))
      evict_locked(found->second);
    else
      charge(*found->second, bytes);
    return true;
  }

  void shed_to(std::size_t target) override {
    std::lock_guard<std::mutex> lock(mutex_);
    while (bytes() > target && !lru_.empty())
      evict_locked(std::prev(lru_.end()));
  }

 private:
  struct Node {
    const Key* key;  // the index's copy
    Ptr value;
    std::size_t bytes;
  };
  using Lru = std::list<Node>;

  void charge(Node& node, std::size_t bytes) {
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    bytes_.fetch_sub(node.bytes, std::memory_order_relaxed);
    node.bytes = bytes;
  }

  void evict_locked(typename Lru::iterator victim) {
    bytes_.fetch_sub(victim->bytes, std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    index_.erase(index_.find(*victim->key));
    lru_.erase(victim);
  }

  mutable std::mutex mutex_;
  Lru lru_;  // most-recently-used first
  std::unordered_map<Key, typename Lru::iterator> index_;
};

}  // namespace sitime::svc
