// One byte-budgeted, exact-LRU cache tier.
//
// A CacheTier maps keys to shared_ptr values under one mutex. Every entry
// carries the byte charge its caller computed (the calibrated model in
// svc/footprint.hpp). The tier owns its byte budget: an insert or a
// re-charge that takes it past the budget sheds least-recently-used
// entries until it fits again. It counts its evictions and its resident
// entries and bytes, the state only it owns; hits and misses are the
// caller's outcomes to count. The service keeps its resident designs in
// one; the decompositions those designs hold are shared through them, not
// cached in a tier of their own.
#pragma once

#include <atomic>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace sitime::svc {

/// Point-in-time counters of one tier: evictions is monotonic; entries
/// and bytes track the resident set.
struct CacheTierStats {
  long long evictions = 0;
  int entries = 0;
  std::size_t bytes = 0;
};

template <typename Key, typename Value>
class CacheTier {
 public:
  using Ptr = std::shared_ptr<Value>;

  /// 0 disables the tier: no entry is admitted.
  explicit CacheTier(std::size_t budget_bytes) : budget_(budget_bytes) {}
  CacheTier(const CacheTier&) = delete;
  CacheTier& operator=(const CacheTier&) = delete;

  std::size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

  CacheTierStats stats() const {
    CacheTierStats stats;
    stats.evictions = evictions_.load(std::memory_order_relaxed);
    stats.entries = entries_.load(std::memory_order_relaxed);
    stats.bytes = bytes();
    return stats;
  }

  /// The value under `key`, or null. A hit refreshes LRU order.
  Ptr lookup(const Key& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto found = index_.find(key);
    if (found == index_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, found->second);
    return found->second->value;
  }

  /// Whether `key` is resident; leaves LRU order alone.
  bool contains(const Key& key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return index_.count(key) != 0;
  }

  /// Stores `value` at `bytes` as the most recent entry under a key that
  /// is not resident, then sheds older entries to fit the budget. A
  /// resident key keeps its value, and an entry larger than the whole
  /// budget is not stored. Returns whether `value` was stored.
  bool insert(const Key& key, Ptr value, std::size_t bytes) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (bytes > budget_ || index_.count(key) != 0) return false;
    const auto slot = index_.emplace(key, lru_.end()).first;
    lru_.push_front(Node{&slot->first, std::move(value), bytes});
    slot->second = lru_.begin();
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    entries_.fetch_add(1, std::memory_order_relaxed);
    shed_locked();
    return true;
  }

  /// Re-charges `key` at `bytes` if it still maps to `value`, leaving LRU
  /// order alone, then sheds to fit the budget from the LRU end (which may
  /// be this entry). An entry that alone outgrows the budget is evicted.
  /// Evictions are counted. Returns false when `key` does not map to
  /// `value`.
  bool recharge(const Key& key, const Value* value, std::size_t bytes) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto found = index_.find(key);
    if (found == index_.end() || found->second->value.get() != value)
      return false;
    if (bytes > budget_) {
      evict_locked(found->second);
      return true;
    }
    Node& node = *found->second;
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    bytes_.fetch_sub(node.bytes, std::memory_order_relaxed);
    node.bytes = bytes;
    shed_locked();
    return true;
  }

 private:
  struct Node {
    const Key* key;  // the index's copy
    Ptr value;
    std::size_t bytes;
  };
  using Lru = std::list<Node>;

  void shed_locked() {
    while (bytes() > budget_ && !lru_.empty())
      evict_locked(std::prev(lru_.end()));
  }

  void evict_locked(typename Lru::iterator victim) {
    bytes_.fetch_sub(victim->bytes, std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    index_.erase(index_.find(*victim->key));
    lru_.erase(victim);
  }

  const std::size_t budget_;
  std::atomic<std::size_t> bytes_{0};
  std::atomic<int> entries_{0};
  std::atomic<long long> evictions_{0};

  mutable std::mutex mutex_;
  Lru lru_;  // most-recently-used first
  std::unordered_map<Key, typename Lru::iterator> index_;
};

}  // namespace sitime::svc
