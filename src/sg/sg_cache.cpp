#include "sg/sg_cache.hpp"

#include <chrono>

#include "base/marking_set.hpp"
#include "base/metrics.hpp"

namespace sitime::sg {

namespace {

// Entries are small (a key plus a shared_ptr), but the graphs they pin are
// not; cap each shard and start it over rather than grow without bound.
constexpr int kMaxEntriesPerShard = 256;

/// Packs the token-game content of `mg`: transition and arc counts, the
/// arc table (from, to, tokens — kinds do NOT participate in the token
/// game and are deliberately excluded), the alive bitset, the (signal,
/// rising) labels of the alive transitions (codes and consistency checks
/// read them), and the initial values. This is exactly the content two
/// MgStgs must share to have the same state graph.
std::vector<std::uint64_t> make_key(const stg::MgStg& mg) {
  std::vector<std::uint64_t> key;
  const auto& arcs = mg.arcs();
  key.reserve(2 * arcs.size() + 3 + mg.transition_count() / 64 +
              mg.signals().count() / 16);
  key.push_back((static_cast<std::uint64_t>(mg.transition_count()) << 32) |
                static_cast<std::uint64_t>(arcs.size()));
  for (const stg::MgArc& arc : arcs)
    key.push_back((static_cast<std::uint64_t>(arc.from) << 40) |
                  (static_cast<std::uint64_t>(arc.to) << 16) |
                  (static_cast<std::uint64_t>(arc.tokens) & 0xffff));
  std::uint64_t word = 0;
  for (int t = 0; t < mg.transition_count(); ++t) {
    word = (word << 1) | (mg.alive(t) ? 1 : 0);
    if (t % 64 == 63) {
      key.push_back(word);
      word = 0;
    }
  }
  key.push_back(word);
  word = 0;
  int packed_labels = 0;
  for (int t = 0; t < mg.transition_count(); ++t) {
    if (!mg.alive(t)) continue;
    const stg::TransitionLabel& label = mg.label(t);
    word = (word << 8) | (static_cast<std::uint64_t>(label.signal) << 1) |
           (label.rising ? 1 : 0);
    if (++packed_labels % 8 == 0) {
      key.push_back(word);
      word = 0;
    }
  }
  key.push_back(word);
  word = 0;
  for (int s = 0; s < static_cast<int>(mg.initial_values.size()); ++s) {
    // Two bits per signal: -1 -> 1, 0 -> 2, 1 -> 3.
    word = (word << 2) | static_cast<std::uint64_t>(mg.initial_values[s] + 2);
    if (s % 32 == 31) {
      key.push_back(word);
      word = 0;
    }
  }
  key.push_back(word);
  return key;
}

}  // namespace

std::shared_ptr<const StateGraph> SgCache::get_or_build(
    const stg::MgStg& mg, const base::CancelToken& cancel) {
  std::vector<std::uint64_t> key = make_key(mg);
  const std::uint64_t hash = base::MarkingSet::hash_words(
      key.data(), static_cast<int>(key.size()));
  // High bits pick the shard so the in-shard bucket index (low bits) stays
  // uniform within each shard.
  Shard& shard = shards_[(hash >> 48) % kShardCount];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.buckets.find(hash);
    if (it != shard.buckets.end())
      for (const Entry& entry : it->second)
        if (entry.key == key) {
          hits_.fetch_add(1, std::memory_order_relaxed);
          return entry.graph;
        }
  }
  // Miss: build outside the lock (construction dominates), then insert
  // unless a racing builder beat us to it — adopt its graph in that case so
  // one canonical graph per key circulates.
  misses_.fetch_add(1, std::memory_order_relaxed);
  SgBuildOptions build;
  build.cancel = cancel;
  const auto build_start = std::chrono::steady_clock::now();
  auto graph =
      std::make_shared<const StateGraph>(build_state_graph(mg, build));
  if (build_seconds_ != nullptr)
    build_seconds_->observe(std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - build_start)
                                .count());
  std::lock_guard<std::mutex> lock(shard.mutex);
  std::vector<Entry>& bucket = shard.buckets[hash];
  for (const Entry& entry : bucket)
    if (entry.key == key) return entry.graph;
  if (shard.entries >= kMaxEntriesPerShard) {
    shard.buckets.clear();
    shard.entries = 0;
  }
  shard.buckets[hash].push_back(Entry{std::move(key), graph});
  ++shard.entries;
  return graph;
}

int SgCache::entries() const {
  int total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.entries;
  }
  return total;
}

void SgCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.buckets.clear();
    shard.entries = 0;
  }
}

}  // namespace sitime::sg
