// Packed-marking storage for explicit state-space exploration.
//
// Both state-graph builders key states by a marking (tokens per place/arc).
// The legacy representation — std::map<std::vector<int>, int> — paid a heap
// allocation per state plus O(log n) lookups with full vector comparisons.
// MarkingSet replaces it with:
//   - a *packed* encoding: each place's token count occupies a fixed number
//     of bits (bit_width(max_tokens); 3 bits for the default token limit of
//     6, i.e. 21 places per 64-bit word) inside a small run of uint64_t
//     words. Nets whose places may hold more tokens spill to wider fields —
//     the width is chosen per set at construction, so encode/decode stays
//     branch-free;
//   - a contiguous arena holding all packed markings back to back (state id
//     = arena slot), no per-state allocation;
//   - an open-addressing hash table (FNV-1a over the packed words, linear
//     probing, power-of-two capacity) mapping a packed marking to its dense
//     state id with O(1) expected insert/lookup.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace sitime::base {

class MarkingSet {
 public:
  /// Empty set; reset() must be called before use.
  MarkingSet() = default;

  /// A set for markings over `place_count` places where every token count
  /// lies in [0, max_tokens]. Callers enforcing a token *limit* L should
  /// pass L plus the largest number of tokens one firing can add to a place
  /// (usually 1), so transient counts stay in range until the limit check.
  MarkingSet(int place_count, int max_tokens) { reset(place_count, max_tokens); }

  /// Re-initializes (drops all markings, re-derives the packing geometry).
  void reset(int place_count, int max_tokens);

  int size() const { return size_; }
  int place_count() const { return place_count_; }
  int bits_per_place() const { return bits_; }
  int places_per_word() const { return places_per_word_; }
  int words_per_marking() const { return words_; }
  int max_tokens() const { return limit_; }

  /// Inserts `marking` (deduplicating): returns (state id, inserted-now).
  /// Throws when a token count is negative or exceeds max_tokens.
  std::pair<int, bool> insert(const std::vector<int>& marking);

  /// Inserts an already-packed marking (words_per_marking() words).
  std::pair<int, bool> insert_packed(const std::uint64_t* words);

  /// State id of `marking`, or -1 when absent.
  int find(const std::vector<int>& marking) const;
  bool contains(const std::vector<int>& marking) const { return find(marking) != -1; }

  /// Decodes state `id` back to tokens-per-place.
  std::vector<int> marking(int id) const;
  void decode(int id, std::vector<int>& out) const;

  /// Token count of one place of state `id` (no full decode).
  int tokens(int id, int place) const;

  /// The packed words of state `id` (words_per_marking() of them).
  const std::uint64_t* packed(int id) const { return arena_.data() + static_cast<std::size_t>(id) * words_; }

  /// Packs `marking` into `out` (words_per_marking() words, caller-owned).
  void encode(const std::vector<int>& marking, std::uint64_t* out) const;

  /// FNV-1a over `count` words (shared with the SG cache key hashing).
  static std::uint64_t hash_words(const std::uint64_t* words, int count);

 private:
  int probe(const std::uint64_t* words, std::uint64_t hash) const;
  void grow();

  int place_count_ = 0;
  int bits_ = 1;             // bits per place
  int places_per_word_ = 64; // floor(64 / bits_)
  int words_ = 0;            // words per packed marking
  std::uint64_t mask_ = 1;   // (1 << bits_) - 1, field extraction mask
  int limit_ = 1;            // declared max_tokens, enforced by encode()
  int size_ = 0;
  std::vector<std::uint64_t> arena_;   // size_ * words_ packed words
  std::vector<std::int32_t> table_;    // open addressing; -1 = empty slot
  std::vector<std::uint64_t> scratch_; // one packed marking, reused
};

/// Precompiled token game over packed markings: per transition, the input
/// fields to test, the combined word deltas of one firing, and the output
/// fields to bound-check. enabled() and fire() then run on the packed words
/// directly — no decode, no per-state allocation. Field lanes never
/// interact as long as every transient count stays within the MarkingSet's
/// max_tokens (see MarkingSet's constructor note about headroom).
class FireTable {
 public:
  FireTable(const MarkingSet& set, int transition_count);

  /// Declares that `transition` consumes one token from `place` (call once
  /// per flow-arc occurrence; multiplicities accumulate).
  void add_input(int transition, int place);

  /// Declares that `transition` produces one token into `place`.
  void add_output(int transition, int place);

  /// Call after the last add_input()/add_output().
  void seal();

  /// True when every input field of `transition` holds at least its
  /// multiplicity.
  bool enabled(int transition, const std::uint64_t* marking) const;

  /// next = marking with `transition` fired (caller guarantees enabled()).
  void fire(int transition, const std::uint64_t* marking,
            std::uint64_t* next) const;

  /// Largest token count among the output places of `transition` in
  /// `marking` (for the token-limit check after fire()).
  int max_output_tokens(int transition, const std::uint64_t* marking) const;

 private:
  struct Field {
    int word = 0;
    int shift = 0;
    std::uint64_t count = 0;  // multiplicity (inputs) — unused for outputs
  };
  int words_ = 0;
  std::uint64_t mask_ = 0;
  std::vector<std::vector<Field>> inputs_;            // per transition
  std::vector<std::vector<Field>> outputs_;           // deduplicated fields
  std::vector<std::vector<std::pair<int, std::uint64_t>>> delta_;  // per word
  int bits_ = 1;
  int places_per_word_ = 64;
};

}  // namespace sitime::base
