#include "base/marking_set.hpp"

#include <bit>
#include <cstring>

#include "base/error.hpp"

namespace sitime::base {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
constexpr int kInitialCapacity = 64;  // power of two

}  // namespace

std::uint64_t MarkingSet::hash_words(const std::uint64_t* words, int count) {
  std::uint64_t hash = kFnvOffset;
  for (int i = 0; i < count; ++i) {
    // Byte-at-a-time FNV-1a keeps the classic avalanche behaviour; the
    // word loop stays branch-light and the compiler unrolls it.
    std::uint64_t word = words[i];
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= word & 0xff;
      hash *= kFnvPrime;
      word >>= 8;
    }
  }
  return hash;
}

void MarkingSet::reset(int place_count, int max_tokens) {
  check(place_count >= 0, "MarkingSet: negative place count");
  check(max_tokens >= 1 && max_tokens <= (1 << 30),
        "MarkingSet: max_tokens out of range");
  place_count_ = place_count;
  limit_ = max_tokens;
  bits_ = std::bit_width(static_cast<unsigned>(max_tokens));
  places_per_word_ = 64 / bits_;
  words_ = place_count == 0
               ? 0
               : (place_count + places_per_word_ - 1) / places_per_word_;
  mask_ = (std::uint64_t{1} << bits_) - 1;
  size_ = 0;
  arena_.clear();
  table_.assign(kInitialCapacity, -1);
  scratch_.assign(static_cast<std::size_t>(words_), 0);
}

void MarkingSet::encode(const std::vector<int>& marking,
                        std::uint64_t* out) const {
  check(static_cast<int>(marking.size()) == place_count_,
        "MarkingSet::encode: marking size mismatch");
  for (int w = 0; w < words_; ++w) out[w] = 0;
  for (int p = 0; p < place_count_; ++p) {
    const int tokens = marking[p];
    check(tokens >= 0 && tokens <= limit_,
          "MarkingSet::encode: token count outside the packed range");
    out[p / places_per_word_] |= static_cast<std::uint64_t>(tokens)
                                 << (bits_ * (p % places_per_word_));
  }
}

void MarkingSet::decode(int id, std::vector<int>& out) const {
  check(id >= 0 && id < size_, "MarkingSet::decode: bad state id");
  out.resize(place_count_);
  const std::uint64_t* words = packed(id);
  for (int p = 0; p < place_count_; ++p)
    out[p] = static_cast<int>(
        (words[p / places_per_word_] >> (bits_ * (p % places_per_word_))) &
        mask_);
}

std::vector<int> MarkingSet::marking(int id) const {
  std::vector<int> out;
  decode(id, out);
  return out;
}

int MarkingSet::tokens(int id, int place) const {
  check(id >= 0 && id < size_, "MarkingSet::tokens: bad state id");
  check(place >= 0 && place < place_count_, "MarkingSet::tokens: bad place");
  return static_cast<int>(
      (packed(id)[place / places_per_word_] >>
       (bits_ * (place % places_per_word_))) &
      mask_);
}

int MarkingSet::probe(const std::uint64_t* words, std::uint64_t hash) const {
  const std::size_t capacity = table_.size();
  std::size_t slot = hash & (capacity - 1);
  while (true) {
    const std::int32_t id = table_[slot];
    if (id == -1) return static_cast<int>(slot);
    if (words_ == 0 ||
        std::memcmp(packed(id), words, sizeof(std::uint64_t) * words_) == 0)
      return static_cast<int>(slot);
    slot = (slot + 1) & (capacity - 1);
  }
}

void MarkingSet::grow() {
  std::vector<std::int32_t> old = std::move(table_);
  table_.assign(old.size() * 2, -1);
  const std::size_t capacity = table_.size();
  for (std::int32_t id : old) {
    if (id == -1) continue;
    std::size_t slot = hash_words(packed(id), words_) & (capacity - 1);
    while (table_[slot] != -1) slot = (slot + 1) & (capacity - 1);
    table_[slot] = id;
  }
}

std::pair<int, bool> MarkingSet::insert(const std::vector<int>& marking) {
  encode(marking, scratch_.data());
  return insert_packed(scratch_.data());
}

std::pair<int, bool> MarkingSet::insert_packed(const std::uint64_t* words) {
  check(!table_.empty(), "MarkingSet::insert: reset() not called");
  const std::uint64_t hash = hash_words(words, words_);
  const int slot = probe(words, hash);
  if (table_[slot] != -1) return {table_[slot], false};
  const int id = size_;
  table_[slot] = id;
  ++size_;
  arena_.insert(arena_.end(), words, words + words_);
  // Keep the load factor under ~0.7 so probe chains stay short.
  if (static_cast<std::size_t>(size_) * 10 >= table_.size() * 7) grow();
  return {id, true};
}

FireTable::FireTable(const MarkingSet& set, int transition_count)
    : words_(set.words_per_marking()),
      inputs_(transition_count),
      outputs_(transition_count),
      delta_(transition_count),
      bits_(set.bits_per_place()),
      places_per_word_(set.places_per_word()) {
  mask_ = (std::uint64_t{1} << bits_) - 1;
}

void FireTable::add_input(int transition, int place) {
  const int word = place / places_per_word_;
  const int shift = bits_ * (place % places_per_word_);
  for (Field& field : inputs_[transition])
    if (field.word == word && field.shift == shift) {
      ++field.count;
      return;
    }
  inputs_[transition].push_back(Field{word, shift, 1});
}

void FireTable::add_output(int transition, int place) {
  const int word = place / places_per_word_;
  const int shift = bits_ * (place % places_per_word_);
  for (Field& field : outputs_[transition])
    if (field.word == word && field.shift == shift) {
      ++field.count;
      return;
    }
  outputs_[transition].push_back(Field{word, shift, 1});
}

void FireTable::seal() {
  // Fold every transition's input (subtract) and output (add) occurrences
  // into one net delta per touched word. Word arithmetic is exact because
  // each field's final value stays within its lane.
  for (std::size_t t = 0; t < inputs_.size(); ++t) {
    std::vector<std::pair<int, std::uint64_t>>& delta = delta_[t];
    auto accumulate = [&delta](int word, std::uint64_t amount) {
      for (auto& [w, d] : delta)
        if (w == word) {
          d += amount;
          return;
        }
      delta.emplace_back(word, amount);
    };
    for (const Field& field : inputs_[t])
      accumulate(field.word,
                 std::uint64_t{0} - (field.count << field.shift));
    for (const Field& field : outputs_[t])
      accumulate(field.word, field.count << field.shift);
  }
}

bool FireTable::enabled(int transition, const std::uint64_t* marking) const {
  for (const Field& field : inputs_[transition])
    if (((marking[field.word] >> field.shift) & mask_) < field.count)
      return false;
  return true;
}

void FireTable::fire(int transition, const std::uint64_t* marking,
                     std::uint64_t* next) const {
  for (int w = 0; w < words_; ++w) next[w] = marking[w];
  for (const auto& [word, delta] : delta_[transition]) next[word] += delta;
}

int FireTable::max_output_tokens(int transition,
                                 const std::uint64_t* marking) const {
  std::uint64_t best = 0;
  for (const Field& field : outputs_[transition])
    best = std::max(best, (marking[field.word] >> field.shift) & mask_);
  return static_cast<int>(best);
}

int MarkingSet::find(const std::vector<int>& marking) const {
  if (table_.empty()) return -1;
  // scratch_ is not used here so const lookups stay thread-compatible.
  std::vector<std::uint64_t> words(static_cast<std::size_t>(words_), 0);
  encode(marking, words.data());
  const int slot = probe(words.data(), hash_words(words.data(), words_));
  return table_[slot];
}

}  // namespace sitime::base
