#include "store/seen_set.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace seesaw::store {

void SeenSet::Resize(size_t capacity) {
  words_.resize((capacity + 63) / 64, 0);
  capacity_ = capacity;
  // Drop bits past the new capacity so count_ stays consistent.
  if (capacity % 64 != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << (capacity % 64)) - 1;
  }
  size_t c = 0;
  for (uint64_t w : words_) c += static_cast<size_t>(std::popcount(w));
  count_ = c;
}

void SeenSet::Set(uint32_t id) {
  SEESAW_CHECK_LT(id, capacity_);
  uint64_t& w = words_[id >> 6];
  uint64_t bit = uint64_t{1} << (id & 63);
  if ((w & bit) == 0) {
    w |= bit;
    ++count_;
  }
}

void SeenSet::Reset(uint32_t id) {
  SEESAW_CHECK_LT(id, capacity_);
  uint64_t& w = words_[id >> 6];
  uint64_t bit = uint64_t{1} << (id & 63);
  if ((w & bit) != 0) {
    w &= ~bit;
    --count_;
  }
}

SeenSet SeenSet::Slice(uint32_t begin, uint32_t end) const {
  SEESAW_CHECK_LE(begin, end);
  SeenSet out(end - begin);
  if (out.capacity_ == 0 || begin >= capacity_) return out;

  // Bits [begin, limit) exist in this set; everything past limit is unseen
  // and stays zero in the fresh slice.
  const size_t limit = std::min<size_t>(end, capacity_);
  const size_t nbits = limit - begin;
  const size_t first_word = begin >> 6;
  const size_t shift = begin & 63;
  const size_t out_words = (nbits + 63) / 64;
  for (size_t w = 0; w < out_words; ++w) {
    uint64_t bits = words_[first_word + w] >> shift;
    if (shift != 0 && first_word + w + 1 < words_.size()) {
      bits |= words_[first_word + w + 1] << (64 - shift);
    }
    out.words_[w] = bits;
  }
  // Mask stray bits past nbits: they belong to ids outside [begin, limit)
  // and would corrupt count()/operator== otherwise.
  if (size_t tail = nbits & 63; tail != 0) {
    out.words_[out_words - 1] &= (uint64_t{1} << tail) - 1;
  }
  size_t c = 0;
  for (uint64_t w : out.words_) c += static_cast<size_t>(std::popcount(w));
  out.count_ = c;
  return out;
}

void SeenSet::Clear() {
  std::fill(words_.begin(), words_.end(), 0);
  count_ = 0;
}

SeenSet SeenSet::FromWords(size_t capacity, std::vector<uint64_t> words) {
  SEESAW_CHECK_EQ(words.size(), (capacity + 63) / 64);
  SeenSet out;
  out.words_ = std::move(words);
  out.capacity_ = capacity;
  // Clear bits past capacity (a decoded payload is untrusted) so Test(),
  // count() and operator== keep their invariants.
  if (capacity % 64 != 0 && !out.words_.empty()) {
    out.words_.back() &= (uint64_t{1} << (capacity % 64)) - 1;
  }
  size_t c = 0;
  for (uint64_t w : out.words_) c += static_cast<size_t>(std::popcount(w));
  out.count_ = c;
  return out;
}

const SeenSet& EmptySeenSet() {
  static const SeenSet empty;
  return empty;
}

}  // namespace seesaw::store
