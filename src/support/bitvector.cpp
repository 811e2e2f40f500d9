#include "support/bitvector.h"

#include <bit>

namespace sherlock {

size_t BitVector::popcount() const {
  size_t n = 0;
  for (uint64_t w : words_) n += static_cast<size_t>(std::popcount(w));
  return n;
}

bool BitVector::any() const {
  for (uint64_t w : words_)
    if (w != 0) return true;
  return false;
}

bool BitVector::all() const { return popcount() == size_; }

BitVector BitVector::operator~() const {
  BitVector r(*this);
  for (auto& w : r.words_) w = ~w;
  r.clearPadding();
  return r;
}

BitVector BitVector::slice(size_t begin, size_t count) const {
  SHERLOCK_ASSERT(begin + count <= size_, "slice [", begin, ", ",
                  begin + count, ") exceeds size ", size_);
  BitVector r(count);
  for (size_t i = 0; i < count; ++i) r.set(i, get(begin + i));
  return r;
}

std::string BitVector::toString() const {
  std::string s;
  s.reserve(size_);
  for (size_t i = size_; i-- > 0;) s.push_back(get(i) ? '1' : '0');
  return s;
}

BitVector BitVector::fromString(const std::string& text) {
  BitVector r(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[text.size() - 1 - i];
    checkArg(c == '0' || c == '1',
             "invalid bit character '", c, "' in bit string");
    r.set(i, c == '1');
  }
  return r;
}

BitVector BitVector::fromUint64(uint64_t value, size_t size) {
  BitVector r(size);
  for (size_t i = 0; i < size && i < 64; ++i) r.set(i, (value >> i) & 1);
  return r;
}

BitVector BitVector::fromWords(const uint64_t* words, size_t size) {
  BitVector r(size);
  for (size_t i = 0; i < r.words_.size(); ++i) r.words_[i] = words[i];
  r.clearPadding();
  return r;
}

uint64_t BitVector::toUint64() const {
  return words_.empty() ? 0
                        : (size_ >= 64 ? words_[0]
                                       : words_[0] & ((uint64_t{1} << size_) - 1));
}

}  // namespace sherlock
