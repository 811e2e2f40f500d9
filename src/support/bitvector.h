// A dynamically sized bit vector used to hold bulk operands (bit-sliced
// data) in workloads, the reference evaluator, and the functional simulator.
#pragma once

#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

#include "support/diagnostics.h"

namespace sherlock {

/// Fixed-length vector of bits with bitwise algebra. Bit index 0 is the
/// least significant bit of the first word.
class BitVector {
 public:
  BitVector() = default;

  /// Creates a vector of `size` bits, all cleared.
  explicit BitVector(size_t size) : size_(size), words_((size + 63) / 64, 0) {}

  /// Creates a vector of `size` bits with every bit set to `value`.
  BitVector(size_t size, bool value) : BitVector(size) {
    if (value) {
      for (auto& w : words_) w = ~uint64_t{0};
      clearPadding();
    }
  }

  /// Number of bits.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool get(size_t i) const {
    SHERLOCK_ASSERT(i < size_, "bit index ", i, " out of range ", size_);
    return (words_[i / 64] >> (i % 64)) & 1;
  }

  void set(size_t i, bool value) {
    SHERLOCK_ASSERT(i < size_, "bit index ", i, " out of range ", size_);
    uint64_t mask = uint64_t{1} << (i % 64);
    if (value)
      words_[i / 64] |= mask;
    else
      words_[i / 64] &= ~mask;
  }

  /// Number of set bits.
  size_t popcount() const;

  /// True if any bit is set.
  bool any() const;

  /// True if all bits are set.
  bool all() const;

  BitVector operator&(const BitVector& o) const { return apply(o, And{}); }
  BitVector operator|(const BitVector& o) const { return apply(o, Or{}); }
  BitVector operator^(const BitVector& o) const { return apply(o, Xor{}); }
  BitVector operator~() const;

  BitVector& operator&=(const BitVector& o) { return applyInPlace(o, And{}); }
  BitVector& operator|=(const BitVector& o) { return applyInPlace(o, Or{}); }
  BitVector& operator^=(const BitVector& o) { return applyInPlace(o, Xor{}); }

  bool operator==(const BitVector& o) const {
    return size_ == o.size_ && words_ == o.words_;
  }
  bool operator!=(const BitVector& o) const { return !(*this == o); }

  /// Returns bits [begin, begin+count) as a new vector.
  BitVector slice(size_t begin, size_t count) const;

  /// Renders as a string of '0'/'1', most significant (highest index) first.
  std::string toString() const;

  /// Parses a string of '0'/'1' characters, most significant first.
  static BitVector fromString(const std::string& text);

  /// Builds a vector from the low `size` bits of `value`.
  static BitVector fromUint64(uint64_t value, size_t size);

  /// Interprets the low min(size, 64) bits as an unsigned integer.
  uint64_t toUint64() const;

  // --- Packed word access (multi-word lane interop) ----------------------
  /// The i-th 64-bit storage word (bits [64i, 64i+64), padding zeroed).
  uint64_t word(size_t i) const {
    SHERLOCK_ASSERT(i < words_.size(), "word index ", i, " out of range ",
                    words_.size());
    return words_[i];
  }

  /// Builds a vector of `size` bits from packed words (low word first);
  /// `words` must hold at least ceil(size / 64) entries. Bits beyond
  /// `size` in the last word are discarded.
  static BitVector fromWords(const uint64_t* words, size_t size);

 private:
  struct And {
    uint64_t operator()(uint64_t a, uint64_t b) const { return a & b; }
  };
  struct Or {
    uint64_t operator()(uint64_t a, uint64_t b) const { return a | b; }
  };
  struct Xor {
    uint64_t operator()(uint64_t a, uint64_t b) const { return a ^ b; }
  };

  template <typename F>
  BitVector apply(const BitVector& o, F f) const {
    BitVector r(*this);
    r.applyInPlace(o, f);
    return r;
  }

  template <typename F>
  BitVector& applyInPlace(const BitVector& o, F f) {
    SHERLOCK_ASSERT(size_ == o.size_, "size mismatch: ", size_, " vs ",
                    o.size_);
    for (size_t i = 0; i < words_.size(); ++i)
      words_[i] = f(words_[i], o.words_[i]);
    return *this;
  }

  // Clears bits beyond size_ in the last word so equality and popcount are
  // well defined.
  void clearPadding() {
    if (size_ % 64 != 0 && !words_.empty())
      words_.back() &= (uint64_t{1} << (size_ % 64)) - 1;
  }

  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace sherlock
