// A vector of trivially copyable elements that keeps up to N of them
// inside the object and moves to the heap only past that. Instruction
// fields and per-value placement lists almost always fit, so building,
// copying and destroying one costs no allocation.
//
// It converts implicitly from std::vector (so call sites may pass one)
// but never to it: a `const std::vector<T>&` bound to an InlineVector
// would silently build a temporary copy. Comparison with a std::vector
// is provided instead.
//
// With _GLIBCXX_ASSERTIONS defined (as the sanitizer build does for the
// standard containers), operator[], front, back and pop_back abort on an
// index past size(), which ASan cannot see while it stays inside the
// inline buffer or the heap block.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace sherlock {

template <typename T, size_t N>
class InlineVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "InlineVector copies its elements bytewise");
  static_assert(N > 0, "InlineVector needs room for one element inline");

 public:
  using value_type = T;
  using size_type = size_t;
  using difference_type = std::ptrdiff_t;
  using reference = T&;
  using const_reference = const T&;
  using iterator = T*;
  using const_iterator = const T*;

  InlineVector() = default;
  InlineVector(std::initializer_list<T> values) {
    copyFrom(values.begin(), values.size());
  }
  InlineVector(const std::vector<T>& values) {
    reserve(values.size());
    for (const T& v : values) data_[size_++] = v;
  }

  InlineVector(const InlineVector& other) {
    copyFrom(other.data_, other.size_);
  }
  InlineVector(InlineVector&& other) noexcept { take(other); }

  InlineVector& operator=(const InlineVector& other) {
    if (this != &other) copyFrom(other.data_, other.size_);
    return *this;
  }
  InlineVector& operator=(InlineVector&& other) noexcept {
    if (this != &other) {
      freeHeap();
      take(other);
    }
    return *this;
  }
  InlineVector& operator=(std::initializer_list<T> values) {
    copyFrom(values.begin(), values.size());
    return *this;
  }

  ~InlineVector() { freeHeap(); }

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }
  /// True while the elements live in the object itself.
  bool isInline() const { return data_ == inline_; }

  T* data() { return data_; }
  const T* data() const { return data_; }
  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }

  T& operator[](size_t i) {
    checkIndex(i);
    return data_[i];
  }
  const T& operator[](size_t i) const {
    checkIndex(i);
    return data_[i];
  }
  T& front() {
    checkIndex(0);
    return data_[0];
  }
  const T& front() const {
    checkIndex(0);
    return data_[0];
  }
  T& back() {
    checkIndex(size_ - 1);
    return data_[size_ - 1];
  }
  const T& back() const {
    checkIndex(size_ - 1);
    return data_[size_ - 1];
  }

  /// `value` is taken by copy, so pushing an element of this list is safe.
  void push_back(T value) {
    if (size_ == capacity_) grow(2 * static_cast<size_t>(capacity_));
    data_[size_++] = value;
  }
  void pop_back() {
    checkIndex(size_ - 1);
    --size_;
  }
  void clear() { size_ = 0; }

  void reserve(size_t n) {
    if (n > capacity_) grow(n);
  }

  /// Replaces the contents with `n` copies of `value`.
  void assign(size_t n, T value) {
    if (n > capacity_) {
      size_ = 0;
      grow(n);
    }
    std::fill_n(data_, n, value);
    size_ = static_cast<uint32_t>(n);
  }

  /// Inserts `value` before `pos`; returns an iterator to it.
  iterator insert(const_iterator pos, T value) {
    size_t at = static_cast<size_t>(pos - data_);
    if (size_ == capacity_) grow(2 * static_cast<size_t>(capacity_));
    std::copy_backward(data_ + at, data_ + size_, data_ + size_ + 1);
    data_[at] = value;
    ++size_;
    return data_ + at;
  }

  /// Removes the element at `pos`; returns an iterator to its successor.
  iterator erase(const_iterator pos) {
    size_t at = static_cast<size_t>(pos - data_);
    std::copy(data_ + at + 1, data_ + size_, data_ + at);
    --size_;
    return data_ + at;
  }

  friend bool operator==(const InlineVector& a, const InlineVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const InlineVector& a, const std::vector<T>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  void checkIndex([[maybe_unused]] size_t i) const {
#ifdef _GLIBCXX_ASSERTIONS
    if (i >= size_) {
      std::fprintf(stderr, "InlineVector: index %zu out of range (size %u)\n",
                   i, static_cast<unsigned>(size_));
      std::abort();
    }
#endif
  }

  /// Moves the elements to a new heap block of `n` > capacity_ slots.
  void grow(size_t n) {
    if (n > std::numeric_limits<uint32_t>::max())
      throw std::length_error("InlineVector: too many elements");
    T* block = std::allocator<T>().allocate(n);
    std::copy_n(data_, size_, block);
    freeHeap();
    data_ = block;
    capacity_ = static_cast<uint32_t>(n);
  }

  void freeHeap() {
    if (!isInline()) std::allocator<T>().deallocate(data_, capacity_);
    data_ = inline_;
    capacity_ = N;
  }

  /// Replaces the contents with a copy of [src, src + n); `src` must not
  /// point into this list.
  void copyFrom(const T* src, size_t n) {
    if (n > capacity_) {
      size_ = 0;
      grow(n);
    }
    std::copy_n(src, n, data_);
    size_ = static_cast<uint32_t>(n);
  }

  /// Takes `other`'s elements (its heap block, if any) and leaves it
  /// empty and inline. This list must hold no heap block.
  void take(InlineVector& other) {
    if (other.isInline()) {
      std::copy_n(other.inline_, other.size_, inline_);
    } else {
      data_ = other.data_;
      capacity_ = other.capacity_;
      other.data_ = other.inline_;
      other.capacity_ = N;
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  T* data_ = inline_;
  uint32_t size_ = 0;
  uint32_t capacity_ = N;
  T inline_[N];
};

}  // namespace sherlock
