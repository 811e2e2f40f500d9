// An open-addressing index for hash-consing tables that keep their keys
// elsewhere. It maps a 32-bit hash to non-negative 32-bit ids; the caller
// passes each key's hash and an equality test on a candidate id, so the
// index stores only 8 bytes per entry and never sees a key. Slots are a
// power-of-two vector probed linearly and kept at most half full: the
// table doubles when an insertion passes that, unless reserve() sized it
// for its entries up front.
//
// ir::Graph indexes its op nodes here, and the verifier its value-numbered
// expressions.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sherlock {

class HashIndex {
 public:
  /// The id find() returns when no entry matches.
  static constexpr int32_t kNone = -1;

  /// Number of entries.
  size_t size() const { return size_; }

  /// Makes room for `n` entries, so the next `n - size()` insertions do
  /// not rehash.
  void reserve(size_t n) {
    if (2 * n > slots_.size())
      rehash(std::bit_ceil(std::max(kMinSlots, 2 * n)));
  }

  /// The id of an entry under `hash` for which `equal(id)` holds, or kNone.
  template <typename Equal>
  int32_t find(uint32_t hash, Equal&& equal) const {
    return slots_.empty() ? kNone : slots_[probe(hash, equal)].id;
  }

  /// The id find() would return; when there is none, calls `make()` for a
  /// new id (>= 0; `make` must not use this index), files it under `hash`
  /// and returns it.
  template <typename Equal, typename Make>
  int32_t findOrInsert(uint32_t hash, Equal&& equal, Make&& make) {
    if (slots_.empty()) rehash(kMinSlots);
    Slot& slot = slots_[probe(hash, equal)];
    if (slot.id != kNone) return slot.id;
    const int32_t id = make();
    slot = {hash, id};
    if (2 * ++size_ > slots_.size()) rehash(2 * slots_.size());
    return id;
  }

 private:
  struct Slot {
    uint32_t hash = 0;
    int32_t id = kNone;
  };

  static constexpr size_t kMinSlots = 16;

  /// The slot of the first entry under `hash` that `equal` accepts, or the
  /// empty slot that ends the probe. The table is never full, so one
  /// exists.
  template <typename Equal>
  size_t probe(uint32_t hash, Equal& equal) const {
    const size_t mask = slots_.size() - 1;
    size_t at = hash & mask;
    while (slots_[at].id != kNone &&
           !(slots_[at].hash == hash && equal(slots_[at].id)))
      at = (at + 1) & mask;
    return at;
  }

  /// Refiles every entry into `slots` (a power of two) empty slots.
  void rehash(size_t slots) {
    std::vector<Slot> old(slots);
    old.swap(slots_);
    size_ = 0;
    auto noMatch = [](int32_t) { return false; };
    for (const Slot& s : old) {
      if (s.id == kNone) continue;
      slots_[probe(s.hash, noMatch)] = s;
      ++size_;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace sherlock
