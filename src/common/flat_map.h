// Open-addressing hash map for hot-path lookups keyed by precomputed
// hashes. std::unordered_map costs a heap node per entry and a pointer
// chase per probe; FlatHashMap stores (hash, key, value) contiguously with
// linear probing over a power-of-two table, so the search memo touches one
// cache line in the common case.
//
// The 64-bit hash is stored alongside each entry and compared before the
// key, so expensive key equality (vector compare for cloud::Config) runs
// only on a hash match. Callers pass the hash they already hold (e.g.
// Config::Fingerprint()), computed once for a lookup and its insert.
//
// Insert-only: entries are never erased. Not thread-safe.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace kairos {

template <typename K, typename V>
class FlatHashMap {
 public:
  /// Pointer to the mapped value, or nullptr. O(1) expected.
  V* FindHashed(std::uint64_t hash, const K& key) {
    if (size_ == 0) return nullptr;
    const std::size_t mask = full_.size() - 1;
    for (std::size_t i = hash & mask; full_[i]; i = (i + 1) & mask) {
      if (slots_[i].hash == hash && slots_[i].key == key) {
        return &slots_[i].value;
      }
    }
    return nullptr;
  }

  /// Inserts key -> value if absent; returns {&value, inserted}. The
  /// existing value is untouched on a hit (unordered_map::emplace rules).
  std::pair<V*, bool> InsertHashed(std::uint64_t hash, const K& key,
                                   V value) {
    // Keep load under 3/4 so probes stay short.
    if ((size_ + 1) * 4 > full_.size() * 3) {
      Rehash(full_.empty() ? 16 : full_.size() * 2);
    }
    const std::size_t mask = full_.size() - 1;
    std::size_t i = hash & mask;
    for (; full_[i]; i = (i + 1) & mask) {
      if (slots_[i].hash == hash && slots_[i].key == key) {
        return {&slots_[i].value, false};
      }
    }
    full_[i] = true;
    slots_[i] = Slot{hash, key, std::move(value)};
    ++size_;
    return {&slots_[i].value, true};
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    K key{};
    V value{};
  };

  void Rehash(std::size_t new_cap) {
    assert((new_cap & (new_cap - 1)) == 0 && "capacity must be 2^k");
    std::vector<std::uint8_t> old_full = std::move(full_);
    std::vector<Slot> old_slots = std::move(slots_);
    full_.assign(new_cap, false);
    slots_.assign(new_cap, Slot{});
    const std::size_t mask = new_cap - 1;
    for (std::size_t j = 0; j < old_full.size(); ++j) {
      if (!old_full[j]) continue;
      std::size_t i = old_slots[j].hash & mask;
      while (full_[i]) i = (i + 1) & mask;
      full_[i] = true;
      slots_[i] = std::move(old_slots[j]);
    }
  }

  std::vector<std::uint8_t> full_;  ///< slot occupied?
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace kairos
