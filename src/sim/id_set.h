// The kernel's set of pending event ids: an id is in it from
// schedule_at until its event fires or is cancelled, so the kernel
// consults it on every schedule, cancel, and pop.  EventIds are handed
// out sequentially, so the set is a bitmap over a sliding id window
// (IdWindow) rather than a hash set.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace grid3::sim {

/// Windowed bitmap over monotonically-allocated ids.
///
/// EventIds are handed out sequentially, so the pending ids always sit
/// in a window [base, next_id).  One bit per id in that window beats a hash
/// set on every axis the kernel cares about: insert lands in the same
/// cache line as the previous insert (ids are consecutive), erase and
/// contains touch a bitmap that is ~8 KB per 64k-event window (L1-sized
/// where the equivalent hash table is megabytes), and nothing is ever
/// rehashed.  The window's leading all-zero words are trimmed whenever
/// the bitmap grows, so memory tracks the id-span of the pending
/// events, not the total ever scheduled.
///
///   insert / erase / contains   O(1), amortized over window compaction
///   size                        O(1)
class IdWindow {
 public:
  /// Add `id`; false if already present.  Ids must be >= the window base
  /// (always true for ids that only grow).
  bool insert(std::uint64_t id) {
    assert(id >= base_);
    std::uint64_t idx = id - base_;
    std::size_t word = static_cast<std::size_t>(idx >> 6);
    if (word >= words_.size()) {
      grow(word);
      idx = id - base_;  // grow() may have slid the window forward
      word = static_cast<std::size_t>(idx >> 6);
    }
    const std::uint64_t bit = 1ULL << (idx & 63);
    if (words_[word] & bit) return false;
    words_[word] |= bit;
    ++size_;
    return true;
  }

  /// Remove `id`; false if absent.
  bool erase(std::uint64_t id) {
    if (id < base_) return false;
    const std::uint64_t idx = id - base_;
    const std::size_t word = static_cast<std::size_t>(idx >> 6);
    if (word >= words_.size()) return false;
    const std::uint64_t bit = 1ULL << (idx & 63);
    if (!(words_[word] & bit)) return false;
    words_[word] &= ~bit;
    --size_;
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t id) const {
    if (id < base_) return false;
    const std::uint64_t idx = id - base_;
    const std::size_t word = static_cast<std::size_t>(idx >> 6);
    if (word >= words_.size()) return false;
    return (words_[word] >> (idx & 63)) & 1;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  /// Extend the bitmap to cover `word`, first sliding the window past
  /// leading all-zero words when at least half the bitmap is dead --
  /// discarding >= as many words as get moved keeps this O(1) amortized.
  void grow(std::size_t word) {
    std::size_t lead = 0;
    while (lead < words_.size() && words_[lead] == 0) ++lead;
    if (lead > 0 && lead * 2 >= words_.size()) {
      words_.erase(words_.begin(),
                   words_.begin() + static_cast<std::ptrdiff_t>(lead));
      base_ += static_cast<std::uint64_t>(lead) * 64;
      word -= lead;
    }
    words_.resize(std::max(word + 1, words_.size() + words_.size() / 2));
  }

  std::vector<std::uint64_t> words_;
  std::uint64_t base_ = 0;  ///< id of bit 0 of words_[0]
  std::size_t size_ = 0;
};

}  // namespace grid3::sim
