// Epoch-stamped dirty-slot accumulator for the coalesced notification
// pipeline.
//
// Between two phase barriers the regime index no longer re-derives and
// refiles a server per notification; it just records "slot i changed".
// That record has to be duplicate-free (a VM demand sweep notifies the same
// server many times per phase) and O(1) per mark, so the set is a dense
// per-slot stamp array plus an append-only list of first-touched slots:
// marking compares one stamp word, and clearing the whole set is a single
// epoch bump -- no per-slot clearing, no bitmap sweep proportional to the
// universe.  The stamp array is rewritten only when the 32-bit epoch wraps
// (once per ~4 billion flushes).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.h"

namespace eclb::cluster::index {

/// Duplicate-free accumulator of dirty slot indices over a fixed universe.
class DirtySet {
 public:
  /// Resets to an empty set over slots [0, universe).
  void resize(std::size_t universe) {
    stamp_.assign(universe, 0);
    list_.clear();
    epoch_ = 1;
  }

  /// Records `slot` as dirty; duplicate marks within one epoch are free.
  void mark(std::uint32_t slot) {
    ECLB_ASSERT(slot < stamp_.size(), "DirtySet: slot out of range");
    if (stamp_[slot] == epoch_) return;
    stamp_[slot] = epoch_;
    list_.push_back(slot);
  }

  [[nodiscard]] bool empty() const { return list_.empty(); }
  [[nodiscard]] std::size_t size() const { return list_.size(); }
  [[nodiscard]] std::size_t universe() const { return stamp_.size(); }

  /// The marked slots in first-touch order.
  [[nodiscard]] std::span<const std::uint32_t> slots() const { return list_; }
  /// Mutable view so the flush can sort the slots in place (ascending slot
  /// order is what makes the grouped refile runs deterministic).
  [[nodiscard]] std::span<std::uint32_t> mutable_slots() { return list_; }

  /// Forgets every mark: one epoch bump, O(1).  On the uint32 wraparound
  /// the stamp array is reset so a stale stamp from ~4 billion flushes ago
  /// can never alias the new epoch.
  void clear() {
    list_.clear();
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  /// Heap bytes held (memory accounting).
  [[nodiscard]] std::size_t memory_bytes() const {
    return stamp_.capacity() * sizeof(std::uint32_t) +
           list_.capacity() * sizeof(std::uint32_t);
  }

  /// Test hook: jumps the epoch counter (stamps untouched) so the wraparound
  /// path is exercisable without 2^32 clears.
  void set_epoch_for_test(std::uint32_t epoch) { epoch_ = epoch; }

 private:
  std::vector<std::uint32_t> stamp_;  ///< Epoch at which each slot was marked.
  std::vector<std::uint32_t> list_;   ///< First-touch order of this epoch's slots.
  std::uint32_t epoch_{1};
};

}  // namespace eclb::cluster::index
