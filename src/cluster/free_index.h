// Sorted index of machines by free CPU: the one free-capacity index. The
// aggregated network keeps its N_y → t residuals here (core/network.h); the
// task scheduler and the baselines run their best- and worst-fit scans and
// candidate generation over it.
//
// The index mirrors a ClusterState it is attached to; callers must invoke
// OnChanged(m) after any deploy/evict that touches machine m, and never
// inside a scan of the same index (DCHECK builds die on it): gather
// candidates first, then mutate.
//
// Representation: short sorted blocks of (free, machine id) keys, at most
// kBlockKeys each, ascending across blocks. A re-key is a binary search over
// the block maxima plus a memmove inside two blocks, even where thousands of
// machines share one free value. Insert splits a full block in half; erase
// merges a block into a neighbour when the pair fits in one, so every
// adjacent pair holds more than kBlockKeys keys and there are at most
// 2·M/kBlockKeys + 1 blocks. Retired blocks are pooled, so re-keys never
// allocate.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/state.h"
#include "common/check.h"

namespace aladdin::cluster {

class FreeIndex {
 public:
  static constexpr std::size_t kBlockKeys = 64;

  void Attach(const ClusterState& state);

  // Re-key machine m after its free resources changed.
  void OnChanged(MachineId m);

  // The free CPU machine m is filed under (its live value after OnChanged).
  [[nodiscard]] std::int64_t IndexedFree(MachineId m) const {
    return indexed_free_[static_cast<std::size_t>(m.value())];
  }

  [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }

  // Visit machines with free CPU >= min_free_cpu in ascending free order
  // (best-fit first) until fn returns true. Returns whether fn accepted one.
  // Templated on the callable: the task scheduler runs thousands of these
  // scans per tick, and a std::function would heap-allocate its capture
  // block per scan and force an indirect call per visited machine.
  template <typename Fn>
  bool ScanAscending(std::int64_t min_free_cpu, Fn&& fn) const {
    return ScanFrom(Key{min_free_cpu, -1}, fn);
  }

  // Resume a best-fit scan strictly after the key (free_cpu, machine):
  // same ascending (free, id) order as ScanAscending, but every key <= the
  // given one is skipped. Resumable walks (the task run placer, the group
  // waterfall's snapshot, the batched parallel walk) continue where they
  // stopped without re-reading the prefix.
  template <typename Fn>
  bool ScanAscendingFrom(std::int64_t free_cpu, std::int32_t machine,
                         Fn&& fn) const {
    return ScanFrom(Key{free_cpu, machine + 1}, fn);
  }

  // Visit machines in descending free order (emptiest first).
  template <typename Fn>
  bool ScanDescending(Fn&& fn) const {
    const ScanGuard guard(*this);
    for (auto b = blocks_.rbegin(); b != blocks_.rend(); ++b) {
      for (auto it = b->rbegin(); it != b->rend(); ++it) {
        if (fn(MachineId(it->second))) return true;
      }
    }
    return false;
  }

 private:
  using Key = std::pair<std::int64_t, std::int32_t>;

  // Counts scans in flight so DCHECK builds catch a re-key under a walk.
  struct ScanGuard {
    explicit ScanGuard(const FreeIndex& index) : scans(index.scans_) {
      scans += ALADDIN_DCHECK_IS_ON();
    }
    ~ScanGuard() { scans -= ALADDIN_DCHECK_IS_ON(); }
    int& scans;
  };

  // Visit every key >= first in ascending order until fn returns true.
  template <typename Fn>
  bool ScanFrom(const Key& first, Fn& fn) const {
    const ScanGuard guard(*this);
    const std::size_t first_block = BlockOf(first);
    for (std::size_t b = first_block; b < blocks_.size(); ++b) {
      const std::vector<Key>& keys = blocks_[b];
      auto it = b == first_block
                    ? std::lower_bound(keys.begin(), keys.end(), first)
                    : keys.begin();
      for (; it != keys.end(); ++it) {
        if (fn(MachineId(it->second))) return true;
      }
    }
    return false;
  }

  // The first block whose largest key is >= key (block_count() if none).
  [[nodiscard]] std::size_t BlockOf(const Key& key) const {
    return static_cast<std::size_t>(
        std::lower_bound(maxima_.begin(), maxima_.end(), key) -
        maxima_.begin());
  }

  void Insert(const Key& key);
  void Erase(const Key& key);
  // Merges block b + 1 into block b and retires it to the pool.
  void MergeWithNext(std::size_t b);

  const ClusterState* state_ = nullptr;
  std::vector<std::vector<Key>> blocks_;  // live blocks, ascending
  std::vector<Key> maxima_;               // maxima_[b] == blocks_[b].back()
  std::vector<std::vector<Key>> spare_;   // retired blocks, capacity kept
  std::vector<std::int64_t> indexed_free_;
  mutable int scans_ = 0;
};

}  // namespace aladdin::cluster
