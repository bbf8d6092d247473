#include "cluster/free_index.h"

namespace aladdin::cluster {

void FreeIndex::Attach(const ClusterState& state) {
  state_ = &state;
  const auto& machines = state.topology().machines();
  // Every block returns to the pool, which is topped up to the most blocks
  // this machine count can need: the 2·M/kBlockKeys + 1 bound, plus the one
  // a split holds before its merge.
  for (std::vector<Key>& block : blocks_) {
    block.clear();
    spare_.push_back(std::move(block));
  }
  blocks_.clear();
  maxima_.clear();
  const std::size_t max_blocks = 2 * machines.size() / kBlockKeys + 2;
  // analyze:allow(A103) Attach is the rebuild arm; steady ticks take OnChanged
  blocks_.reserve(max_blocks);
  maxima_.reserve(max_blocks);  // analyze:allow(A103) rebuild arm, as above
  // analyze:allow(A103) rebuild arm, as above
  spare_.reserve(std::max(spare_.size(), max_blocks));
  while (spare_.size() < max_blocks) {
    spare_.emplace_back();
    spare_.back().reserve(kBlockKeys);  // analyze:allow(A103) rebuild arm, as above
  }
  indexed_free_.resize(machines.size());  // analyze:allow(A103) rebuild arm, as above
  if (machines.empty()) return;
  blocks_.push_back(std::move(spare_.back()));
  spare_.pop_back();
  maxima_.push_back({});
  for (const Machine& m : machines) {
    const std::int64_t free = state.Free(m.id).cpu_millis();
    indexed_free_[static_cast<std::size_t>(m.id.value())] = free;
    Insert({free, m.id.value()});
  }
}

void FreeIndex::OnChanged(MachineId m) {
  ALADDIN_CHECK(state_ != nullptr);
  ALADDIN_DCHECK(scans_ == 0)
      << "FreeIndex::OnChanged(" << m << ") inside a scan of the same index";
  const auto mi = static_cast<std::size_t>(m.value());
  const std::int64_t old_free = indexed_free_[mi];
  const std::int64_t now = state_->Free(m).cpu_millis();
  if (now == old_free) return;
  Erase({old_free, m.value()});
  Insert({now, m.value()});
  indexed_free_[mi] = now;
}

void FreeIndex::Insert(const Key& key) {
  // Past every block's maximum: append to the last block.
  const std::size_t b = std::min(BlockOf(key), blocks_.size() - 1);
  if (blocks_[b].size() < kBlockKeys) {
    // Growing a block keeps every pair above kBlockKeys.
    std::vector<Key>& keys = blocks_[b];
    keys.insert(std::upper_bound(keys.begin(), keys.end(), key), key);
    maxima_[b] = keys.back();
    return;
  }
  // Split in half; the upper half comes out of the pool.
  ALADDIN_CHECK(!spare_.empty()) << "FreeIndex block pool exhausted";
  blocks_.insert(blocks_.begin() + static_cast<std::ptrdiff_t>(b) + 1,
                 std::move(spare_.back()));
  spare_.pop_back();
  std::vector<Key>& lower = blocks_[b];
  std::vector<Key>& upper = blocks_[b + 1];
  const auto mid = lower.begin() + static_cast<std::ptrdiff_t>(kBlockKeys / 2);
  upper.insert(upper.end(), mid, lower.end());
  lower.erase(mid, lower.end());
  std::vector<Key>& half = key < upper.front() ? lower : upper;
  half.insert(std::upper_bound(half.begin(), half.end(), key), key);
  maxima_.insert(maxima_.begin() + static_cast<std::ptrdiff_t>(b),
                 lower.back());
  maxima_[b + 1] = upper.back();
  // The halves together hold kBlockKeys + 1 keys, but each may now fit with
  // its outer neighbour. Right side first, so index b stays put.
  if (b + 2 < blocks_.size() &&
      blocks_[b + 1].size() + blocks_[b + 2].size() <= kBlockKeys) {
    MergeWithNext(b + 1);
  }
  if (b > 0 && blocks_[b - 1].size() + blocks_[b].size() <= kBlockKeys) {
    MergeWithNext(b - 1);
  }
}

void FreeIndex::Erase(const Key& key) {
  const std::size_t b = BlockOf(key);
  ALADDIN_DCHECK(b < blocks_.size());
  std::vector<Key>& keys = blocks_[b];
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  ALADDIN_DCHECK(it != keys.end() && *it == key);
  keys.erase(it);
  if (!keys.empty()) maxima_[b] = keys.back();
  // One merge restores the pair invariant: the merged block outweighs the
  // block it replaced on either side.
  if (b > 0 && blocks_[b - 1].size() + keys.size() <= kBlockKeys) {
    MergeWithNext(b - 1);
  } else if (b + 1 < blocks_.size() &&
             keys.size() + blocks_[b + 1].size() <= kBlockKeys) {
    MergeWithNext(b);
  }
}

void FreeIndex::MergeWithNext(std::size_t b) {
  std::vector<Key>& into = blocks_[b];
  std::vector<Key>& from = blocks_[b + 1];
  into.insert(into.end(), from.begin(), from.end());
  from.clear();
  spare_.push_back(std::move(from));
  blocks_.erase(blocks_.begin() + static_cast<std::ptrdiff_t>(b) + 1);
  maxima_.erase(maxima_.begin() + static_cast<std::ptrdiff_t>(b) + 1);
  maxima_[b] = into.back();
}

}  // namespace aladdin::cluster
