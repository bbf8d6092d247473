#include "core/network.h"

#include <algorithm>
#include <span>
#include <vector>

#include "common/analysis.h"
#include "common/check.h"
#include "obs/trace.h"

namespace aladdin::core {

namespace {
template <typename T>
std::size_t Idx(T id) {
  return static_cast<std::size_t>(id.value());
}
}  // namespace

IlMemo::~IlMemo() {
  ALADDIN_METRIC_GAUGE_ADD("core/il_memo_arrays",
                           -static_cast<std::int64_t>(pool_.size()));
}

void IlMemo::Track(std::size_t apps) {
  // analyze:allow(A103) grows with the app table, once per new app
  if (by_app_.size() < apps) by_app_.resize(apps, nullptr);
}

void IlMemo::Record(std::size_t app, std::size_t machine,
                    std::uint32_t epoch) {
  std::uint32_t*& memo = by_app_[app];
  if (memo == nullptr) {
    if (free_.empty()) {
      pool_.emplace_back(machines_, 0);
      free_.push_back(pool_.back().data());
      ALADDIN_METRIC_GAUGE_ADD("core/il_memo_arrays", 1);
    }
    memo = free_.back();
    free_.pop_back();
    holders_.push_back(static_cast<std::uint32_t>(app));
  }
  memo[machine] = epoch + 1;
}

void IlMemo::Reset() {
  for (std::uint32_t app : holders_) {
    std::uint32_t*& memo = by_app_[app];
    std::fill_n(memo, machines_, 0U);
    free_.push_back(memo);
    memo = nullptr;
  }
  holders_.clear();
}

AggregatedNetwork::AggregatedNetwork(const cluster::Topology& topology)
    : topology_(&topology), il_memo_(topology.machine_count()) {}

void AggregatedNetwork::Attach(cluster::ClusterState* state) {
  ALADDIN_PHASE_SCOPE("core/net_build");
  ALADDIN_METRIC_ADD("core/net_builds", 1);
  ALADDIN_CHECK(state != nullptr);
  ALADDIN_CHECK(&state->topology() == topology_);
  state_ = state;
  // Mutations applied to the state behind our back land in its dirty log;
  // Sync() replays them from this cursor.
  state_->EnableDirtyLog();
  dirty_cursor_ = state_->DirtyLogEnd();

  const std::size_t machines = topology_->machine_count();
  index_.Attach(*state_);
  // analyze:allow(A103) Attach is the full (re)build; per-tick Sync() replays the dirty log
  epoch_.assign(machines, 0);
  rack_max_.assign(topology_->rack_count(), 0);  // analyze:allow(A103) rebuild arm, as above
  subcluster_max_.assign(topology_->subcluster_count(), 0);  // analyze:allow(A103) rebuild arm, as above
  il_memo_.Reset();
  il_memo_.Track(state->applications().size());
  for (const auto& machine : topology_->machines()) {
    std::int64_t& rmax = rack_max_[Idx(machine.rack)];
    rmax = std::max(rmax, IndexedFree(machine.id));
  }
  for (std::size_t r = 0; r < rack_max_.size(); ++r) {
    std::int64_t& gmax = subcluster_max_[Idx(topology_->RackSubCluster(
        cluster::RackId(static_cast<std::int32_t>(r))))];
    gmax = std::max(gmax, rack_max_[r]);
  }
}

void AggregatedNetwork::Sync() {
  ALADDIN_CHECK(state_ != nullptr) << "Sync() before Attach()";
  // Applications are append-only while a workload is live; grow the IL
  // table so new apps index safely. A memo held across the replay stays
  // valid: a memoised (app, machine) failure is keyed to the machine's
  // change epoch, and any machine mutated since the memo was recorded gets
  // its epoch bumped by the replay below.
  il_memo_.Track(state_->applications().size());
  bool overflowed = false;
  const std::span<const cluster::MachineId> dirty =
      state_->DirtySince(dirty_cursor_, &overflowed);
  if (overflowed) {
    Attach(state_);  // cursor fell off the retained window; full rebuild
    return;
  }
  if (dirty.empty()) {
    // Noop fast path: nothing changed behind our back since the last
    // replay, so the aggregates are already coherent — skip the phase
    // scope and the replay loop entirely. Witnessed by the counter so the
    // batch path's "one Sync per micro-batch" claim is testable.
    ALADDIN_METRIC_ADD("core/net_sync_noop", 1);
    return;
  }
  // Scoped below the overflow branch so the exclusive net_build phase the
  // rebuild records never nests inside net_sync (exclusive phases must stay
  // disjoint for the tick-coverage sum).
  ALADDIN_PHASE_SCOPE("core/net_sync");
  ALADDIN_METRIC_ADD("core/net_syncs", 1);
  ALADDIN_METRIC_ADD("core/net_sync_dirty", dirty.size());
  for (cluster::MachineId m : dirty) Reindex(m);
  dirty_cursor_ = state_->DirtyLogEnd();
}

std::int64_t AggregatedNetwork::FreeCpu(cluster::MachineId m) const {
  return state_->Free(m).cpu_millis();
}

void AggregatedNetwork::Reindex(cluster::MachineId m) {
  // The epoch bump happens even when the free CPU is unchanged (a machine
  // can mutate without its residual moving — e.g. equal-sized evict+deploy
  // between Syncs), so memoised IL failures never outlive a real change.
  ++epoch_[Idx(m)];
  ReindexKeys(m);
}

void AggregatedNetwork::ReindexKeys(cluster::MachineId m) {
  const std::int64_t old_free = IndexedFree(m);
  const std::int64_t new_free = FreeCpu(m);
  if (old_free == new_free) return;
  index_.OnChanged(m);

  // A maximum only needs its members re-read when its holder shrank.
  const cluster::RackId rack = topology_->machine(m).rack;
  std::int64_t& rmax = rack_max_[Idx(rack)];
  const std::int64_t old_rmax = rmax;
  if (new_free > rmax) {
    rmax = new_free;
  } else if (old_free == rmax) {
    rmax = 0;
    for (cluster::MachineId peer : topology_->RackMachines(rack)) {
      rmax = std::max(rmax, IndexedFree(peer));
    }
  }
  if (rmax == old_rmax) return;
  const cluster::SubClusterId g = topology_->RackSubCluster(rack);
  std::int64_t& gmax = subcluster_max_[Idx(g)];
  if (rmax > gmax) {
    gmax = rmax;
  } else if (old_rmax == gmax) {
    gmax = 0;
    for (cluster::RackId peer : topology_->SubClusterRacks(g)) {
      gmax = std::max(gmax, rack_max_[Idx(peer)]);
    }
  }
}

// The mutation wrappers reindex eagerly, then advance the dirty cursor past
// their own journal entries — but only when no unconsumed external entries
// precede them (replaying an already-reindexed machine in Sync() is merely
// a redundant epoch bump, never a correctness problem).

void AggregatedNetwork::Deploy(cluster::ContainerId c, cluster::MachineId m) {
  const std::uint64_t before = state_->DirtyLogEnd();
  state_->Deploy(c, m);
  Reindex(m);
  if (dirty_cursor_ == before) dirty_cursor_ = state_->DirtyLogEnd();
}

void AggregatedNetwork::Evict(cluster::ContainerId c) {
  const cluster::MachineId m = state_->PlacementOf(c);
  const std::uint64_t before = state_->DirtyLogEnd();
  state_->Evict(c);
  Reindex(m);
  if (dirty_cursor_ == before) dirty_cursor_ = state_->DirtyLogEnd();
}

void AggregatedNetwork::DeployKeyDeferred(cluster::ContainerId c,
                                          cluster::MachineId m) {
  // Same contract as Deploy(), except the sorted-key update is deferred:
  // the epoch bump (IL memo invalidation) is taken eagerly so memo
  // semantics match the serial wrapper exactly, while the index and the
  // rack maxima stay frozen until the group flush re-keys the moved set.
  const std::uint64_t before = state_->DirtyLogEnd();
  state_->Deploy(c, m);
  ++epoch_[Idx(m)];
  if (dirty_cursor_ == before) dirty_cursor_ = state_->DirtyLogEnd();
}

ALADDIN_HOT std::size_t AggregatedNetwork::PlaceGroupRun(
    std::span<const cluster::ContainerId> run, const SearchOptions& options,
    SearchCounters& counters, std::span<cluster::MachineId> out) {
  ALADDIN_TRACE_SCOPE("core/group_walk");
  ALADDIN_CHECK(state_ != nullptr);
  ALADDIN_DCHECK(run.size() >= 2 && run.size() == out.size());
  const cluster::ApplicationId app = state_->containers()[Idx(run[0])].app;
  const cluster::ResourceVector& request =
      state_->containers()[Idx(run[0])].request;
  const std::int64_t need = request.cpu_millis();
  ALADDIN_DCHECK(need > 0);
#if ALADDIN_DCHECK_IS_ON()
  for (cluster::ContainerId c : run) {
    ALADDIN_DCHECK(state_->containers()[Idx(c)].app == app);
    ALADDIN_DCHECK(state_->containers()[Idx(c)].request == request);
    ALADDIN_DCHECK(!state_->IsPlaced(c));
  }
#endif
  const bool use_il =
      options.enable_il &&
      state_->applications()[Idx(app)].containers.size() > 1;

  group_snapshot_.clear();
  group_touched_.clear();
  group_moved_.clear();
  group_prefix_failed_.clear();

  // No re-key touches the index until the flush, so every key stays where
  // it was: the frozen snapshot extends lazily, chunk by chunk, resuming
  // after its last entry, only as far as the merged walks actually reach.
  // Machines deployed mid-run are only ever ones the walk already
  // materialised, so chunks past the frontier never hold a stale key.
  bool snap_done = false;
  auto extend_snapshot = [&] {
    if (snap_done) return;
    constexpr std::size_t kChunk = 64;
    auto& machines = group_chunk_machines_;
    machines.clear();
    const std::size_t base = group_snapshot_.size();
    auto take = [&](cluster::MachineId m) {
      group_snapshot_.push_back(
          GroupEntry{IndexedFree(m), m.value(), kGroupFresh, 0});
      machines.push_back(m.value());
      return machines.size() == kChunk;
    };
    if (base == 0) {
      snap_done = !index_.ScanAscending(need, take);
    } else {
      const GroupEntry& last = group_snapshot_[base - 1];
      snap_done = !index_.ScanAscendingFrom(last.free, last.machine, take);
    }
    // analyze:allow(A103) pooled scratch, capacity retained across runs
    group_chunk_fits_.resize(machines.size());
    // Batched Eq. 6 over the chunk: one shared request tuple against a flat
    // machine array. Valid for the entire run — a snapshot entry stays
    // kGroupFresh only while its machine is untouched.
    CapacityFunction::BatchFits(*state_, run[0], machines, group_chunk_fits_);
    for (std::size_t i = 0; i < machines.size(); ++i) {
      group_snapshot_[base + i].fit = group_chunk_fits_[i];
    }
  };
  const auto entry_less = [](const GroupEntry& a, const GroupEntry& b) {
    return a.free != b.free ? a.free < b.free : a.machine < b.machine;
  };

  std::size_t placed = 0;
  std::size_t failed_from = run.size();
  // Snapshot entries in [0, prefix_end) are settled (failed or moved) by
  // earlier siblings; later walks start past them. The failed ones live in
  // group_prefix_failed_ (sorted, appended in snapshot order), and the
  // serial walk's counter bumps for re-visiting them — memo-prune under IL,
  // re-probe-and-fail without — are charged wholesale per sibling via one
  // binary search: the serial merge stops at the winner, so only failed
  // keys strictly below the winner's key would have been visited.
  std::size_t prefix_end = 0;
  for (std::size_t s = 0; s < run.size(); ++s) {
    const cluster::ContainerId c = run[s];
    cluster::MachineId winner = cluster::MachineId::Invalid();
    GroupEntry winner_key{0, 0, 0, 0};
    // Two-pointer merge of the frozen snapshot and the re-inserted winners:
    // candidates stream by ascending (free, machine), exactly the order the
    // serial per-sibling walk would visit live keys in.
    std::size_t si = prefix_end;
    std::size_t ti = 0;
    while (true) {
      if (si == group_snapshot_.size()) extend_snapshot();
      const bool have_snap = si < group_snapshot_.size();
      const bool have_touch = ti < group_touched_.size();
      if (!have_snap && !have_touch) break;
      const bool take_snap =
          have_snap && (!have_touch ||
                        entry_less(group_snapshot_[si], group_touched_[ti]));
      if (take_snap) {
        GroupEntry& e = group_snapshot_[si];
        ++si;
        // Beyond the settled prefix every snapshot entry is fresh: a walk
        // only ever marks entries it visits, and the prefix advances past
        // everything visited before the next walk starts.
        ALADDIN_DCHECK(e.state == kGroupFresh);
        const cluster::MachineId m(e.machine);
        // Untouched machine: a pre-run IL memo is still valid.
        if (use_il && IlPruned(app, m)) {
          ++counters.il_prunes;
          e.state = kGroupFailed;
          continue;
        }
        ++counters.explored_paths;
        if (e.fit == 0 || state_->Blacklisted(c, m)) {
          if (use_il) RecordIlFailure(app, m);
          e.state = kGroupFailed;
          continue;
        }
        winner = m;
        winner_key = e;
        e.state = kGroupMoved;
        break;
      }
      GroupEntry& e = group_touched_[ti];
      if (e.state == kGroupFailed) {
        use_il ? ++counters.il_prunes : ++counters.explored_paths;
        ++ti;
        continue;
      }
      // Re-inserted winner: its epoch was bumped at deploy time, so any
      // pre-run memo is stale — full live evaluation, like the serial walk.
      ++counters.explored_paths;
      const cluster::MachineId m(e.machine);
      const CapacityCheck check = CapacityFunction::Evaluate(*state_, c, m);
      if (!check.Admits()) {
        if (use_il) RecordIlFailure(app, m);
        e.state = kGroupFailed;
        ++ti;
        continue;
      }
      winner = m;
      winner_key = e;
      group_touched_.erase(group_touched_.begin() +
                           static_cast<std::ptrdiff_t>(ti));
      break;
    }
    // Charge the skipped failed-prefix visits. On a win, only keys the
    // serial merge would have reached (strictly below the winner's key — a
    // touched winner can sit below failed snapshot keys) count; on
    // exhaustion the serial walk would have re-visited the whole prefix.
    const std::int64_t skipped =
        winner.valid()
            ? std::lower_bound(group_prefix_failed_.begin(),
                               group_prefix_failed_.end(), winner_key,
                               entry_less) -
                  group_prefix_failed_.begin()
            : static_cast<std::int64_t>(group_prefix_failed_.size());
    if (skipped > 0) {
      use_il ? counters.il_prunes += skipped
             : counters.explored_paths += skipped;
    }
    if (!winner.valid()) {
      failed_from = s;
      break;
    }
    // Settle this walk's snapshot range: entries it failed were counted
    // live above and now join the prefix list (still in ascending key
    // order) so later siblings skip them in O(log).
    for (std::size_t i = prefix_end; i < si; ++i) {
      if (group_snapshot_[i].state == kGroupFailed) {
        group_prefix_failed_.push_back(group_snapshot_[i]);
      }
    }
    prefix_end = si;
    out[s] = winner;
    ++counters.dl_stops;
    DeployKeyDeferred(c, winner);
    group_moved_.push_back(winner.value());
    const std::int64_t new_free = FreeCpu(winner);
    if (new_free >= need) {
      // Still a candidate for later siblings, at its live (smaller) key.
      const GroupEntry fresh{new_free, winner.value(), kGroupFresh, 0};
      group_touched_.insert(std::upper_bound(group_touched_.begin(),
                                             group_touched_.end(), fresh,
                                             entry_less),
                            fresh);
    }
    ++placed;
  }

  if (failed_from < run.size()) {
    // The failing sibling exhausted (and fully materialised) the candidate
    // space, memoising every probe; siblings are isomorphic and nothing
    // mutates after a failure, so each later sibling would repeat the same
    // fruitless walk. Charge those walks wholesale.
    std::int64_t candidates =
        static_cast<std::int64_t>(group_touched_.size());
    for (const GroupEntry& e : group_snapshot_) {
      if (e.state != kGroupMoved) ++candidates;
    }
    for (std::size_t s = failed_from; s < run.size(); ++s) {
      out[s] = cluster::MachineId::Invalid();
      if (s > failed_from) {
        use_il ? counters.il_prunes += candidates
               : counters.explored_paths += candidates;
      }
    }
  }

  // Flush the deferred re-keys before any caller-side diagnosis or search
  // reads the aggregates. Idempotent per machine: a double winner re-keys
  // straight to its final residual once, then early-outs.
  for (std::int32_t m : group_moved_) ReindexKeys(cluster::MachineId(m));
  ALADDIN_METRIC_ADD("core/group_runs", 1);
  ALADDIN_METRIC_ADD("core/group_placed", placed);
  return placed;
}

bool AggregatedNetwork::IlPruned(cluster::ApplicationId app,
                                 cluster::MachineId m) const {
  return il_memo_.Pruned(Idx(app), Idx(m), epoch_[Idx(m)]);
}

void AggregatedNetwork::RecordIlFailure(cluster::ApplicationId app,
                                        cluster::MachineId m) {
  il_memo_.Record(Idx(app), Idx(m), epoch_[Idx(m)]);
}

cluster::MachineId AggregatedNetwork::FindMachine(cluster::ContainerId c,
                                                  const SearchOptions& options,
                                                  SearchCounters& counters,
                                                  cluster::MachineId exclude) {
  ALADDIN_TRACE_SCOPE("core/find_machine");
  ALADDIN_CHECK(state_ != nullptr);
  // DL changes the traversal (first saturating path wins); without it the
  // search enumerates every candidate path through the aggregates. Both
  // traversals return the same machine — the tightest admissible one.
  const bool parallel =
      options.pool != nullptr && options.pool->thread_count() > 1;
  if (options.enable_dl) {
    return parallel ? BestFitWalkParallel(c, options, counters, exclude)
                    : FindByBestFitWalk(c, options, counters, exclude);
  }
  return parallel ? EnumerateParallel(c, options, counters, exclude)
                  : FindByEnumeration(c, options, counters, exclude);
}

obs::Cause AggregatedNetwork::DiagnoseFailure(cluster::ContainerId c) const {
  ALADDIN_CHECK(state_ != nullptr);
  const cluster::Container& container = state_->containers()[Idx(c)];
  const std::int64_t need_cpu = container.request.cpu_millis();
  // Global-headroom check: the first key of a descending scan is the
  // cluster's emptiest machine.
  std::int64_t emptiest = -1;
  index_.ScanDescending([&](cluster::MachineId m) {
    emptiest = IndexedFree(m);
    return true;
  });
  if (emptiest < need_cpu) return obs::Cause::kCapacityExhaustedCpu;
  const bool self_conflicts =
      state_->constraints().Conflicts(container.app, container.app);
  std::int64_t mem_blocked = 0;
  std::int64_t intra_blocked = 0;
  std::int64_t inter_blocked = 0;
  const bool admissible =
      index_.ScanAscending(need_cpu, [&](cluster::MachineId m) {
        const CapacityCheck check = CapacityFunction::Evaluate(*state_, c, m);
        if (check.Admits()) return true;
        if (!check.fits) {
          ++mem_blocked;
          return false;
        }
        // Blacklisted: attribute to the container's own application when
        // its within-app anti-affinity is what blocks this machine, else to
        // a conflicting foreign application.
        bool intra = false;
        if (self_conflicts) {
          for (const auto& [app, count] : state_->AppsOn(m)) {
            if (app == container.app.value() && count > 0) {
              intra = true;
              break;
            }
          }
        }
        ++(intra ? intra_blocked : inter_blocked);
        return false;
      });
  if (admissible) return obs::Cause::kNoAdmissiblePath;
  // Dominant cause wins; anti-affinity outranks memory on ties (a blocked
  // machine with the memory free is the more actionable explanation), and
  // intra outranks inter (the container's own app is the simpler story).
  const std::int64_t blacklist_blocked = intra_blocked + inter_blocked;
  if (blacklist_blocked == 0 && mem_blocked == 0) {
    return obs::Cause::kNoAdmissiblePath;  // nothing CPU-feasible after all
  }
  if (mem_blocked > blacklist_blocked) {
    return obs::Cause::kCapacityExhaustedMem;
  }
  return intra_blocked >= inter_blocked ? obs::Cause::kAntiAffinityIntraApp
                                        : obs::Cause::kAntiAffinityInterApp;
}

cluster::MachineId AggregatedNetwork::FindByEnumeration(
    cluster::ContainerId c, const SearchOptions& options,
    SearchCounters& counters, cluster::MachineId exclude) {
  const cluster::ApplicationId app = state_->containers()[Idx(c)].app;
  const std::int64_t need = state_->containers()[Idx(c)].request.cpu_millis();
  // IL exploits isomorphism between sibling containers; a single-container
  // application has no siblings, so the memo would be pure overhead.
  const bool use_il =
      options.enable_il &&
      state_->applications()[Idx(app)].containers.size() > 1;

  cluster::MachineId best = cluster::MachineId::Invalid();
  std::int64_t best_free = 0;
  // Walk A → G_k → R_x → N_y, pruning aggregates whose residual cannot
  // admit the request.
  for (std::size_t g = 0; g < subcluster_max_.size(); ++g) {
    ++counters.explored_paths;  // G vertex probe
    if (subcluster_max_[g] < need) continue;
    for (cluster::RackId rack : topology_->SubClusterRacks(
             cluster::SubClusterId(static_cast<std::int32_t>(g)))) {
      ++counters.explored_paths;  // R vertex probe
      if (rack_max_[Idx(rack)] < need) continue;
      for (cluster::MachineId m : topology_->RackMachines(rack)) {
        if (m == exclude) continue;
        if (use_il && IlPruned(app, m)) {
          ++counters.il_prunes;
          continue;
        }
        ++counters.explored_paths;  // N vertex probe
        const CapacityCheck check = CapacityFunction::Evaluate(*state_, c, m);
        if (!check.Admits()) {
          // Memoise only blacklist rejections; fit rejections are cheaper
          // to recompute than to look up.
          if (use_il && check.blacklisted) RecordIlFailure(app, m);
          continue;
        }
        const std::int64_t free = IndexedFree(m);
        if (!best.valid() || free < best_free ||
            (free == best_free && m < best)) {
          best = m;
          best_free = free;
        }
      }
    }
  }
  return best;
}

cluster::MachineId AggregatedNetwork::FindByBestFitWalk(
    cluster::ContainerId c, const SearchOptions& options,
    SearchCounters& counters, cluster::MachineId exclude) {
  const cluster::ApplicationId app = state_->containers()[Idx(c)].app;
  const std::int64_t need = state_->containers()[Idx(c)].request.cpu_millis();
  const bool use_il =
      options.enable_il &&
      state_->applications()[Idx(app)].containers.size() > 1;

  cluster::MachineId found = cluster::MachineId::Invalid();
  index_.ScanAscending(need, [&](cluster::MachineId m) {
    if (m == exclude) return false;
    if (use_il && IlPruned(app, m)) {
      ++counters.il_prunes;
      return false;
    }
    ++counters.explored_paths;
    const CapacityCheck check = CapacityFunction::Evaluate(*state_, c, m);
    if (check.Admits()) {
      // Depth limiting: this path saturates the container's s→T_i edge;
      // no further path can increase its flow (§IV.A, Fig. 5b).
      ++counters.dl_stops;
      found = m;
      return true;
    }
    if (use_il) RecordIlFailure(app, m);
    return false;
  });
  return found;
}

cluster::MachineId AggregatedNetwork::BestFitWalkParallel(
    cluster::ContainerId c, const SearchOptions& options,
    SearchCounters& counters, cluster::MachineId exclude) {
  const cluster::ApplicationId app = state_->containers()[Idx(c)].app;
  const std::int64_t need = state_->containers()[Idx(c)].request.cpu_millis();
  const bool use_il =
      options.enable_il &&
      state_->applications()[Idx(app)].containers.size() > 1;

  // The serial walk probes machines in ascending-free order and stops at
  // the first admissible one. Here we gather candidates in that same order,
  // score a batch concurrently (CapacityFunction::Evaluate only reads the
  // state), then take the first admitted candidate *in gather order* —
  // never the first finisher. Memo writes are deferred to the reduction, so
  // workers race on nothing; within one walk that is equivalent, because a
  // machine is visited at most once and memo entries are per (app,machine).
  // Counters are charged exactly for the prefix the serial walk would have
  // visited, so results AND counters are bit-identical to the serial walk.
  std::vector<WalkItem>& items = walk_items_;
  std::vector<std::size_t>& eval = walk_eval_;  // indices into `items`
  std::vector<std::uint8_t>& admitted = walk_admitted_;

  // Batch sizes are a fixed schedule (growing: warm clusters admit within a
  // few probes, cold searches amortise the fan-out), independent of worker
  // count and timing — determinism does not ride on load balance. Each
  // batch resumes the index scan after the last machine gathered.
  std::size_t batch = 8;
  constexpr std::size_t kMaxBatch = 512;
  cluster::MachineId last = cluster::MachineId::Invalid();
  bool more = true;
  while (more) {
    items.clear();
    eval.clear();
    auto gather = [&](cluster::MachineId m) {
      last = m;
      if (m == exclude) return false;  // serial walk skips silently
      const bool pruned = use_il && IlPruned(app, m);
      items.push_back(WalkItem{m.value(), pruned});
      if (!pruned) eval.push_back(items.size() - 1);
      return eval.size() == batch;
    };
    more = last.valid() ? index_.ScanAscendingFrom(IndexedFree(last),
                                                   last.value(), gather)
                        : index_.ScanAscending(need, gather);
    // analyze:allow(A103) pooled scratch, capacity retained across walks
    admitted.assign(eval.size(), 0);
    ParallelFor(*options.pool, 0, eval.size(), [&](std::size_t i) {
      const cluster::MachineId m(items[eval[i]].machine);
      admitted[i] =
          CapacityFunction::Evaluate(*state_, c, m).Admits() ? 1 : 0;
    });
    // First admitted candidate in gather order, if any.
    std::size_t winner_item = items.size();
    for (std::size_t i = 0; i < eval.size(); ++i) {
      if (admitted[i]) {
        winner_item = eval[i];
        break;
      }
    }
    // Replay the serial accounting over the visited prefix only.
    for (std::size_t i = 0; i < std::min(winner_item + 1, items.size());
         ++i) {
      const WalkItem& item = items[i];
      if (item.pruned) {
        ++counters.il_prunes;
        continue;
      }
      ++counters.explored_paths;
      if (i < winner_item && use_il) {
        RecordIlFailure(app, cluster::MachineId(item.machine));
      }
    }
    if (winner_item < items.size()) {
      ++counters.dl_stops;
      return cluster::MachineId(items[winner_item].machine);
    }
    batch = std::min(batch * 4, kMaxBatch);
  }
  return cluster::MachineId::Invalid();
}

cluster::MachineId AggregatedNetwork::EnumerateParallel(
    cluster::ContainerId c, const SearchOptions& options,
    SearchCounters& counters, cluster::MachineId exclude) {
  // Sub-clusters partition the machines, so their walks are independent;
  // with a single sub-cluster there is nothing to fan out.
  if (subcluster_max_.size() < 2) {
    return FindByEnumeration(c, options, counters, exclude);
  }
  const cluster::ApplicationId app = state_->containers()[Idx(c)].app;
  const std::int64_t need = state_->containers()[Idx(c)].request.cpu_millis();
  const bool use_il =
      options.enable_il &&
      state_->applications()[Idx(app)].containers.size() > 1;

  // One task per sub-cluster, each replaying the serial G→R→N walk over its
  // slice into private buffers (IL memo reads are safe: writes are deferred,
  // and the serial walk's mid-walk writes can never influence its own later
  // reads — each machine is visited once). The reduction then runs in
  // sub-cluster order: counter sums are order-independent, the global best
  // is a strict (free, machine-id) minimum, and memoised failures land in
  // the exact serial order. SubResult slots (and their il_failures buffers)
  // persist in enum_results_; each task clears only its own slot.
  std::vector<SubResult>& results = enum_results_;
  // analyze:allow(A103) pooled slots, sized once per topology then reused
  results.resize(subcluster_max_.size());
  ParallelFor(*options.pool, 0, subcluster_max_.size(), [&](std::size_t g) {
    SubResult& out = results[g];
    out.Clear();
    ++out.explored;  // G vertex probe
    if (subcluster_max_[g] < need) return;
    for (cluster::RackId rack : topology_->SubClusterRacks(
             cluster::SubClusterId(static_cast<std::int32_t>(g)))) {
      ++out.explored;  // R vertex probe
      if (rack_max_[Idx(rack)] < need) continue;
      for (cluster::MachineId m : topology_->RackMachines(rack)) {
        if (m == exclude) continue;
        if (use_il && IlPruned(app, m)) {
          ++out.il_prunes;
          continue;
        }
        ++out.explored;  // N vertex probe
        const CapacityCheck check = CapacityFunction::Evaluate(*state_, c, m);
        if (!check.Admits()) {
          if (use_il && check.blacklisted) out.il_failures.push_back(m.value());
          continue;
        }
        const std::int64_t free = IndexedFree(m);
        if (out.best < 0 || free < out.best_free ||
            (free == out.best_free && m.value() < out.best)) {
          out.best = m.value();
          out.best_free = free;
        }
      }
    }
  });

  cluster::MachineId best = cluster::MachineId::Invalid();
  std::int64_t best_free = 0;
  for (const SubResult& out : results) {
    counters.explored_paths += out.explored;
    counters.il_prunes += out.il_prunes;
    for (std::int32_t m : out.il_failures) {
      RecordIlFailure(app, cluster::MachineId(m));
    }
    if (out.best < 0) continue;
    const cluster::MachineId m(out.best);
    if (!best.valid() || out.best_free < best_free ||
        (out.best_free == best_free && m < best)) {
      best = m;
      best_free = out.best_free;
    }
  }
  return best;
}

}  // namespace aladdin::core
