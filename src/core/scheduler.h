// The Aladdin scheduler: optimized maximum-flow scheduling of LLAs
// (Algorithm 1) over the aggregated network, with priority weights,
// the multidimensional nonlinear capacity function, and migration /
// preemption repair.
//
// Pipeline per Schedule() call:
//   1. Flow augmentation — containers are admitted in submission order;
//      each is routed along its shortest (tightest-fit) admissible path
//      s→T→A→G→R→N→t. IL and DL prune the search per §IV.A.
//   2. Repair — containers the augmentation could not admit are retried
//      with migration (Fig. 3b) and priority-safe preemption (Fig. 3a),
//      highest weighted flow first (Eq. 9).
//   3. Compaction — bounded rescheduling that drains lightly-used machines
//      (Fig. 7c), recovering packing quality for adversarial arrival orders
//      at a small migration cost (Fig. 13b).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/thread_pool.h"
#include "core/migration.h"
#include "core/network.h"
#include "core/weights.h"
#include "obs/metrics.h"
#include "sim/scheduler.h"

namespace aladdin::core {

struct AladdinOptions {
  // Latency optimisations (§IV.A). The evaluation's three policies:
  //   Aladdin          -> il=false, dl=false
  //   Aladdin+IL       -> il=true,  dl=false
  //   Aladdin+IL+DL    -> il=true,  dl=true  (the default / production mode)
  bool enable_il = true;
  bool enable_dl = true;

  // Weighted-flow knob from Fig. 9: geometric base for the per-class
  // weights. 0 means "derive minimal weights per Eq. 4–5 from the workload".
  std::int64_t weight_base = 16;

  // Repair / rescheduling (§III.B, §IV.D). Repair passes iterate until a
  // pass stops making progress or a fixed pass budget is hit (the cost
  // stays within the paper's O(V·E²·c) bound, §IV.D).
  bool enable_repair = true;

  // Packing compaction (bounded; see RepairEngine::Compact). Its migration
  // ceiling is a fixed fraction of total containers, keeping Fig. 13(b) in
  // the paper's ~1.7 % regime.
  bool enable_compaction = true;

  // Worker threads for the admissible-path search. 0 = hardware
  // concurrency, 1 = serial (no pool). Any value yields identical
  // placements and search counters — see SearchOptions::pool.
  int threads = 0;

  // Group-decomposed pathfinding (ISSUE 9): place runs of isomorphic
  // siblings (same app, identical request, consecutive in weighted-flow
  // order) through one sorted-capacity waterfall instead of per-container
  // best-fit walks. Placements, counters, journal and IL memo state are
  // bit-identical to the per-container path (the waterfall replays it
  // exactly); the knob exists for A/B tests and as a fallback switch.
  // Only engages alongside enable_dl — without DL the search is a full
  // enumeration, which the waterfall does not model.
  bool group_waterfall = true;
};

class AladdinScheduler : public sim::Scheduler {
 public:
  explicit AladdinScheduler(AladdinOptions options = {});

  [[nodiscard]] std::string name() const override;

  sim::ScheduleOutcome Schedule(const sim::ScheduleRequest& request,
                                cluster::ClusterState& state) override;

  // Batch-incremental entry point (ISSUE 9 tentpole): solves a micro-batch
  // of requests against one warm network — weights prepared once, one
  // network Sync() up front, each request's own mutations folded in eagerly.
  // Outcomes are emitted in request order and are bit-identical to calling
  // Schedule() per request (journal/ledger/SLO streams included); only the
  // core/net_syncs, core/net_sync_noop and core/weights_cached counters
  // differ, because the batch pays the prep once. After each request a
  // kBatchScheduled journal marker records the request's index and size.
  std::vector<sim::ScheduleOutcome> ScheduleBatch(
      std::span<const sim::ScheduleRequest> requests,
      cluster::ClusterState& state);

  [[nodiscard]] const AladdinOptions& options() const { return options_; }
  // Weights used by the last Schedule() call (for tests/ablation).
  [[nodiscard]] const PriorityWeights& last_weights() const {
    return weights_;
  }
  // Arrays in the network's IL memo pool; 0 before the first solve. For
  // tests.
  [[nodiscard]] std::size_t il_memo_arrays() const {
    return network_ != nullptr ? network_->il_memo_arrays() : 0;
  }

 private:
  // Returns the network to schedule on: the cached one (synced with the
  // state's dirty log) when it is still attached to this exact state
  // object, else a freshly attached rebuild.
  AggregatedNetwork& PrepareNetwork(cluster::ClusterState& state);
  // Eq. 3–5 weights from class ranges kept incrementally per workload
  // identity: O(containers added since the last call). With no new
  // container or app (every request after the first in a micro-batch, and
  // no-arrival ticks) the weights stand and core/weights_cached counts it.
  void PrepareWeights(const trace::Workload& workload);
  // The per-request pipeline (augment → repair → compact) against an
  // already-prepared network; Schedule() and ScheduleBatch() both land
  // here. `phases_before` is the capture the outcome's phase diff closes.
  sim::ScheduleOutcome ScheduleOne(
      const sim::ScheduleRequest& request, cluster::ClusterState& state,
      AggregatedNetwork& network,
      const std::vector<obs::PhaseDelta>& phases_before);
  // Lazily creates the search pool per options_.threads (null when serial).
  [[nodiscard]] ThreadPool* SearchPool();

  AladdinOptions options_;
  PriorityWeights weights_;
  // Eq. 3 ranges over containers [0, weights_containers_) of the workload
  // whose instance_id() is weights_workload_id_ (0: none yet; ids start
  // at 1).
  ClassRanges class_ranges_{};
  std::uint64_t weights_workload_id_ = 0;
  std::size_t weights_containers_ = 0;

  // Incremental reuse state: the network survives Schedule() calls,
  // replaying the state's dirty log — placements are bit-identical to a
  // fresh engine's rebuild. The instance id (not just the address — states
  // are frequently stack- or optional-allocated) proves the attached state
  // is still the same one.
  std::unique_ptr<AggregatedNetwork> network_;
  std::uint64_t attached_state_id_ = 0;
  std::unique_ptr<ThreadPool> pool_;
  bool pool_created_ = false;

  // Per-tick pooling: the arena backs Schedule()'s transient containers
  // (reset at tick start, chunks retained), the repair scratch persists the
  // RepairEngine's working buffers across ticks, and pending_ recycles the
  // augmentation backlog buffer. After a warmup tick the steady-state
  // Schedule() leaves only the escaping outcome allocations.
  Arena arena_;
  RepairEngine::Scratch repair_scratch_;
  std::vector<cluster::ContainerId> pending_;
  // Group-waterfall staging: the current sibling run and its per-container
  // results (capacity retained across ticks, like pending_).
  std::vector<cluster::ContainerId> group_run_;
  std::vector<cluster::MachineId> group_out_;
};

}  // namespace aladdin::core
