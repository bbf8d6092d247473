// Request-scoped IL memo contract (core::IlMemo inside AggregatedNetwork):
//
//   * the memo lives for one scheduling request: an array recycled from an
//     earlier request never prunes a probe, neither for the app that
//     receives it nor for a later sibling of the app that wrote it;
//   * a persistent AladdinScheduler therefore reports the same placements
//     AND search counters (explored_paths, il_prunes, dl_stops) as a fresh
//     scheduler per request, pending containers retried included;
//   * the pool holds no more arrays than the most apps that recorded a
//     failure within one request.
//
// These run under the asan/tsan presets too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/scheduler.h"
#include "trace/workload.h"

namespace aladdin {
namespace {

using cluster::ContainerId;
using cluster::MachineId;
using cluster::ResourceVector;
using cluster::Topology;
using trace::Workload;

std::vector<MachineId> Placements(const cluster::ClusterState& state,
                                  std::size_t containers) {
  std::vector<MachineId> out;
  out.reserve(containers);
  for (std::size_t i = 0; i < containers; ++i) {
    out.push_back(state.PlacementOf(ContainerId(static_cast<std::int32_t>(i))));
  }
  return out;
}

// Three 32-core / 64 GB machines; fillers leave m2 with 12 cores / 1 GB and
// m0 with 16 cores / 4 GB free, so every best-fit walk visits m2, then m0,
// then the idle m1.
//   Request 1: A0, A1 (2 cores / 8 GB) fail m2 and m0 on memory; A's memo
//              array records both. Both land on m1.
//   Request 2: B0 (1 core / 2 GB) fails m2 on memory and takes the pool's
//              one array, A's. m0 is unchanged since request 1, and B fits
//              it: B must explore m0 and land there, not prune it on A's
//              stale entry.
//   Request 3: A2, a new sibling of A, meets m2 still unchanged since
//              request 1: it must explore m2, not prune it on A's memo.
TEST(IlMemo, RecycledArrayNeverPrunes) {
  const Topology topo = Topology::Uniform(3, ResourceVector::Cores(32, 64));
  Workload wl;
  const auto fill0 =
      wl.AddApplication("fill0", 1, ResourceVector::Cores(16, 60));
  const auto fill2 =
      wl.AddApplication("fill2", 1, ResourceVector::Cores(20, 63));
  const auto a = wl.AddApplication("a", 3, ResourceVector::Cores(2, 8));
  const auto b = wl.AddApplication("b", 2, ResourceVector::Cores(1, 2));
  const MachineId m0(0), m1(1), m2(2);

  cluster::ClusterState state = wl.MakeState(topo);
  state.Deploy(wl.application(fill0).containers[0], m0);
  state.Deploy(wl.application(fill2).containers[0], m2);

  core::AladdinOptions options;
  options.threads = 1;
  options.enable_compaction = false;
  core::AladdinScheduler scheduler(options);
  const std::vector<ContainerId>& as = wl.application(a).containers;
  const ContainerId b0 = wl.application(b).containers[0];

  const std::vector<ContainerId> first = {as[0], as[1]};
  const auto out1 = scheduler.Schedule({&wl, &first}, state);
  ASSERT_TRUE(out1.unplaced.empty());
  EXPECT_EQ(state.PlacementOf(as[0]), m1);
  EXPECT_EQ(state.PlacementOf(as[1]), m1);
  EXPECT_EQ(scheduler.il_memo_arrays(), 1U);

  const std::vector<ContainerId> second = {b0};
  const auto out2 = scheduler.Schedule({&wl, &second}, state);
  ASSERT_TRUE(out2.unplaced.empty());
  EXPECT_EQ(state.PlacementOf(b0), m0) << "B pruned m0 on A's stale entry";
  EXPECT_EQ(out2.explored_paths, 2);  // m2 fails, m0 admits
  EXPECT_EQ(out2.il_prunes, 0);
  EXPECT_EQ(scheduler.il_memo_arrays(), 1U) << "B did not reuse A's array";

  const std::vector<ContainerId> third = {as[2]};
  const auto out3 = scheduler.Schedule({&wl, &third}, state);
  ASSERT_TRUE(out3.unplaced.empty());
  EXPECT_EQ(state.PlacementOf(as[2]), m1);
  EXPECT_EQ(out3.explored_paths, 3);  // m2, m0 (now B's too) fail; m1
  EXPECT_EQ(out3.il_prunes, 0) << "A's sibling pruned on a past request";
  EXPECT_EQ(scheduler.il_memo_arrays(), 1U);
  ASSERT_TRUE(state.CheckConsistency());
}

// A mixed wave: `apps` applications appended to `wl`, half with intra-app
// anti-affinity, returning the container ids added.
std::vector<ContainerId> GrowWave(Workload& wl, Rng& rng, int apps) {
  std::vector<ContainerId> added;
  for (int i = 0; i < apps; ++i) {
    const std::size_t count = static_cast<std::size_t>(rng.UniformInt(2, 8));
    const std::size_t first = wl.container_count();
    wl.AddApplication(
        "app-" + std::to_string(wl.application_count()), count,
        ResourceVector::Cores(rng.UniformInt(1, 8), rng.UniformInt(2, 24)),
        static_cast<cluster::Priority>(
            rng.Bernoulli(0.2) ? rng.UniformInt(1, 3) : 0),
        rng.Bernoulli(0.5));
    for (std::size_t c = first; c < wl.container_count(); ++c) {
      added.emplace_back(static_cast<std::int32_t>(c));
    }
  }
  return added;
}

// Waves overfill a small cluster, so containers stay pending and every
// later request retries them next to the new arrivals; evictions between
// waves free room. Each request on the persistent scheduler must match a
// fresh scheduler's on placements and on every search counter.
TEST(IlMemo, PersistentCountersMatchFreshPerRequest) {
  const Topology topo =
      Topology::Uniform(24, ResourceVector::Cores(32, 64), 6, 2);
  Workload wl;
  Rng rng(91);
  core::AladdinOptions options;
  options.threads = 1;
  core::AladdinScheduler persistent(options);
  cluster::ClusterState persistent_state = wl.MakeState(topo);
  cluster::ClusterState fresh_state = wl.MakeState(topo);

  std::size_t most_holders = 0;  // apps recording a failure in one request
  std::int64_t retried = 0;
  std::int64_t prunes = 0;
  for (int wave = 0; wave < 8; ++wave) {
    const std::string label = "wave " + std::to_string(wave);
    std::vector<ContainerId> pending;
    for (const auto& c : wl.containers()) {
      if (!persistent_state.IsPlaced(c.id)) pending.push_back(c.id);
    }
    retried += static_cast<std::int64_t>(pending.size());
    const std::vector<ContainerId> arrivals = GrowWave(wl, rng, 12);
    pending.insert(pending.end(), arrivals.begin(), arrivals.end());
    persistent_state.SyncWorkloadGrowth();
    fresh_state.SyncWorkloadGrowth();

    const sim::ScheduleRequest request{&wl, &pending};
    const auto kept = persistent.Schedule(request, persistent_state);
    core::AladdinScheduler fresh(options);
    const auto cold = fresh.Schedule(request, fresh_state);
    most_holders = std::max(most_holders, fresh.il_memo_arrays());
    prunes += cold.il_prunes;

    EXPECT_EQ(Placements(persistent_state, wl.container_count()),
              Placements(fresh_state, wl.container_count()))
        << label;
    EXPECT_EQ(kept.unplaced, cold.unplaced) << label;
    EXPECT_EQ(kept.explored_paths, cold.explored_paths) << label;
    EXPECT_EQ(kept.il_prunes, cold.il_prunes) << label;
    EXPECT_EQ(kept.dl_stops, cold.dl_stops) << label;
    EXPECT_LE(persistent.il_memo_arrays(), most_holders) << label;

    // External churn: evict every third placed container on both states.
    std::vector<ContainerId> placed;
    for (const auto& c : wl.containers()) {
      if (persistent_state.IsPlaced(c.id)) placed.push_back(c.id);
    }
    for (std::size_t i = 0; i < placed.size(); i += 3) {
      persistent_state.Evict(placed[i]);
      fresh_state.Evict(placed[i]);
    }
    ASSERT_TRUE(persistent_state.CheckConsistency()) << label;
  }
  // The fixture must exercise what it names: retries and IL prunes.
  EXPECT_GT(retried, 0);
  EXPECT_GT(prunes, 0);
}

}  // namespace
}  // namespace aladdin
