// Batch-incremental solver contract (ISSUE 9):
//
//   * core::AladdinScheduler::ScheduleBatch over any chunking of a wave is
//     bit-identical — placements, unplaced lists, search counters, obs
//     registry — to calling Schedule() once per chunk on a cold engine;
//     the only counters allowed to differ are the network-prep ones
//     (core/net_syncs, core/net_sync_noop, core/weights_cached), because
//     the batch pays the prep once;
//   * the group-decomposed waterfall (AladdinOptions::group_waterfall) is a
//     pure optimisation: identical placements AND search counters with the
//     knob on or off, including anti-affinity fixtures that force the
//     per-container fallback, and it disengages entirely without DL;
//   * core::TaskScheduler::PlaceRun equals per-task PlaceOne(kBestFit);
//   * the resolver's whole-tick batch equals the unbatched resolver
//     bit-identically, a batch deadline only defers (never loses) pods, and
//     batched resolves stay deterministic across thread and shard counts;
//   * Network::Sync() exits early on an empty dirty log
//     (core/net_sync_noop) and PrepareWeights memoises on its fingerprint
//     (core/weights_cached).
//
// These run under the asan/tsan presets too.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cluster/free_index.h"
#include "common/rng.h"
#include "core/scheduler.h"
#include "core/task_scheduler.h"
#include "k8s/simulator.h"
#include "obs/metrics.h"
#include "obs/runtime.h"
#include "trace/workload.h"

namespace aladdin {
namespace {

using cluster::ApplicationId;
using cluster::ContainerId;
using cluster::MachineId;
using cluster::ResourceVector;
using cluster::Topology;
using trace::Workload;

// Random mixed workload: `apps` applications appended to `wl` (half with
// intra-app anti-affinity), returning the container ids added.
std::vector<ContainerId> GrowWave(Workload& wl, Rng& rng, int apps) {
  std::vector<ContainerId> added;
  for (int a = 0; a < apps; ++a) {
    const std::size_t count = static_cast<std::size_t>(rng.UniformInt(1, 6));
    const std::size_t first = wl.container_count();
    wl.AddApplication(
        "app-" + std::to_string(wl.application_count()), count,
        ResourceVector::Cores(rng.UniformInt(1, 8), rng.UniformInt(2, 16)),
        static_cast<cluster::Priority>(
            rng.Bernoulli(0.2) ? rng.UniformInt(1, 3) : 0),
        rng.Bernoulli(0.5));
    for (std::size_t i = first; i < wl.container_count(); ++i) {
      added.emplace_back(static_cast<std::int32_t>(i));
    }
  }
  return added;
}

std::vector<MachineId> Placements(const cluster::ClusterState& state,
                                  std::size_t containers) {
  std::vector<MachineId> out;
  out.reserve(containers);
  for (std::size_t i = 0; i < containers; ++i) {
    out.push_back(state.PlacementOf(ContainerId(static_cast<std::int32_t>(i))));
  }
  return out;
}

std::map<std::string, std::int64_t> CounterSnapshot() {
  std::map<std::string, std::int64_t> out;
  for (const auto& c : obs::Registry::Get().Snapshot().counters) {
    out[c.name] = c.value;
  }
  return out;
}

std::int64_t CounterValue(const char* name) {
  for (const auto& c : obs::Registry::Get().Snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

// The documented exemption set: prep paid once per batch instead of once
// per request. Everything else must match bit for bit.
const std::set<std::string> kBatchExemptCounters = {
    "core/net_syncs", "core/net_sync_noop", "core/weights_cached"};

void ExpectCountersMatchModuloPrep(
    const std::map<std::string, std::int64_t>& batch,
    const std::map<std::string, std::int64_t>& sequential,
    const std::string& label) {
  for (const auto& [name, value] : sequential) {
    if (kBatchExemptCounters.count(name) != 0) continue;
    const auto it = batch.find(name);
    const std::int64_t got = it == batch.end() ? 0 : it->second;
    EXPECT_EQ(got, value) << label << ": counter " << name;
  }
  for (const auto& [name, value] : batch) {
    if (kBatchExemptCounters.count(name) != 0) continue;
    EXPECT_TRUE(sequential.count(name) != 0 || value == 0)
        << label << ": counter " << name << " only on the batch side";
  }
}

// ----------------------------------------- core ScheduleBatch identity ----

// One warm-started solve per chunk == one cold Schedule() per chunk, for
// every chunk size — placements, outcomes, and all non-prep counters.
TEST(ScheduleBatch, MatchesSequentialSchedulesPerChunkSize) {
  const Topology topo =
      Topology::Uniform(32, ResourceVector::Cores(32, 64), 8, 3);
  for (const std::size_t chunk_size : {std::size_t{1}, std::size_t{7},
                                       std::size_t{64}, std::size_t{1 << 20}}) {
    Workload wl;
    Rng rng(2024);
    const std::vector<ContainerId> wave = GrowWave(wl, rng, 30);

    std::vector<std::vector<ContainerId>> chunks;
    for (std::size_t i = 0; i < wave.size(); i += chunk_size) {
      const std::size_t end = std::min(i + chunk_size, wave.size());
      chunks.emplace_back(wave.begin() + static_cast<std::ptrdiff_t>(i),
                          wave.begin() + static_cast<std::ptrdiff_t>(end));
    }
    std::vector<sim::ScheduleRequest> requests(chunks.size());
    for (std::size_t k = 0; k < chunks.size(); ++k) {
      requests[k].workload = &wl;
      requests[k].arrival = &chunks[k];
    }
    const std::string label = "chunk_size=" + std::to_string(chunk_size);

    obs::Registry::Get().ResetAll();
    obs::SetMetricsEnabled(true);
    cluster::ClusterState batch_state = wl.MakeState(topo);
    core::AladdinScheduler batch_engine;
    const auto batch_outcomes = batch_engine.ScheduleBatch(requests,
                                                           batch_state);
    const auto batch_counters = CounterSnapshot();

    obs::Registry::Get().ResetAll();
    cluster::ClusterState seq_state = wl.MakeState(topo);
    core::AladdinScheduler seq_engine;
    std::vector<sim::ScheduleOutcome> seq_outcomes;
    seq_outcomes.reserve(requests.size());
    for (const sim::ScheduleRequest& request : requests) {
      seq_outcomes.push_back(seq_engine.Schedule(request, seq_state));
    }
    const auto seq_counters = CounterSnapshot();
    obs::SetMetricsEnabled(false);

    EXPECT_EQ(Placements(batch_state, wl.container_count()),
              Placements(seq_state, wl.container_count()))
        << label;
    ASSERT_EQ(batch_outcomes.size(), seq_outcomes.size()) << label;
    for (std::size_t k = 0; k < batch_outcomes.size(); ++k) {
      EXPECT_EQ(batch_outcomes[k].unplaced, seq_outcomes[k].unplaced)
          << label << " request " << k;
      EXPECT_EQ(batch_outcomes[k].explored_paths,
                seq_outcomes[k].explored_paths)
          << label << " request " << k;
      EXPECT_EQ(batch_outcomes[k].il_prunes, seq_outcomes[k].il_prunes)
          << label << " request " << k;
      EXPECT_EQ(batch_outcomes[k].dl_stops, seq_outcomes[k].dl_stops)
          << label << " request " << k;
    }
    ExpectCountersMatchModuloPrep(batch_counters, seq_counters, label);
    ASSERT_TRUE(batch_state.CheckConsistency()) << label;
  }
}

// A no-arrival follow-up request hits the Sync() fast path: the dirty log
// is empty after the batch's own mutations were folded in, so the network
// skips the walk and says so in core/net_sync_noop.
TEST(ScheduleBatch, EmptyDirtyLogSyncIsCountedNoop) {
  const Topology topo = Topology::Uniform(8, ResourceVector::Cores(32, 64));
  Workload wl;
  Rng rng(7);
  const std::vector<ContainerId> wave = GrowWave(wl, rng, 6);
  cluster::ClusterState state = wl.MakeState(topo);
  core::AladdinScheduler engine;

  obs::Registry::Get().ResetAll();
  obs::SetMetricsEnabled(true);
  const sim::ScheduleRequest request{&wl, &wave};
  (void)engine.Schedule(request, state);
  const std::int64_t noops_after_first = CounterValue("core/net_sync_noop");

  const std::vector<ContainerId> empty;
  const sim::ScheduleRequest idle{&wl, &empty};
  (void)engine.Schedule(idle, state);
  const std::int64_t noops_after_idle = CounterValue("core/net_sync_noop");
  const std::int64_t dirty = CounterValue("core/net_sync_dirty");
  (void)engine.Schedule(idle, state);
  const std::int64_t dirty_still = CounterValue("core/net_sync_dirty");
  obs::SetMetricsEnabled(false);

  EXPECT_GT(noops_after_idle, noops_after_first)
      << "an idle resolve over a clean state must take the no-op exit";
  EXPECT_EQ(dirty_still, dirty)
      << "a no-op sync must not replay any dirty entries";
}

// PrepareWeights memoises on the workload's content fingerprint: the
// second solve over an unchanged population skips Eq. 3–5 recomputation.
TEST(ScheduleBatch, WeightsAreCachedAcrossRequests) {
  const Topology topo = Topology::Uniform(8, ResourceVector::Cores(32, 64));
  Workload wl;
  Rng rng(11);
  const std::vector<ContainerId> wave = GrowWave(wl, rng, 6);
  cluster::ClusterState state = wl.MakeState(topo);
  core::AladdinScheduler engine;

  obs::Registry::Get().ResetAll();
  obs::SetMetricsEnabled(true);
  const sim::ScheduleRequest request{&wl, &wave};
  (void)engine.Schedule(request, state);
  EXPECT_EQ(CounterValue("core/weights_cached"), 0)
      << "the first solve has nothing to reuse";
  const std::vector<ContainerId> empty;
  const sim::ScheduleRequest idle{&wl, &empty};
  (void)engine.Schedule(idle, state);
  const std::int64_t cached = CounterValue("core/weights_cached");
  obs::SetMetricsEnabled(false);
  EXPECT_EQ(cached, 1) << "an unchanged population must hit the cache";

  // Growing the workload invalidates the fingerprint.
  wl.AddApplication("late", 2, ResourceVector::Cores(2, 4));
  state.SyncWorkloadGrowth();
  obs::SetMetricsEnabled(true);
  (void)engine.Schedule(idle, state);
  obs::SetMetricsEnabled(false);
  EXPECT_EQ(CounterValue("core/weights_cached"), cached)
      << "a changed population must recompute";
}

// ------------------------------------------- group waterfall identity ----

// The sorted-capacity waterfall replays the per-container walk exactly:
// same placements, same unplaced suffixes, same search counters — on
// workloads full of anti-affinity groups that force the exact-search
// fallback mid-run.
TEST(GroupWaterfall, PlacementsAndCountersMatchPerContainerWalk) {
  const Topology topo =
      Topology::Uniform(32, ResourceVector::Cores(32, 64), 8, 3);
  for (const std::uint64_t seed : {31u, 47u, 101u}) {
    Workload wl;
    Rng rng(seed);
    const std::vector<ContainerId> wave = GrowWave(wl, rng, 28);
    const sim::ScheduleRequest request{&wl, &wave};

    core::AladdinOptions on;
    on.group_waterfall = true;
    core::AladdinOptions off = on;
    off.group_waterfall = false;

    obs::Registry::Get().ResetAll();
    obs::SetMetricsEnabled(true);
    cluster::ClusterState on_state = wl.MakeState(topo);
    core::AladdinScheduler on_engine(on);
    const auto on_outcome = on_engine.Schedule(request, on_state);
    const std::int64_t group_runs = CounterValue("core/group_runs");
    const auto on_counters = CounterSnapshot();

    obs::Registry::Get().ResetAll();
    cluster::ClusterState off_state = wl.MakeState(topo);
    core::AladdinScheduler off_engine(off);
    const auto off_outcome = off_engine.Schedule(request, off_state);
    auto off_counters = CounterSnapshot();
    obs::SetMetricsEnabled(false);

    const std::string label = "seed=" + std::to_string(seed);
    EXPECT_EQ(Placements(on_state, wl.container_count()),
              Placements(off_state, wl.container_count()))
        << label;
    EXPECT_EQ(on_outcome.unplaced, off_outcome.unplaced) << label;
    EXPECT_EQ(on_outcome.explored_paths, off_outcome.explored_paths)
        << label;
    EXPECT_EQ(on_outcome.il_prunes, off_outcome.il_prunes) << label;
    EXPECT_EQ(on_outcome.dl_stops, off_outcome.dl_stops) << label;
    EXPECT_GT(group_runs, 0)
        << label << ": the fixture must actually exercise the waterfall";
    // The waterfall's own accounting is the only divergence allowed.
    for (const char* name : {"core/group_runs", "core/group_placed"}) {
      off_counters[name] = on_counters.count(name) != 0
                               ? on_counters.at(name)
                               : off_counters[name];
    }
    for (const auto& [name, value] : on_counters) {
      const auto it = off_counters.find(name);
      EXPECT_EQ(it == off_counters.end() ? 0 : it->second, value)
          << label << ": counter " << name;
    }
  }
}

// Without DL the search is a full enumeration the waterfall does not
// model: the knob must disengage (no group runs) and stay bit-identical.
TEST(GroupWaterfall, DisengagesWithoutDepthLimiting) {
  const Topology topo =
      Topology::Uniform(24, ResourceVector::Cores(32, 64), 6, 2);
  Workload wl;
  Rng rng(61);
  const std::vector<ContainerId> wave = GrowWave(wl, rng, 18);
  const sim::ScheduleRequest request{&wl, &wave};

  core::AladdinOptions on;
  on.enable_dl = false;
  on.group_waterfall = true;
  core::AladdinOptions off = on;
  off.group_waterfall = false;

  obs::Registry::Get().ResetAll();
  obs::SetMetricsEnabled(true);
  cluster::ClusterState on_state = wl.MakeState(topo);
  core::AladdinScheduler on_engine(on);
  const auto on_outcome = on_engine.Schedule(request, on_state);
  const std::int64_t group_runs = CounterValue("core/group_runs");
  obs::SetMetricsEnabled(false);

  cluster::ClusterState off_state = wl.MakeState(topo);
  core::AladdinScheduler off_engine(off);
  const auto off_outcome = off_engine.Schedule(request, off_state);

  EXPECT_EQ(group_runs, 0) << "no DL means no waterfall runs";
  EXPECT_EQ(Placements(on_state, wl.container_count()),
            Placements(off_state, wl.container_count()));
  EXPECT_EQ(on_outcome.unplaced, off_outcome.unplaced);
  EXPECT_EQ(on_outcome.explored_paths, off_outcome.explored_paths);
}

// ------------------------------------------------ task-run placement ----

// PlaceRun == per-task PlaceOne(kBestFit), including winner exhaustion
// mid-run, the all-fail suffix and a run of one (the resolver routes every
// short-lived pod through PlaceRun, lone pods included), under randomized
// pre-occupancy.
TEST(TaskRunPlacement, PlaceRunMatchesPlaceOnePerTask) {
  struct Input {
    std::uint64_t seed;
    std::size_t run_length;
  };
  for (const Input input :
       {Input{3, 30}, Input{17, 30}, Input{29, 30}, Input{71, 30},
        Input{5, 1}}) {
    const std::uint64_t seed = input.seed;
    Rng rng(seed);
    const Topology topo =
        Topology::Uniform(12, ResourceVector::Cores(16, 32));
    Workload wl;
    // Filler apps to randomise occupancy, then one uniform task app whose
    // containers form the run.
    wl.AddApplication("filler", 20,
                      ResourceVector::Cores(rng.UniformInt(1, 6),
                                            rng.UniformInt(2, 12)));
    const std::size_t run_first = wl.container_count();
    wl.AddApplication("tasks", input.run_length,
                      ResourceVector::Cores(rng.UniformInt(1, 8),
                                            rng.UniformInt(2, 16)));

    cluster::ClusterState run_state = wl.MakeState(topo);
    cluster::ClusterState one_state = wl.MakeState(topo);
    for (std::size_t i = 0; i < run_first; ++i) {
      const ContainerId filler(static_cast<std::int32_t>(i));
      const MachineId m(rng.UniformInt(0, 11));
      if (run_state.Fits(filler, m)) {
        run_state.Deploy(filler, m);
        one_state.Deploy(filler, m);
      }
    }
    cluster::FreeIndex run_index;
    run_index.Attach(run_state);
    cluster::FreeIndex one_index;
    one_index.Attach(one_state);

    std::vector<ContainerId> tasks;
    for (std::size_t i = run_first; i < wl.container_count(); ++i) {
      tasks.emplace_back(static_cast<std::int32_t>(i));
    }
    std::vector<MachineId> run_out(tasks.size(), MachineId::Invalid());
    const std::size_t placed = core::TaskScheduler::PlaceRun(
        run_state, run_index, tasks, run_out);

    std::size_t one_placed = 0;
    std::vector<MachineId> one_out;
    for (const ContainerId task : tasks) {
      const MachineId m = core::TaskScheduler::PlaceOne(
          one_state, one_index, task, core::TaskPlacementPolicy::kBestFit);
      one_out.push_back(m);
      if (m.valid()) ++one_placed;
    }

    const std::string label = "seed=" + std::to_string(seed) +
                              " run=" + std::to_string(input.run_length);
    EXPECT_EQ(run_out, one_out) << label;
    EXPECT_EQ(placed, one_placed) << label;
    EXPECT_EQ(Placements(run_state, wl.container_count()),
              Placements(one_state, wl.container_count()))
        << label;
    // Failures form a suffix.
    bool failing = false;
    for (const MachineId m : run_out) {
      if (!m.valid()) {
        failing = true;
      } else {
        EXPECT_FALSE(failing)
            << label << ": a placement after a failure breaks the suffix";
      }
    }
    ASSERT_TRUE(run_state.CheckConsistency()) << label;
  }
}

// --------------------------------------------- resolver-level batching ----

// Scripted mixed cluster, shared by the resolver equivalence tests below.
void RunScript(k8s::ClusterSimulator& sim, int ticks) {
  Rng rng(7);
  std::int64_t apps = 0;
  for (int t = 0; t < ticks; ++t) {
    for (int d = 0; d < 3; ++d) {
      k8s::PodSpec spec;
      spec.requests = cluster::ResourceVector::Cores(rng.UniformInt(1, 6),
                                                     rng.UniformInt(2, 12));
      spec.priority = rng.Bernoulli(0.2)
                          ? static_cast<cluster::Priority>(rng.UniformInt(1, 3))
                          : 0;
      spec.anti_affinity_within = rng.Bernoulli(0.6);
      sim.SubmitDeployment("svc-" + std::to_string(apps++),
                           static_cast<std::size_t>(rng.UniformInt(1, 5)),
                           spec);
    }
    sim.SubmitBatchJob("job-" + std::to_string(t), 12,
                       cluster::ResourceVector::Cores(1, 2),
                       /*lifetime_ticks=*/2);
    sim.Tick();
  }
}

std::map<k8s::PodUid, std::string> FinalBindings(k8s::ClusterSimulator& sim) {
  std::map<k8s::PodUid, std::string> out;
  for (k8s::PodUid uid : sim.adaptor().BoundPods()) {
    out[uid] = sim.adaptor().FindPod(uid)->node;
  }
  return out;
}

// A chunk covering the whole tick is the sequential solve: identical
// per-tick stats and final bindings, not just convergent ones.
TEST(ResolverBatch, WholeTickBatchMatchesUnbatchedBitForBit) {
  k8s::ResolverOptions unbatched;
  unbatched.aladdin = k8s::Resolver::DefaultOptions();
  k8s::ResolverOptions batched = unbatched;
  batched.batch = 1 << 20;

  k8s::ClusterSimulator a(unbatched);
  k8s::ClusterSimulator b(batched);
  a.AddNodes(16, cluster::ResourceVector::Cores(32, 64), "node", 4, 2);
  b.AddNodes(16, cluster::ResourceVector::Cores(32, 64), "node", 4, 2);
  RunScript(a, 8);
  RunScript(b, 8);

  ASSERT_EQ(a.history().size(), b.history().size());
  for (std::size_t t = 0; t < a.history().size(); ++t) {
    EXPECT_EQ(a.history()[t].new_bindings, b.history()[t].new_bindings)
        << "tick " << t;
    EXPECT_EQ(a.history()[t].unschedulable, b.history()[t].unschedulable)
        << "tick " << t;
    EXPECT_EQ(a.history()[t].migrations, b.history()[t].migrations)
        << "tick " << t;
  }
  EXPECT_EQ(FinalBindings(a), FinalBindings(b));
  EXPECT_EQ(a.completed_tasks(), b.completed_tasks());
}

// Micro-batched resolves stay deterministic across thread counts and
// across the sharded coordinator's K=1 identity.
TEST(ResolverBatch, DeterministicAcrossThreadsAndShards) {
  auto run = [](int batch, int threads, int shards) {
    k8s::ResolverOptions options;
    options.aladdin = k8s::Resolver::DefaultOptions();
    options.aladdin.threads = threads;
    options.batch = batch;
    options.shards = shards;
    k8s::ClusterSimulator sim(options);
    sim.AddNodes(16, cluster::ResourceVector::Cores(32, 64), "node", 4, 2);
    RunScript(sim, 6);
    return FinalBindings(sim);
  };

  const auto serial = run(/*batch=*/7, /*threads=*/1, /*shards=*/0);
  EXPECT_EQ(serial, run(7, 3, 0)) << "thread count changed batched bindings";
  EXPECT_EQ(serial, run(7, 1, 1)) << "K=1 sharding changed batched bindings";
  const auto sharded = run(/*batch=*/7, /*threads=*/1, /*shards=*/2);
  EXPECT_EQ(sharded, run(7, 4, 2))
      << "thread count changed sharded batched bindings";
}

// A deadline defers whole ticks (no long-lived bindings) and catches up on
// the next boundary without losing pods.
TEST(ResolverBatch, DeadlineDefersThenCatchesUp) {
  k8s::ResolverOptions deferred_options;
  deferred_options.aladdin = k8s::Resolver::DefaultOptions();
  deferred_options.batch = 1 << 20;
  deferred_options.batch_deadline_ticks = 2;
  k8s::ClusterSimulator sim(deferred_options);
  sim.AddNodes(16, cluster::ResourceVector::Cores(32, 64), "node", 4, 2);

  k8s::PodSpec spec;
  spec.requests = cluster::ResourceVector::Cores(2, 4);
  for (int t = 0; t < 6; ++t) {
    sim.SubmitDeployment("svc-" + std::to_string(t), 4, spec);
    sim.Tick();
  }

  // The simulator resolves with 1-based ticks, so the deadline boundary
  // ((tick + 1) % 2 == 0) lands on the odd resolver ticks: the first wave
  // binds immediately, then every deferred wave lands together with the
  // next one. The last wave is still parked when the run ends — deferral
  // trades latency, never loses pods that get a boundary.
  const auto& history = sim.history();
  ASSERT_EQ(history.size(), 6u);
  for (std::size_t t = 0; t < history.size(); ++t) {
    const bool boundary = (history[t].tick + 1) % 2 == 0;
    if (boundary) {
      EXPECT_EQ(history[t].new_bindings, t == 0 ? 4 : 8) << "tick " << t;
      EXPECT_EQ(history[t].unschedulable, 0) << "tick " << t;
    } else {
      EXPECT_EQ(history[t].new_bindings, 0) << "tick " << t;
      EXPECT_EQ(history[t].unschedulable, 4)
          << "tick " << t << ": the parked wave must be counted, not lost";
    }
  }
  EXPECT_EQ(FinalBindings(sim).size(), 20u)
      << "every wave that saw a boundary must be bound";
}

}  // namespace
}  // namespace aladdin
