// Equivalence contract for the incremental/parallel hot path:
//
//   * incremental reuse (the scheduler's persistent network, the
//     resolver's persistent state) must produce placements bit-identical to
//     a freshly constructed engine or resolver, which always builds from
//     scratch — the reuse is a pure optimisation;
//   * the pool-backed admissible-path search (AladdinOptions::threads) must
//     match the serial walk on placements AND search counters, for any
//     thread count — determinism is part of the API, not best-effort;
//   * the supporting machinery (dirty log, change journal, instance ids)
//     must agree with its from-scratch oracle.
//
// These tests run under the asan/tsan presets too; the parallel cases are
// the TSan workhorse for the search fan-out.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/audit.h"
#include "common/rng.h"
#include "core/scheduler.h"
#include "flow/max_flow.h"
#include "flow/workspace.h"
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

// ----------------------------------------------------- state journals ----

Workload TinyWorkload() {
  Workload wl;
  wl.AddApplication("a", 3, ResourceVector::Cores(2, 4));
  wl.AddApplication("b", 2, ResourceVector::Cores(4, 8), 1, true);
  return wl;
}

TEST(DirtyLog, RecordsMutationsSinceCursor) {
  const Workload wl = TinyWorkload();
  const Topology topo = Topology::Uniform(4, ResourceVector::Cores(32, 64));
  cluster::ClusterState state = wl.MakeState(topo);
  state.EnableDirtyLog();
  const std::uint64_t start = state.DirtyLogEnd();

  state.Deploy(ContainerId(0), MachineId(1));
  state.Deploy(ContainerId(1), MachineId(2));
  state.Evict(ContainerId(0));

  bool overflowed = true;
  const auto dirty = state.DirtySince(start, &overflowed);
  EXPECT_FALSE(overflowed);
  ASSERT_EQ(dirty.size(), 3u);
  EXPECT_EQ(dirty[0], MachineId(1));
  EXPECT_EQ(dirty[1], MachineId(2));
  EXPECT_EQ(dirty[2], MachineId(1));

  // A cursor at the end sees nothing; an entry later it sees just that one.
  const std::uint64_t end = state.DirtyLogEnd();
  EXPECT_TRUE(state.DirtySince(end, &overflowed).empty());
  state.Migrate(ContainerId(1), MachineId(3));  // marks machines 2 and 3
  EXPECT_EQ(state.DirtySince(end, &overflowed).size(), 2u);
}

TEST(DirtyLog, ClearForcesFullResync) {
  const Workload wl = TinyWorkload();
  const Topology topo = Topology::Uniform(4, ResourceVector::Cores(32, 64));
  cluster::ClusterState state = wl.MakeState(topo);
  state.EnableDirtyLog();
  const std::uint64_t cursor = state.DirtyLogEnd();
  state.Deploy(ContainerId(0), MachineId(0));
  state.Clear();
  bool overflowed = false;
  EXPECT_TRUE(state.DirtySince(cursor, &overflowed).empty());
  EXPECT_TRUE(overflowed) << "pre-Clear cursors must be told to rebuild";
}

TEST(DirtyLog, OverflowDropsOldestAndFlagsStragglers) {
  const Workload wl = TinyWorkload();
  const Topology topo = Topology::Uniform(4, ResourceVector::Cores(32, 64));
  cluster::ClusterState state = wl.MakeState(topo);
  state.EnableDirtyLog();
  const std::uint64_t stale = state.DirtyLogEnd();
  // Each Deploy+Evict pair appends two entries; push well past the cap.
  for (int i = 0; i < (1 << 16); ++i) {
    state.Deploy(ContainerId(0), MachineId(0));
    state.Evict(ContainerId(0));
  }
  bool overflowed = false;
  (void)state.DirtySince(stale, &overflowed);
  EXPECT_TRUE(overflowed);
  // A fresh cursor still works incrementally.
  const std::uint64_t now = state.DirtyLogEnd();
  state.Deploy(ContainerId(0), MachineId(3));
  const auto dirty = state.DirtySince(now, &overflowed);
  EXPECT_FALSE(overflowed);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], MachineId(3));
}

TEST(ChangeJournal, DeduplicatesPerContainer) {
  const Workload wl = TinyWorkload();
  const Topology topo = Topology::Uniform(4, ResourceVector::Cores(32, 64));
  cluster::ClusterState state = wl.MakeState(topo);
  state.EnableChangeJournal();
  state.Deploy(ContainerId(0), MachineId(0));
  state.Evict(ContainerId(0));
  state.Deploy(ContainerId(2), MachineId(1));
  const auto changed = state.TakeChangedContainers();
  ASSERT_EQ(changed.size(), 2u);
  EXPECT_EQ(changed[0], ContainerId(0));  // first-touch order
  EXPECT_EQ(changed[1], ContainerId(2));
  EXPECT_TRUE(state.TakeChangedContainers().empty()) << "take must clear";
}

TEST(InstanceId, CopiesAreDistinctStates) {
  const Workload wl = TinyWorkload();
  const Topology topo = Topology::Uniform(4, ResourceVector::Cores(32, 64));
  const cluster::ClusterState state = wl.MakeState(topo);
  const cluster::ClusterState copy = state;  // NOLINT: copy intended
  EXPECT_NE(state.instance_id(), copy.instance_id());
  cluster::ClusterState moved = wl.MakeState(topo);
  const std::uint64_t id = moved.instance_id();
  const cluster::ClusterState stolen = std::move(moved);
  EXPECT_EQ(stolen.instance_id(), id) << "moves keep identity";
}

TEST(WorkloadGrowth, AppendedContainersEnterState) {
  Workload wl = TinyWorkload();
  const Topology topo = Topology::Uniform(4, ResourceVector::Cores(32, 64));
  cluster::ClusterState state = wl.MakeState(topo);
  const std::size_t before = wl.container_count();
  const ContainerId c = wl.AddContainer(ApplicationId(0));
  EXPECT_EQ(static_cast<std::size_t>(c.value()), before);
  state.SyncWorkloadGrowth();
  EXPECT_FALSE(state.IsPlaced(c));
  state.Deploy(c, MachineId(0));
  EXPECT_TRUE(state.IsPlaced(c));
  EXPECT_TRUE(state.CheckConsistency());
}

// ------------------------------------------------ scheduler equivalence ----

// Random mixed workload; `waves` batches of apps appended to `wl`, returning
// the container ids added per wave.
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

// Persistent-network identity: one scheduler keeps its aggregated network
// across waves and learns about external churn (evictions made directly on
// the state) only through the state's dirty log; a throwaway engine built
// fresh per wave rebuilds the network from scratch. Network reuse is a pure
// optimisation — identical placements and outcomes, wave after wave.
TEST(IncrementalNetwork, PlacementsMatchFreshRebuildAcrossWaves) {
  const Topology topo =
      Topology::Uniform(48, ResourceVector::Cores(32, 64), 8, 3);
  Workload wl;
  Rng rng(2024);

  const core::AladdinOptions options;  // repair + compaction on (defaults)
  core::AladdinScheduler incremental(options);  // one persistent engine
  cluster::ClusterState inc_state = wl.MakeState(topo);
  cluster::ClusterState fresh_state = wl.MakeState(topo);

  for (int wave = 0; wave < 6; ++wave) {
    const std::vector<ContainerId> arrivals = GrowWave(wl, rng, 4);
    inc_state.SyncWorkloadGrowth();
    fresh_state.SyncWorkloadGrowth();

    // External churn the network only learns about via the dirty log:
    // evict a slice of the placed containers directly on the state.
    std::vector<ContainerId> placed;
    for (const auto& c : wl.containers()) {
      if (inc_state.IsPlaced(c.id)) placed.push_back(c.id);
    }
    for (std::size_t i = 0; i < placed.size(); i += 5) {
      inc_state.Evict(placed[i]);
      fresh_state.Evict(placed[i]);
    }

    // Both schedulers see the same pending set (evictees + arrivals).
    std::vector<ContainerId> pending;
    for (const auto& c : wl.containers()) {
      if (!inc_state.IsPlaced(c.id)) pending.push_back(c.id);
    }
    const sim::ScheduleRequest request{&wl, &pending};
    const auto inc_outcome = incremental.Schedule(request, inc_state);
    core::AladdinScheduler fresh(options);  // new engine every wave
    const auto fresh_outcome = fresh.Schedule(request, fresh_state);

    EXPECT_EQ(Placements(inc_state, wl.container_count()),
              Placements(fresh_state, wl.container_count()))
        << "wave " << wave;
    EXPECT_EQ(inc_outcome.unplaced, fresh_outcome.unplaced)
        << "wave " << wave;
    ASSERT_TRUE(inc_state.CheckConsistency());
  }
}

// Pooled scratch identity: one persistent scheduler reuses its arena,
// repair scratch, workspaces, and CSR across waves; a throwaway engine
// built fresh per wave starts cold each time. The pooling is memory reuse
// only — identical placements and outcomes, wave after wave, or scratch
// state is leaking across ticks.
TEST(PooledScratch, PersistentEngineMatchesFreshEnginePerWave) {
  const Topology topo =
      Topology::Uniform(48, ResourceVector::Cores(32, 64), 8, 3);
  Workload wl;
  Rng rng(4711);

  const core::AladdinOptions options;  // defaults: repair + compaction on
  core::AladdinScheduler pooled(options);  // warm scratch across waves
  cluster::ClusterState pooled_state = wl.MakeState(topo);
  cluster::ClusterState fresh_state = wl.MakeState(topo);

  for (int wave = 0; wave < 6; ++wave) {
    const std::vector<ContainerId> arrivals = GrowWave(wl, rng, 6);
    pooled_state.SyncWorkloadGrowth();
    fresh_state.SyncWorkloadGrowth();

    std::vector<ContainerId> placed;
    for (const auto& c : wl.containers()) {
      if (pooled_state.IsPlaced(c.id)) placed.push_back(c.id);
    }
    for (std::size_t i = 0; i < placed.size(); i += 4) {
      pooled_state.Evict(placed[i]);
      fresh_state.Evict(placed[i]);
    }

    std::vector<ContainerId> pending;
    for (const auto& c : wl.containers()) {
      if (!pooled_state.IsPlaced(c.id)) pending.push_back(c.id);
    }
    const sim::ScheduleRequest request{&wl, &pending};
    const auto pooled_outcome = pooled.Schedule(request, pooled_state);
    core::AladdinScheduler fresh(options);  // cold scratch every wave
    const auto fresh_outcome = fresh.Schedule(request, fresh_state);

    EXPECT_EQ(Placements(pooled_state, wl.container_count()),
              Placements(fresh_state, wl.container_count()))
        << "wave " << wave;
    EXPECT_EQ(pooled_outcome.unplaced, fresh_outcome.unplaced)
        << "wave " << wave;
    // No search-counter assertion: the persistent engine's IL memo (and
    // incremental network) legitimately prune differently from a cold
    // engine — placements are the contract on this axis (see DESIGN §5).
    ASSERT_TRUE(pooled_state.CheckConsistency());
  }
}

TEST(ParallelSearch, PlacementsAndCountersMatchSerial) {
  const Topology topo =
      Topology::Uniform(40, ResourceVector::Cores(32, 64), 8, 3);
  struct Policy {
    bool il, dl;
  };
  for (const Policy policy : {Policy{false, false}, Policy{true, false},
                              Policy{true, true}}) {
    for (const int threads : {2, 4}) {
      Workload wl;
      Rng rng(99);
      (void)GrowWave(wl, rng, 24);
      std::vector<ContainerId> pending;
      for (const auto& c : wl.containers()) pending.push_back(c.id);
      const sim::ScheduleRequest request{&wl, &pending};

      core::AladdinOptions serial_options;
      serial_options.enable_il = policy.il;
      serial_options.enable_dl = policy.dl;
      serial_options.threads = 1;
      core::AladdinOptions parallel_options = serial_options;
      parallel_options.threads = threads;

      cluster::ClusterState serial_state = wl.MakeState(topo);
      cluster::ClusterState parallel_state = wl.MakeState(topo);
      core::AladdinScheduler serial(serial_options);
      core::AladdinScheduler parallel(parallel_options);
      const auto serial_outcome = serial.Schedule(request, serial_state);
      const auto parallel_outcome = parallel.Schedule(request, parallel_state);

      const std::string label = "il=" + std::to_string(policy.il) +
                                " dl=" + std::to_string(policy.dl) +
                                " threads=" + std::to_string(threads);
      EXPECT_EQ(Placements(serial_state, wl.container_count()),
                Placements(parallel_state, wl.container_count()))
          << label;
      EXPECT_EQ(serial_outcome.unplaced, parallel_outcome.unplaced) << label;
      // The determinism contract covers the instrumentation too.
      EXPECT_EQ(serial_outcome.explored_paths, parallel_outcome.explored_paths)
          << label;
      EXPECT_EQ(serial_outcome.il_prunes, parallel_outcome.il_prunes) << label;
      EXPECT_EQ(serial_outcome.dl_stops, parallel_outcome.dl_stops) << label;
    }
  }
}

// ------------------------------------------------- resolver equivalence ----

// Scripted mixed cluster: deployments, batch jobs, deletions, a node
// removal, driven through a ClusterSimulator.
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
    if (t == 3) sim.ScaleDown("svc-1", 2);
    if (t == 5) sim.RemoveNode("node-7");  // forces a topology rebuild
    sim.Tick();
  }
}

std::map<k8s::PodUid, std::string> FinalBindings(k8s::ModelAdaptor& adaptor) {
  std::map<k8s::PodUid, std::string> out;
  for (k8s::PodUid uid : adaptor.BoundPods()) {
    out[uid] = adaptor.FindPod(uid)->node;
  }
  return out;
}

std::map<k8s::PodUid, std::string> FinalBindings(k8s::ClusterSimulator& sim) {
  return FinalBindings(sim.adaptor());
}

// Two model adaptors fed the identical event stream, one served by a
// persistent Resolver (state, network and free index synced tick to tick),
// the other by a Resolver constructed fresh before every Resolve() — whose
// first tick always builds its state from the pod store, the rebuild
// oracle. The cluster is small enough that capacity freed by completions
// and deletions decides later placements, and priorities make the solver
// preempt. Every tick's bindings and counts, and the final pod->node map,
// must match.
TEST(ResolverEquivalence, IncrementalMatchesRebuildPerTick) {
  k8s::ResolverOptions options;
  options.aladdin = k8s::Resolver::DefaultOptions();
  k8s::ModelAdaptor persistent_adaptor;
  k8s::ModelAdaptor fresh_adaptor;
  k8s::Resolver persistent(persistent_adaptor, options);
  std::optional<k8s::Resolver> fresh;

  const auto deliver = [&](const k8s::Event& event) {
    persistent_adaptor.OnEvent(event);
    fresh_adaptor.OnEvent(event);
  };
  for (int n = 0; n < 8; ++n) {
    k8s::Event event;
    event.type = k8s::EventType::kNodeAdded;
    event.node.name = "node-" + std::to_string(n);
    event.node.capacity = cluster::ResourceVector::Cores(16, 32);
    event.node.rack = "rack-" + std::to_string(n / 2);
    event.node.zone = "zone-" + std::to_string(n / 4);
    deliver(event);
  }

  Rng rng(7);
  k8s::PodUid next_uid = 1;
  const auto add_pod = [&](const std::string& name, const k8s::PodSpec& spec) {
    k8s::Event event;
    event.type = k8s::EventType::kPodAdded;
    event.pod.uid = next_uid++;
    event.pod.name = name;
    event.pod.spec = spec;
    deliver(event);
  };
  const auto delete_pod = [&](k8s::PodUid uid) {
    k8s::Event event;
    event.type = k8s::EventType::kPodDeleted;
    event.pod.uid = uid;
    deliver(event);
  };

  std::vector<k8s::PodUid> expired;
  std::vector<k8s::PodUid> fresh_expired;
  std::size_t preemptions = 0;
  std::size_t unschedulable = 0;
  for (std::int64_t tick = 1; tick <= 10; ++tick) {
    const std::string label = "tick " + std::to_string(tick);
    // Batch tasks whose lifetime elapsed complete first.
    persistent_adaptor.TakeExpired(tick, expired);
    fresh_adaptor.TakeExpired(tick, fresh_expired);
    ASSERT_EQ(expired, fresh_expired) << label;
    for (const k8s::PodUid uid : expired) delete_pod(uid);

    for (int d = 0; d < 3; ++d) {
      k8s::PodSpec spec;
      spec.app = "svc-" + std::to_string(tick) + "-" + std::to_string(d);
      spec.requests = cluster::ResourceVector::Cores(rng.UniformInt(1, 6),
                                                     rng.UniformInt(2, 12));
      spec.priority = rng.Bernoulli(0.3)
                          ? static_cast<cluster::Priority>(rng.UniformInt(1, 3))
                          : 0;
      spec.anti_affinity_within = rng.Bernoulli(0.6);
      const std::int64_t replicas = rng.UniformInt(1, 4);
      for (std::int64_t r = 0; r < replicas; ++r) {
        add_pod(spec.app + "-" + std::to_string(r), spec);
      }
    }
    k8s::PodSpec task;
    task.app = "job-" + std::to_string(tick);
    task.requests = cluster::ResourceVector::Cores(1, 2);
    task.lifetime_ticks = 2;
    for (int i = 0; i < 10; ++i) {
      add_pod(task.app + "-task-" + std::to_string(i), task);
    }
    // One odd-sized task: a run of one between runs of identical requests.
    task.requests = cluster::ResourceVector::Cores(2, 4);
    add_pod(task.app + "-task-big", task);

    if (tick % 3 == 0) {  // delete the two newest bound long-lived pods
      std::vector<k8s::PodUid> bound;
      for (const k8s::PodUid uid : persistent_adaptor.BoundPods()) {
        if (!persistent_adaptor.FindPod(uid)->spec.short_lived()) {
          bound.push_back(uid);
        }
      }
      for (std::size_t i = 0; i < 2 && i < bound.size(); ++i) {
        delete_pod(bound[bound.size() - 1 - i]);
      }
    }
    if (tick == 6) {  // forces a topology rebuild in the persistent resolver
      k8s::Event event;
      event.type = k8s::EventType::kNodeRemoved;
      event.node.name = "node-5";
      deliver(event);
    }

    std::vector<k8s::Binding> persistent_bindings;
    std::vector<k8s::Binding> fresh_bindings;
    const k8s::ResolveStats a =
        persistent.Resolve(tick, &persistent_bindings);
    fresh.emplace(fresh_adaptor, options);
    const k8s::ResolveStats b = fresh->Resolve(tick, &fresh_bindings);

    ASSERT_EQ(persistent_bindings.size(), fresh_bindings.size()) << label;
    for (std::size_t i = 0; i < persistent_bindings.size(); ++i) {
      EXPECT_EQ(persistent_bindings[i].pod, fresh_bindings[i].pod)
          << label << " binding " << i;
      EXPECT_EQ(persistent_bindings[i].node, fresh_bindings[i].node)
          << label << " binding " << i;
    }
    EXPECT_EQ(a.new_bindings, b.new_bindings) << label;
    EXPECT_EQ(a.migrations, b.migrations) << label;
    EXPECT_EQ(a.preemptions, b.preemptions) << label;
    EXPECT_EQ(a.unschedulable, b.unschedulable) << label;
    EXPECT_EQ(FinalBindings(persistent_adaptor), FinalBindings(fresh_adaptor))
        << label;
    preemptions += a.preemptions;
    unschedulable += a.unschedulable;
  }
  // The script must reach the paths it claims to cover: a full cluster
  // and priority preemption.
  EXPECT_GT(unschedulable, 0u);
  EXPECT_GT(preemptions, 0u);
}

TEST(ResolverEquivalence, ParallelResolverMatchesSerial) {
  k8s::ResolverOptions serial_options;
  serial_options.aladdin = k8s::Resolver::DefaultOptions();
  serial_options.aladdin.threads = 1;
  k8s::ResolverOptions parallel_options = serial_options;
  parallel_options.aladdin.threads = 3;

  k8s::ClusterSimulator serial(serial_options);
  k8s::ClusterSimulator parallel(parallel_options);
  serial.AddNodes(16, cluster::ResourceVector::Cores(32, 64), "node", 4, 2);
  parallel.AddNodes(16, cluster::ResourceVector::Cores(32, 64), "node", 4, 2);
  RunScript(serial, 7);
  RunScript(parallel, 7);
  EXPECT_EQ(FinalBindings(serial), FinalBindings(parallel));
}

// ------------------------------------------------------ flow substrate ----

flow::Graph LayeredGraph(std::int64_t width, VertexId& s, VertexId& t,
                         std::uint64_t seed) {
  flow::Graph g;
  s = g.AddVertex();
  t = g.AddVertex();
  const VertexId tasks = g.AddVertices(static_cast<std::size_t>(width));
  const VertexId machines = g.AddVertices(static_cast<std::size_t>(width));
  Rng rng(seed);
  for (std::int64_t i = 0; i < width; ++i) {
    const VertexId task(tasks.value() + static_cast<std::int32_t>(i));
    g.AddArc(s, task, rng.UniformInt(1, 8));
    for (int d = 0; d < 4; ++d) {
      const VertexId machine(machines.value() + static_cast<std::int32_t>(
                                                    rng.UniformInt(0, width - 1)));
      g.AddArc(task, machine, rng.UniformInt(1, 8), rng.UniformInt(0, 48));
    }
  }
  for (std::int64_t i = 0; i < width; ++i) {
    const VertexId machine(machines.value() + static_cast<std::int32_t>(i));
    g.AddArc(machine, t, rng.UniformInt(2, 16));
  }
  return g;
}

// ------------------------------------------------ zero-alloc witness ----

std::int64_t CounterValue(const char* name) {
  for (const auto& c : obs::Registry::Get().Snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

// Solver-level witness: a reused Workspace grows its buffers on the first
// run over a graph and never again — every later BeginRun lands in the
// ws_reuse bucket. This is the zero-steady-state-allocation contract at the
// layer where the counters live.
TEST(ZeroAllocSteadyState, WorkspaceGrowthStopsAfterFirstSolve) {
  obs::Registry::Get().ResetAll();
  obs::SetMetricsEnabled(true);

  VertexId s{}, t{};
  flow::Graph g = LayeredGraph(64, s, t, 97);
  g.Freeze();
  flow::Workspace ws;

  const flow::Capacity expected = flow::Dinic(g, s, t, ws).value;
  const std::int64_t grow_warm = CounterValue("flow/ws_grow");
  const std::int64_t reuse_warm = CounterValue("flow/ws_reuse");
  EXPECT_GT(grow_warm, 0) << "first solve must size the workspace";

  for (int run = 0; run < 16; ++run) {
    g.ResetFlows();
    EXPECT_EQ(flow::Dinic(g, s, t, ws).value, expected) << "run " << run;
  }
  const std::int64_t grow_steady = CounterValue("flow/ws_grow");
  const std::int64_t reuse_steady = CounterValue("flow/ws_reuse");

  obs::SetMetricsEnabled(false);
  EXPECT_EQ(grow_steady, grow_warm)
      << "a steady-state solve grew a workspace buffer";
  EXPECT_GE(reuse_steady - reuse_warm, 16)
      << "every steady-state solve must land in the reuse bucket";
}

// The resolver runs no flow solver: Aladdin searches its aggregated network
// directly, so ten resolver ticks of deployments and batch jobs never start
// a flow::Workspace run (neither counter moves) while the scheduler does
// work (core/search_explored advances).
TEST(ZeroAllocSteadyState, ResolverTicksRunNoFlowSolver) {
  obs::Registry::Get().ResetAll();
  obs::SetMetricsEnabled(true);

  k8s::ResolverOptions options;
  options.aladdin = k8s::Resolver::DefaultOptions();
  k8s::ClusterSimulator sim(options);
  sim.AddNodes(24, cluster::ResourceVector::Cores(32, 64), "node", 4, 2);

  for (int t = 0; t < 10; ++t) {
    k8s::PodSpec spec;
    spec.requests = cluster::ResourceVector::Cores(2, 4);
    sim.SubmitDeployment("svc-" + std::to_string(t), 3, spec);
    sim.SubmitBatchJob("job-" + std::to_string(t), 10,
                       cluster::ResourceVector::Cores(1, 2),
                       /*lifetime_ticks=*/2);
    sim.Tick();
  }
  const std::int64_t grow = CounterValue("flow/ws_grow");
  const std::int64_t reuse = CounterValue("flow/ws_reuse");
  const std::int64_t explored = CounterValue("core/search_explored");

  obs::SetMetricsEnabled(false);
  EXPECT_EQ(grow, 0) << "a resolver tick grew a flow workspace";
  EXPECT_EQ(reuse, 0) << "a resolver tick ran a flow solver";
  EXPECT_GT(explored, 0) << "the ticks must exercise the scheduler";
}

}  // namespace
}  // namespace aladdin
