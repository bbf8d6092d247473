// Microbenchmarks (google-benchmark) for the flow substrate — SPFA vs
// Bellman–Ford shortest paths, Dinic vs Edmonds–Karp max flow, min-cost
// max-flow throughput (the Firmament baseline's solver), CSR adjacency —
// and for the scheduler's hot layers: the group waterfall, the
// free-capacity index re-key, the IL memo pool and the k8s tick layers
// outside the solver (expiry step, EHC drain). Not a paper figure; this
// pins the costs the scheduling-level latency numbers (Fig. 12) are built
// on.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/free_index.h"
#include "common/rng.h"
#include "core/scheduler.h"
#include "flow/max_flow.h"
#include "flow/min_cost_flow.h"
#include "flow/shortest_path.h"
#include "flow/workspace.h"
#include "k8s/adaptor.h"
#include "k8s/events.h"
#include "sim/experiment.h"
#include "trace/arrival.h"

using namespace aladdin;

namespace {

// Layered random DAG shaped like a scheduling graph: source -> T -> N ->
// sink, with `width` vertices per layer and `degree` arcs per task vertex.
flow::Graph MakeLayeredGraph(std::int64_t width, std::int64_t degree,
                             VertexId& source, VertexId& sink,
                             std::uint64_t seed) {
  flow::Graph graph;
  source = graph.AddVertex();
  sink = graph.AddVertex();
  const VertexId tasks = graph.AddVertices(static_cast<std::size_t>(width));
  const VertexId machines =
      graph.AddVertices(static_cast<std::size_t>(width));
  Rng rng(seed);
  for (std::int64_t i = 0; i < width; ++i) {
    const VertexId t(tasks.value() + static_cast<std::int32_t>(i));
    graph.AddArc(source, t, rng.UniformInt(1, 8), 0);
    for (std::int64_t d = 0; d < degree; ++d) {
      const VertexId n(machines.value() +
                       static_cast<std::int32_t>(rng.UniformInt(0, width - 1)));
      graph.AddArc(t, n, rng.UniformInt(1, 8), rng.UniformInt(0, 63));
    }
  }
  for (std::int64_t i = 0; i < width; ++i) {
    const VertexId n(machines.value() + static_cast<std::int32_t>(i));
    graph.AddArc(n, sink, rng.UniformInt(4, 32), 0);
  }
  return graph;
}

void BM_Spfa(benchmark::State& state) {
  VertexId s, t;
  flow::Graph graph = MakeLayeredGraph(state.range(0), 8, s, t, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flow::Spfa(graph, s));
  }
}
BENCHMARK(BM_Spfa)->Arg(256)->Arg(1024)->Arg(4096);

void BM_BellmanFord(benchmark::State& state) {
  VertexId s, t;
  flow::Graph graph = MakeLayeredGraph(state.range(0), 8, s, t, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flow::BellmanFord(graph, s));
  }
}
BENCHMARK(BM_BellmanFord)->Arg(256)->Arg(1024);

void BM_Dinic(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    VertexId s, t;
    flow::Graph graph = MakeLayeredGraph(state.range(0), 8, s, t, 1);
    state.ResumeTiming();
    benchmark::DoNotOptimize(flow::Dinic(graph, s, t));
  }
}
BENCHMARK(BM_Dinic)->Arg(256)->Arg(1024)->Arg(4096);

void BM_EdmondsKarp(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    VertexId s, t;
    flow::Graph graph = MakeLayeredGraph(state.range(0), 8, s, t, 1);
    state.ResumeTiming();
    benchmark::DoNotOptimize(flow::EdmondsKarp(graph, s, t));
  }
}
BENCHMARK(BM_EdmondsKarp)->Arg(256)->Arg(1024);

void BM_MinCostMaxFlow(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    VertexId s, t;
    flow::Graph graph = MakeLayeredGraph(state.range(0), 8, s, t, 1);
    state.ResumeTiming();
    benchmark::DoNotOptimize(flow::MinCostMaxFlow(graph, s, t));
  }
}
BENCHMARK(BM_MinCostMaxFlow)->Arg(256)->Arg(1024);

// ------------------------------------------- adjacency layout A/B ----
// The CSR win in isolation: walk every out-arc list, summing arc ids.
// Csr iterates the frozen flat offsets[]/arc_ids[] arrays; Nested iterates
// a vector<vector<int32>> replica of the same adjacency (the pre-CSR
// layout, one heap block and one pointer-chase per vertex). Identical
// visit order and sum — the delta is pure memory layout.

void BM_AdjacencyScanCsr(benchmark::State& state) {
  VertexId s, t;
  const flow::Graph graph = MakeLayeredGraph(state.range(0), 8, s, t, 1);
  graph.Freeze();
  const auto n = static_cast<std::int32_t>(graph.vertex_count());
  for (auto _ : state) {
    std::int64_t sum = 0;
    for (std::int32_t v = 0; v < n; ++v) {
      for (const std::int32_t a : graph.OutArcs(VertexId(v))) sum += a;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_AdjacencyScanCsr)->Arg(1024)->Arg(4096);

void BM_AdjacencyScanNested(benchmark::State& state) {
  VertexId s, t;
  const flow::Graph graph = MakeLayeredGraph(state.range(0), 8, s, t, 1);
  graph.Freeze();
  std::vector<std::vector<std::int32_t>> nested(graph.vertex_count());
  const auto n = static_cast<std::int32_t>(graph.vertex_count());
  for (std::int32_t v = 0; v < n; ++v) {
    const auto arcs = graph.OutArcs(VertexId(v));
    nested[static_cast<std::size_t>(v)].assign(arcs.begin(), arcs.end());
  }
  for (auto _ : state) {
    std::int64_t sum = 0;
    for (std::int32_t v = 0; v < n; ++v) {
      for (const std::int32_t a : nested[static_cast<std::size_t>(v)]) {
        sum += a;
      }
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_AdjacencyScanNested)->Arg(1024)->Arg(4096);

// -------------------------------- paper-scale aggregated network ----
// The shape of Aladdin's aggregated network at evaluation scale: app
// vertices fan into a sub-cluster -> rack -> machine aggregation tree over
// `machines` machines. Built and frozen once; each iteration re-solves it
// (ResetFlows + Dinic over the frozen CSR with a reused workspace). The
// scheduler itself runs no flow solver; this pins Dinic's cost on the
// network shape the paper draws.
flow::Graph MakeAggregatedNetwork(std::int64_t machines, VertexId& source,
                                  VertexId& sink) {
  constexpr std::int64_t kMachinesPerRack = 40;
  constexpr std::int64_t kRacksPerSubCluster = 10;
  constexpr std::int64_t kApps = 256;
  const std::int64_t racks = (machines + kMachinesPerRack - 1) /
                             kMachinesPerRack;
  const std::int64_t subs = (racks + kRacksPerSubCluster - 1) /
                            kRacksPerSubCluster;

  flow::Graph graph;
  source = graph.AddVertex();
  sink = graph.AddVertex();
  const VertexId apps = graph.AddVertices(static_cast<std::size_t>(kApps));
  const VertexId sub0 = graph.AddVertices(static_cast<std::size_t>(subs));
  const VertexId rack0 = graph.AddVertices(static_cast<std::size_t>(racks));
  const VertexId mach0 =
      graph.AddVertices(static_cast<std::size_t>(machines));

  Rng rng(17);
  for (std::int64_t a = 0; a < kApps; ++a) {
    const VertexId app(apps.value() + static_cast<std::int32_t>(a));
    graph.AddArc(source, app, rng.UniformInt(8, 64));
    for (int d = 0; d < 4; ++d) {  // each app spans a few sub-clusters
      const VertexId sub(sub0.value() + static_cast<std::int32_t>(
                                            rng.UniformInt(0, subs - 1)));
      graph.AddArc(app, sub, rng.UniformInt(8, 32));
    }
  }
  for (std::int64_t r = 0; r < racks; ++r) {
    const VertexId sub(sub0.value() +
                       static_cast<std::int32_t>(r / kRacksPerSubCluster));
    const VertexId rack(rack0.value() + static_cast<std::int32_t>(r));
    graph.AddArc(sub, rack, rng.UniformInt(16, 128));
  }
  for (std::int64_t m = 0; m < machines; ++m) {
    const VertexId rack(rack0.value() +
                        static_cast<std::int32_t>(m / kMachinesPerRack));
    const VertexId machine(mach0.value() + static_cast<std::int32_t>(m));
    graph.AddArc(rack, machine, rng.UniformInt(1, 8));
    graph.AddArc(machine, sink, rng.UniformInt(1, 8));
  }
  return graph;
}

void BM_AggregatedNetworkResolve(benchmark::State& state) {
  VertexId s, t;
  flow::Graph graph = MakeAggregatedNetwork(state.range(0), s, t);
  graph.Freeze();
  flow::Workspace ws;
  for (auto _ : state) {
    graph.ResetFlows();
    benchmark::DoNotOptimize(flow::Dinic(graph, s, t, ws));
  }
}
BENCHMARK(BM_AggregatedNetworkResolve)->Arg(2000)->Arg(10000);

// ------------------------------- group waterfall vs per-pod search ----
// End-to-end A/B of the group-decomposed pathfinder: one whole-trace
// Aladdin solve with the sorted-capacity waterfall on (arg 1) vs the
// per-container best-fit walk (arg 0). Neither arm runs a flow solver.
// Placements are bit-identical by construction (the waterfall replays the
// walk exactly); the delta is the grouped scan over flat free/fits arrays
// vs one IL/DL search per pod.
void BM_GroupWaterfallVsWalk(benchmark::State& state) {
  const trace::Workload workload = sim::MakeBenchWorkload(0.02, 42);
  const cluster::Topology topology =
      trace::MakeAlibabaCluster(sim::BenchMachineCount(0.02));
  const auto arrival = trace::MakeArrivalSequence(
      workload, trace::ArrivalOrder::kRandom, 1);
  core::AladdinOptions options;
  options.group_waterfall = state.range(0) != 0;
  for (auto _ : state) {
    state.PauseTiming();
    cluster::ClusterState cluster_state = workload.MakeState(topology);
    core::AladdinScheduler scheduler(options);
    sim::ScheduleRequest request;
    request.workload = &workload;
    request.arrival = &arrival;
    state.ResumeTiming();
    benchmark::DoNotOptimize(scheduler.Schedule(request, cluster_state));
  }
}
BENCHMARK(BM_GroupWaterfallVsWalk)->Arg(0)->Arg(1);

// ------------------------------------------ free-capacity index ----
// One re-key pair per iteration on 10k homogeneous machines, about 70% of
// them idle: a 1-core container lands on a random machine and leaves again,
// so most re-keys take a machine out of the all-idle run and put it back —
// the run where thousands of keys share one free value. The timed loop
// includes the two state mutations the re-keys follow.
void BM_FreeIndexRekey(benchmark::State& state) {
  constexpr std::int64_t kMachines = 10000;
  const cluster::Topology topology = cluster::Topology::Uniform(
      kMachines, cluster::ResourceVector::Cores(32, 64));
  trace::Workload workload;
  const auto fill = workload.AddApplication(
      "fill", 3000, cluster::ResourceVector::Cores(8, 16));
  const auto churn = workload.AddApplication(
      "churn", 1, cluster::ResourceVector::Cores(1, 2));
  cluster::ClusterState cluster_state = workload.MakeState(topology);
  Rng rng(7);
  auto random_machine = [&] {
    return cluster::MachineId(
        static_cast<std::int32_t>(rng.UniformInt(0, kMachines - 1)));
  };
  for (cluster::ContainerId c : workload.application(fill).containers) {
    const cluster::MachineId m = random_machine();
    if (cluster_state.CanPlace(c, m)) cluster_state.Deploy(c, m);
  }
  cluster::FreeIndex index;
  index.Attach(cluster_state);
  const cluster::ContainerId c = workload.application(churn).containers[0];
  for (auto _ : state) {
    const cluster::MachineId m = random_machine();
    if (!cluster_state.CanPlace(c, m)) continue;
    cluster_state.Deploy(c, m);
    index.OnChanged(m);
    cluster_state.Evict(c);
    index.OnChanged(m);
    benchmark::DoNotOptimize(index.IndexedFree(m));
  }
  state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_FreeIndexRekey);

// ------------------------------------------------------ IL memo pool ----
// One scheduling request's IL memo traffic at the shape of the 10k online
// workload: 300 apps each record failures on `range(0)` machines of a
// 10k-machine memo, then the next request's Reset() clears the arrays and
// returns them to the pool. After the first iteration every handout is a
// pooled array, so this times the steady-state reset and handout plus the
// records themselves. An instrumented online_churn run (seed 7) recorded
// failures for 282 apps per request, on 793 distinct machines per app on
// average (2,434 at most), hence the 800 arm.
void BM_IlMemoRecycle(benchmark::State& state) {
  constexpr std::int64_t kMachines = 10000;
  constexpr std::size_t kApps = 300;
  const auto failures = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  std::vector<std::size_t> machines(kApps * failures);
  for (std::size_t& m : machines) {
    m = static_cast<std::size_t>(rng.UniformInt(0, kMachines - 1));
  }
  core::IlMemo memo(static_cast<std::size_t>(kMachines));
  memo.Track(kApps);
  for (auto _ : state) {
    memo.Reset();
    for (std::size_t app = 0; app < kApps; ++app) {
      for (std::size_t f = 0; f < failures; ++f) {
        memo.Record(app, machines[app * failures + f], 1);
      }
    }
    benchmark::DoNotOptimize(memo.Pruned(kApps - 1, machines.back(), 1));
    benchmark::ClobberMemory();
  }
  state.counters["arrays"] = static_cast<double>(memo.arrays());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kApps * failures));
}
BENCHMARK(BM_IlMemoRecycle)->Arg(64)->Arg(800)->Arg(2400);

// ------------------------------------------------ k8s tick layers ----
// The simulator's per-tick bookkeeping in isolation, at the shape of the
// 10k online workload's steady state.

// Expiry step: 50k bound short-lived pods in 8 batch jobs of 6,250, one of
// which is due this tick. A job's pods hold consecutive uids, as
// SubmitBatchJob hands them out. Arg 0 sweeps the whole store (the
// pre-queue step, kept as the reference); arg 1 takes the adaptor's expiry
// queue. Both yield the same uid list. The queue arm re-queues the due
// pods untimed, so every iteration sees the same 6,250 due.
void BM_ExpiryDue(benchmark::State& state) {
  constexpr std::int64_t kPods = 50000;
  constexpr std::int64_t kJobPods = kPods / 8;
  constexpr std::int64_t kNow = 100;
  k8s::ModelAdaptor adaptor;
  for (std::int64_t uid = 1; uid <= kPods; ++uid) {
    k8s::Event event;
    event.type = k8s::EventType::kPodAdded;
    event.pod.uid = uid;
    event.pod.spec.app = "job-" + std::to_string((uid - 1) / kJobPods);
    event.pod.spec.lifetime_ticks = 3;
    event.pod.phase = k8s::PodPhase::kBound;
    event.pod.node = "node-" + std::to_string(uid % 10000);
    // Job j was bound at tick kNow - 3 + j: job 0 completes at kNow.
    event.pod.bound_at_tick = kNow - 3 + (uid - 1) / kJobPods;
    adaptor.OnEvent(event);
  }
  const bool queue = state.range(0) != 0;
  std::vector<k8s::PodUid> due;
  for (auto _ : state) {
    if (queue) {
      adaptor.TakeExpired(kNow, due);
    } else {
      due.clear();
      for (const auto& [uid, pod] : adaptor.pods()) {
        if (pod.phase != k8s::PodPhase::kBound || !pod.spec.short_lived()) {
          continue;
        }
        if (pod.bound_at_tick >= 0 &&
            kNow >= pod.bound_at_tick + pod.spec.lifetime_ticks) {
          due.push_back(uid);
        }
      }
    }
    benchmark::DoNotOptimize(due.data());
    if (queue) {
      state.PauseTiming();
      for (const k8s::PodUid uid : due) adaptor.RequeueExpiry(uid);
      state.ResumeTiming();
    }
  }
  state.counters["due"] = static_cast<double>(due.size());
}
BENCHMARK(BM_ExpiryDue)->Arg(0)->Arg(1);

// EHC drain: 16k mixed events — 8k pod adds, 6k deletes of other pods,
// 2k adds cancelled by a delete in the same batch — coalesced and
// dispatched to one no-op subscriber. Submitting is untimed.
void BM_EhcDrain(benchmark::State& state) {
  std::vector<k8s::Event> batch;
  Rng rng(11);
  for (k8s::PodUid uid = 1; uid <= 10000; ++uid) {
    k8s::Event event;
    event.type = k8s::EventType::kPodAdded;
    event.pod.uid = 100000 + uid;
    batch.push_back(event);
  }
  for (k8s::PodUid uid = 1; uid <= 6000; ++uid) {
    k8s::Event event;
    event.type = k8s::EventType::kPodDeleted;
    // The last 2k deletes cancel adds of this batch, the rest are pods
    // from earlier ticks.
    event.pod.uid = uid <= 4000 ? uid * 7 : 100000 + (uid - 4000) * 5;
    batch.push_back(event);
  }
  rng.Shuffle(batch);
  k8s::EventsHandlingCenter ehc;
  std::size_t seen = 0;
  ehc.Subscribe([&seen](const k8s::Event&) { ++seen; });
  for (auto _ : state) {
    state.PauseTiming();
    for (const k8s::Event& event : batch) ehc.Submit(event);
    state.ResumeTiming();
    benchmark::DoNotOptimize(ehc.DrainAndDispatch());
  }
  state.counters["dispatched"] = static_cast<double>(
      ehc.dispatched_total() / std::max<std::int64_t>(state.iterations(), 1));
}
BENCHMARK(BM_EhcDrain);

}  // namespace

BENCHMARK_MAIN();
