#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "arith.h"
#include "cluster/resources.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/scheduler.h"
#include "k8s/simulator.h"
#include "obs/metrics.h"
#include "obs/runtime.h"
#include "probes.h"
#include "sim/experiment.h"
#include "trace/alibaba_gen.h"
#include "trace/arrival.h"

namespace perfbench {

namespace al = aladdin;
namespace cl = aladdin::cluster;
namespace core = aladdin::core;
namespace k8s = aladdin::k8s;

namespace {

// Set-up is repeated at least kSetupMinRepeats times and until it has
// taken kSetupMinSeconds in all (at most kSetupMaxRepeats); setup_s is the
// median, so a set-up of a few milliseconds is still measured steadily.
constexpr std::size_t kSetupMinRepeats = 3;
constexpr std::size_t kSetupMaxRepeats = 41;
constexpr double kSetupMinSeconds = 3.0;
// A p90 needs this many samples beyond it (choosing-metrics rule).
constexpr std::size_t kTailBeyond = 10;

// Hands the heap a repetition freed back to the kernel, so every set-up
// and every trace_oneshot solve starts from the same process state. Without
// it a repetition reuses what the one before left: over 10 seeds the
// solve p50 spread went from 2% to 9% and the peak RSS spread from 0.4% to
// 7%.
void ReleaseFreedMemory() { malloc_trim(0); }

bool KeepSettingUp(const std::vector<double>& setup_s) {
  double total = 0.0;
  for (double v : setup_s) total += v;
  if (setup_s.size() < kSetupMinRepeats) return true;
  return setup_s.size() < kSetupMaxRepeats && total < kSetupMinSeconds;
}

// Ticks in one online window: a fixed count, the fewest that give a p90
// ten samples beyond it (a smoke run takes a handful).
std::size_t WindowTicks(const RunOptions& o) {
  return o.smoke ? 8 : MinSamplesFor(90.0, kTailBeyond);
}

// ---------------------------------------------------------------------
// Benchmark spans: recorded only in traced runs, around the calls into the
// program's public entry points.

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  int Open(const char* name) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_ns = NowNs();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void Close(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
    stack_.pop_back();
  }

  // Total duration and total self time of every span with this name, ns.
  [[nodiscard]] std::pair<double, double> Totals(
      const std::string& name) const {
    const std::vector<std::int64_t> self = SelfTimes(spans_);
    double total = 0.0;
    double self_total = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name != name) continue;
      total += static_cast<double>(spans_[i].duration_ns());
      self_total += static_cast<double>(self[i]);
    }
    return {total, self_total};
  }
  [[nodiscard]] std::size_t Count(const std::string& name) const {
    return static_cast<std::size_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [&](const Span& s) { return s.name == name; }));
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name)
      : rec_(rec), index_(rec.Open(name)) {}
  ~ScopedSpan() { rec_.Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int index_;
};

// ---------------------------------------------------------------------
// The program's own phase and counter registry, read around traced calls.

struct RegistryMark {
  std::vector<al::obs::PhaseDelta> phases;
  std::map<std::string, std::int64_t> counters;
};

RegistryMark MarkRegistry() {
  RegistryMark m;
  m.phases = al::obs::CapturePhases();
  for (const auto& c : al::obs::Registry::Get().Snapshot().counters) {
    m.counters[c.name] = c.value;
  }
  return m;
}

// Phase and counter totals accumulated over the traced requests of a run.
class LayerTotals {
 public:
  void Add(const RegistryMark& before, const RegistryMark& after) {
    for (const auto& d : al::obs::DiffPhases(before.phases, after.phases)) {
      Phase& p = phases_[d.name];
      p.ns += static_cast<double>(d.ns);
      p.calls += static_cast<double>(d.calls);
      p.exclusive = d.exclusive;
    }
    for (const auto& [name, value] : after.counters) {
      const auto it = before.counters.find(name);
      counters_[name] += static_cast<double>(
          value - (it == before.counters.end() ? 0 : it->second));
    }
    ++requests_;
  }

  [[nodiscard]] double requests() const { return requests_; }
  // Per traced request.
  [[nodiscard]] double Ms(const std::string& phase) const {
    const auto it = phases_.find(phase);
    return it == phases_.end() ? 0.0 : Ratio(it->second.ns * 1e-6, requests_);
  }
  [[nodiscard]] double Calls(const std::string& phase) const {
    const auto it = phases_.find(phase);
    return it == phases_.end() ? 0.0 : Ratio(it->second.calls, requests_);
  }
  [[nodiscard]] double Count(const std::string& counter) const {
    return Ratio(Total(counter), requests_);
  }
  [[nodiscard]] double Total(const std::string& counter) const {
    const auto it = counters_.find(counter);
    return it == counters_.end() ? 0.0 : it->second;
  }
  // Exclusive phases partition a request; their per-request sum, ms.
  [[nodiscard]] double ExclusiveMs() const {
    double ns = 0.0;
    for (const auto& [name, p] : phases_) {
      if (p.exclusive) ns += p.ns;
    }
    return Ratio(ns * 1e-6, requests_);
  }

 private:
  struct Phase {
    double ns = 0.0;
    double calls = 0.0;
    bool exclusive = false;
  };
  std::map<std::string, Phase> phases_;
  std::map<std::string, double> counters_;
  double requests_ = 0.0;
};

// ---------------------------------------------------------------------
// Reported metrics.

// Per-layer values of a traced run, by metric name.
using Layers = std::map<std::string, double>;

// Every per-layer metric in report order, with its unit (BENCHMARK.json's
// per_layer list). A workload that does not exercise a layer reports 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"k8s.events_ms", "ms"},
    {"k8s.sync_state_ms", "ms"},
    {"k8s.reconcile_ms", "ms"},
    {"k8s.events_dispatched", "count"},
    {"k8s.events_coalesced", "count"},
    {"k8s.live_pods", "count"},
    {"k8s.snapshot_containers", "count"},
    {"k8s.snapshot_per_live_pod", "ratio"},
    {"k8s.tick_drift", "ratio"},
    {"k8s.rss_growth_mb", "MB"},
    {"k8s.submit_ms", "ms"},
    {"core.weights_ms", "ms"},
    {"core.net_sync_ms", "ms"},
    {"core.net_build_ms", "ms"},
    {"core.net_sync_dirty", "count"},
    {"core.augment_ms", "ms"},
    {"core.group_walk_ms", "ms"},
    {"core.group_walk_calls", "count"},
    {"core.group_placed", "count"},
    {"core.find_machine_ms", "ms"},
    {"core.find_machine_calls", "count"},
    {"core.search_explored", "count"},
    {"core.search_il_prunes", "count"},
    {"core.search_dl_stops", "count"},
    {"core.explored_per_placed", "count"},
    {"core.solve_thread_cpu_s", "s"},
    {"core.caller_offcpu_s", "s"},
    {"core.pool_cpu_s", "s"},
    {"core.pooled_solve_ms", "ms"},
    {"core.pool_slowdown", "ratio"},
    {"core.repair_ms", "ms"},
    {"core.compact_ms", "ms"},
    {"core.migrations", "count"},
    {"core.task_ms", "ms"},
    {"core.task_placed", "count"},
    {"core.shard_route_ms", "ms"},
    {"core.shard_sync_ms", "ms"},
    {"core.shard_merge_ms", "ms"},
    {"core.shard_solve_ms", "ms"},
    {"core.shard_solve_sum_ms", "ms"},
    {"core.shard_parallelism", "ratio"},
    {"core.shard_routed_skew", "ratio"},
    {"trace.generate_s", "s"},
    {"trace.arrival_ms", "ms"},
    {"cluster.make_state_ms", "ms"},
    {"cluster.audit_ms", "ms"},
    {"obs.tracing_overhead_pct", "%"},
    {"obs.phase_coverage_pct", "%"},
    {"obs.request_self_ms", "ms"},
    {"obs.harness_ms", "ms"},
    {"quality.unplaced_pct", "%"},
    {"quality.disruptions", "count"},
};

std::vector<Metric> EmitLayers(const Layers& values) {
  std::vector<Metric> out;
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = values.find(m.name);
    out.push_back({m.name, it == values.end() ? 0.0 : it->second, m.unit});
  }
  ALADDIN_CHECK(std::all_of(values.begin(), values.end(), [](const auto& v) {
    return std::any_of(std::begin(kLayerMetrics), std::end(kLayerMetrics),
                       [&](const LayerMetric& m) { return v.first == m.name; });
  })) << "a per-layer value has no entry in kLayerMetrics";
  return out;
}

// What an untraced run measured, for the end-to-end metrics.
struct EndToEnd {
  std::vector<double> request_ms;  // one per tick or solve
  std::vector<double> setup_s;
  double window_s = 0.0;
  double window_cpu_s = 0.0;
  double bound = 0.0;  // pods bound in the window
  double unplaced_pct = 0.0;
  double machines_used = 0.0;
};

std::vector<Metric> EmitEndToEnd(const EndToEnd& e) {
  return {
      {"tick_ms_p50", Percentile(e.request_ms, 50.0), "ms"},
      {"tick_ms_p90", Percentile(e.request_ms, 90.0), "ms"},
      {"pods_per_s", Ratio(e.bound, e.window_s), "1/s"},
      {"cpu_us_per_pod", Ratio(e.window_cpu_s * 1e6, e.bound), "us"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"setup_s", Median(e.setup_s), "s"},
      {"placed_pct", 100.0 - e.unplaced_pct, "%"},
      {"machines_used", e.machines_used, "count"},
  };
}

// Per-request CPU split: the caller thread vs every other thread.
struct CpuSplit {
  double wall_s = 0.0;
  double thread_cpu_s = 0.0;
  double process_cpu_s = 0.0;

  void Add(double wall, double thread_cpu, double process_cpu) {
    wall_s += wall;
    thread_cpu_s += thread_cpu;
    process_cpu_s += process_cpu;
  }
};

void AddCpuMetrics(const CpuSplit& cpu, double requests, Layers& out) {
  out["core.solve_thread_cpu_s"] = Ratio(cpu.thread_cpu_s, requests);
  out["core.caller_offcpu_s"] =
      Ratio(OffCpu(cpu.wall_s, cpu.thread_cpu_s), requests);
  out["core.pool_cpu_s"] = Ratio(
      OtherThreadsCpu(cpu.process_cpu_s, cpu.thread_cpu_s), requests);
}

// Per-layer metrics every workload reports from the registry, zero where
// the workload does not exercise the layer.
void AddRegistryMetrics(const LayerTotals& t, double lla_placed,
                        Layers& out) {
  out["k8s.events_ms"] = t.Ms("k8s/events");
  out["k8s.sync_state_ms"] = t.Ms("k8s/sync_state");
  out["k8s.reconcile_ms"] = t.Ms("k8s/reconcile");
  out["k8s.events_dispatched"] = t.Count("k8s/events_dispatched");
  out["k8s.events_coalesced"] = t.Count("k8s/events_coalesced");
  out["core.weights_ms"] = t.Ms("core/weights");
  out["core.net_sync_ms"] = t.Ms("core/net_sync");
  out["core.net_build_ms"] = t.Ms("core/net_build");
  out["core.net_sync_dirty"] = t.Count("core/net_sync_dirty");
  out["core.augment_ms"] = t.Ms("core/augment");
  out["core.group_walk_ms"] = t.Ms("core/group_walk");
  out["core.group_walk_calls"] = t.Calls("core/group_walk");
  out["core.group_placed"] = t.Count("core/group_placed");
  out["core.find_machine_ms"] = t.Ms("core/find_machine");
  out["core.find_machine_calls"] = t.Calls("core/find_machine");
  out["core.search_explored"] = t.Count("core/search_explored");
  out["core.search_il_prunes"] = t.Count("core/search_il_prunes");
  out["core.search_dl_stops"] = t.Count("core/search_dl_stops");
  out["core.explored_per_placed"] =
      Ratio(t.Total("core/search_explored"), lla_placed);
  out["core.repair_ms"] = t.Ms("core/repair");
  out["core.compact_ms"] = t.Ms("core/compact");
  out["core.migrations"] = t.Count("core/migrations");
  out["core.task_ms"] = t.Ms("core/task");
  out["core.task_placed"] = t.Count("core/task_placed");
  out["core.shard_route_ms"] = t.Ms("core/shard_route");
  out["core.shard_sync_ms"] = t.Ms("core/shard_sync");
  out["core.shard_merge_ms"] = t.Ms("core/shard_merge");
}

// Tracing health and the part of a request no program phase covers, from
// the traced requests (`cpu` holds their wall time) and the per-request
// rates of the traced and untraced halves of the window.
void AddTickMetrics(const CpuSplit& cpu,
                    const std::vector<double>& rate_untraced,
                    const std::vector<double>& rate_traced,
                    const LayerTotals& t, Layers& out) {
  const double request_ms = Ratio(cpu.wall_s * 1e3, t.requests());
  out["obs.tracing_overhead_pct"] =
      OverheadPct(Median(rate_untraced), Median(rate_traced));
  out["obs.phase_coverage_pct"] = Ratio(t.ExclusiveMs(), request_ms) * 100.0;
  out["obs.request_self_ms"] = SelfOf(request_ms, {t.ExclusiveMs()});
}

// Mean wall time of the benchmark's own end-of-run audit, and the
// harness's own cost per request: the self time of the `frame` spans
// (the online window, one trace_oneshot solve), i.e. the time spent in
// none of the program calls they enclose.
void AddHarnessMetrics(const SpanRecorder& spans, const char* frame,
                       double requests, Layers& out) {
  out["cluster.audit_ms"] = Ratio(spans.Totals("audit").first * 1e-6,
                                  static_cast<double>(spans.Count("audit")));
  out["obs.harness_ms"] = Ratio(spans.Totals(frame).second * 1e-6, requests);
}

// Placement quality that is legitimately zero on some workloads, so it
// cannot be an end-to-end metric with a relative bound. Disruptions are
// migrations plus preemptions per request.
void AddQualityMetrics(double unplaced_pct, double disruptions,
                       Layers& out) {
  out["quality.unplaced_pct"] = unplaced_pct;
  out["quality.disruptions"] = disruptions;
}

void Fact(RunReport& r, const std::string& key, const std::string& value) {
  r.facts.emplace_back(key, value);
}

// ---------------------------------------------------------------------
// Online workloads: one closed-loop client over k8s::ClusterSimulator.

struct OnlineSpec {
  std::size_t nodes = 0;
  std::size_t lla_wave = 0;    // long-lived pods submitted per tick
  std::size_t batch_wave = 0;  // batch tasks per tick (1 CPU / 2 GB, 2 ticks)
  int shards = 0;
  double lla_share = 0.55;     // LLA cores held at this share of capacity
};

OnlineSpec SpecFor(const RunOptions& o) {
  OnlineSpec s;
  if (o.workload == "online_churn") {
    s.nodes = o.smoke ? 200 : 10000;
    s.lla_wave = o.smoke ? 40 : 2000;
    s.batch_wave = o.smoke ? 120 : 6000;
  } else {  // sharded_lla
    // Smoke keeps four zones of 400 nodes so all four shards get machines.
    s.nodes = o.smoke ? 1600 : 20000;
    s.lla_wave = o.smoke ? 320 : 4000;
    s.shards = 4;
  }
  return s;
}

constexpr std::int64_t kNodeCores = 32;
constexpr std::int64_t kNodeMemGib = 64;

class OnlineClient {
 public:
  OnlineClient(const OnlineSpec& spec, std::uint64_t seed)
      : spec_(spec), sim_(Options(spec)), rng_(seed) {
    target_millis_ = static_cast<std::int64_t>(
        spec.lla_share * static_cast<double>(spec.nodes) *
        static_cast<double>(kNodeCores) * 1000.0);
  }

  static k8s::ResolverOptions Options(const OnlineSpec& spec) {
    k8s::ResolverOptions o;
    o.aladdin = k8s::Resolver::DefaultOptions();
    // No pool: the search (and, with shards, the shard solves) run on the
    // calling thread. Pools at nproc made the tick's wall time follow the
    // host's CPU steal, which they themselves drove up (README.md).
    o.aladdin.threads = 1;
    o.shards = spec.shards;
    return o;
  }

  void AddNodes() {
    sim_.AddNodes(spec_.nodes,
                  cl::ResourceVector::Cores(kNodeCores, kNodeMemGib));
  }

  // The client side of one loop iteration is Submit() then Depart(): a
  // wave of LLA deployments (bench_online's spec mix) and the batch job,
  // then deletion of the oldest deployments down to the target share.
  void Submit(SpanRecorder& spans) {
    ScopedSpan span(spans, "submit");
    arrivals_.clear();
    std::size_t submitted = 0;
    while (submitted < spec_.lla_wave) {
      const auto replicas = static_cast<std::size_t>(rng_.UniformInt(1, 12));
      k8s::PodSpec pod;
      pod.requests = cl::ResourceVector::Cores(rng_.UniformInt(1, 8),
                                               rng_.UniformInt(2, 16));
      pod.priority = rng_.Bernoulli(0.15)
                         ? static_cast<cl::Priority>(rng_.UniformInt(1, 3))
                         : 0;
      pod.anti_affinity_within = rng_.Bernoulli(0.7);
      Deployment d;
      d.uids = sim_.SubmitDeployment("lla-" + std::to_string(app_counter_++),
                                     replicas, pod);
      d.millis = pod.requests.cpu_millis() *
                 static_cast<std::int64_t>(replicas);
      live_millis_ += d.millis;
      arrivals_.insert(arrivals_.end(), d.uids.begin(), d.uids.end());
      live_.push_back(std::move(d));
      submitted += replicas;
    }
    if (spec_.batch_wave > 0) {
      const std::vector<k8s::PodUid> tasks = sim_.SubmitBatchJob(
          "batch-" + std::to_string(job_counter_++), spec_.batch_wave,
          cl::ResourceVector::Cores(1, 2), /*lifetime_ticks=*/2);
      arrivals_.insert(arrivals_.end(), tasks.begin(), tasks.end());
    }
    books_.submitted += static_cast<std::int64_t>(arrivals_.size());
  }

  void Depart(SpanRecorder& spans) {
    ScopedSpan span(spans, "delete");
    while (live_millis_ > target_millis_ && !live_.empty()) {
      Deployment& d = live_.front();
      for (k8s::PodUid uid : d.uids) sim_.DeletePod(uid);
      books_.deleted_by_client += static_cast<std::int64_t>(d.uids.size());
      live_millis_ -= d.millis;
      live_.pop_front();
      at_share_ = true;
    }
  }

  // Pods submitted this iteration that the tick left unbound.
  [[nodiscard]] std::size_t UnboundArrivals() {
    std::size_t n = 0;
    for (k8s::PodUid uid : arrivals_) {
      const k8s::Pod* pod = sim_.adaptor().FindPod(uid);
      if (pod == nullptr || pod->phase != k8s::PodPhase::kBound) ++n;
    }
    return n;
  }

  [[nodiscard]] bool at_share() const { return at_share_; }
  [[nodiscard]] std::size_t arrivals() const { return arrivals_.size(); }
  [[nodiscard]] k8s::ClusterSimulator& sim() { return sim_; }
  [[nodiscard]] const PodBooks& books() const { return books_; }

 private:
  struct Deployment {
    std::vector<k8s::PodUid> uids;
    std::int64_t millis = 0;
  };

  OnlineSpec spec_;
  k8s::ClusterSimulator sim_;
  al::Rng rng_;
  std::int64_t target_millis_ = 0;
  std::int64_t live_millis_ = 0;
  std::deque<Deployment> live_;
  std::vector<k8s::PodUid> arrivals_;
  std::int64_t app_counter_ = 0;
  std::int64_t job_counter_ = 0;
  bool at_share_ = false;
  PodBooks books_;
};

// Builds the cluster and warms it up until LLA cores reach the target share.
// Warm-up ticks count as set-up, never as measurement.
std::unique_ptr<OnlineClient> SetUpOnline(const OnlineSpec& spec,
                                          const RunOptions& o,
                                          SpanRecorder& spans,
                                          std::int64_t* warmup_ticks) {
  ScopedSpan setup(spans, "setup");
  auto client = std::make_unique<OnlineClient>(spec, o.seed);
  {
    ScopedSpan span(spans, "add_nodes");
    client->AddNodes();
  }
  ScopedSpan warm(spans, "warmup");
  *warmup_ticks = 0;
  while (!client->at_share()) {
    client->Submit(spans);
    client->Depart(spans);
    ScopedSpan tick(spans, "tick");
    client->sim().Tick();
    ++*warmup_ticks;
  }
  return client;
}

// What one measured window of an online workload recorded.
struct OnlineSamples {
  std::vector<double> tick_ms;  // every window tick, in order
  std::vector<double> rate_untraced;
  std::vector<double> rate_traced;
  LayerTotals layers;
  CpuSplit cpu;
  double window_s = 0.0;
  double window_cpu_s = 0.0;
  std::int64_t bound = 0;
  std::int64_t bound_traced = 0;
  std::int64_t submitted = 0;
  std::int64_t unbound_arrivals = 0;
  std::int64_t disruptions = 0;
  std::vector<double> routed;  // per shard
  // Traced ticks: summed shard solve times, and the slowest shard's.
  double shard_solve_sum_s = 0.0;
  double shard_solve_max_s = 0.0;
  double drift = 0.0;
  double rss_growth_mb = 0.0;
  double machines_used = 0.0;  // audited after the window
  bool capped = false;  // the window hit the --seconds ceiling
};

// One measured window of `ticks` loop iterations on a warmed-up client,
// cut short (after at least four ticks) once it has run `cap_s` seconds.
void RunWindow(OnlineClient& client, std::size_t ticks, double cap_s,
               bool trace, SpanRecorder& spans, OnlineSamples& out) {
  k8s::ClusterSimulator& sim = client.sim();
  std::vector<double> tick_ms;
  const double rss_start = CurrentRssMb();
  const double cpu_start = ProcessCpuSeconds();
  const std::int64_t start = NowNs();
  ScopedSpan window(spans, "window");
  for (std::size_t t = 0; t < ticks; ++t) {
    if (t >= 4 && static_cast<double>(NowNs() - start) * 1e-9 >= cap_s) {
      out.capped = true;
      break;
    }
    // Traced runs alternate: odd ticks armed, even ticks the untraced
    // reference for the tracing overhead.
    const bool traced = trace && t % 2 == 1;
    const std::int64_t it0 = NowNs();
    client.Submit(spans);
    client.Depart(spans);
    std::optional<RegistryMark> before;
    if (traced) {
      al::obs::SetMetricsEnabled(true);
      before = MarkRegistry();
    }
    const double th0 = ThreadCpuSeconds();
    const double pr0 = ProcessCpuSeconds();
    const std::int64_t tk0 = NowNs();
    k8s::ResolveStats stats;
    {
      ScopedSpan tick(spans, "tick");
      stats = sim.Tick();
    }
    const std::int64_t tk1 = NowNs();
    if (traced) {
      out.cpu.Add(static_cast<double>(tk1 - tk0) * 1e-9,
                  ThreadCpuSeconds() - th0, ProcessCpuSeconds() - pr0);
      out.layers.Add(*before, MarkRegistry());
      al::obs::SetMetricsEnabled(false);
      out.bound_traced += static_cast<std::int64_t>(stats.new_bindings);
    }
    out.unbound_arrivals +=
        static_cast<std::int64_t>(client.UnboundArrivals());
    const std::int64_t it1 = NowNs();

    tick_ms.push_back(static_cast<double>(tk1 - tk0) * 1e-6);
    out.bound += static_cast<std::int64_t>(stats.new_bindings);
    out.submitted += static_cast<std::int64_t>(client.arrivals());
    out.disruptions +=
        static_cast<std::int64_t>(stats.migrations + stats.preemptions);
    (traced ? out.rate_traced : out.rate_untraced)
        .push_back(Ratio(static_cast<double>(stats.new_bindings),
                         static_cast<double>(it1 - it0) * 1e-9));
    double slowest = 0.0;
    for (const core::ShardTickStats& s : stats.shards) {
      const auto shard = static_cast<std::size_t>(s.shard);
      if (out.routed.size() <= shard) out.routed.resize(shard + 1, 0.0);
      out.routed[shard] += static_cast<double>(s.routed);
      slowest = std::max(slowest, s.solve_seconds);
      if (traced) out.shard_solve_sum_s += s.solve_seconds;
    }
    if (traced) out.shard_solve_max_s += slowest;
  }
  out.window_s = static_cast<double>(NowNs() - start) * 1e-9;
  out.window_cpu_s = ProcessCpuSeconds() - cpu_start;
  out.rss_growth_mb = CurrentRssMb() - rss_start;
  // Growth of the tick under churn: last quarter over first quarter.
  const auto quarter = static_cast<std::ptrdiff_t>(tick_ms.size() / 4);
  if (quarter > 0) {
    out.drift = Ratio(Median({tick_ms.end() - quarter, tick_ms.end()}),
                      Median({tick_ms.begin(), tick_ms.begin() + quarter}));
  }
  out.tick_ms = std::move(tick_ms);
}

// Untraced online runs measure this many windows, each on a client of its
// own set-up, and report each end-to-end metric's median over them. A
// stretch of host slowdown then moves one window, not the whole run.
constexpr std::size_t kOnlineWindows = 3;

// Each metric's median over the windows' metric lists (same names, same
// order in every list).
std::vector<Metric> MedianPerMetric(
    const std::vector<std::vector<Metric>>& windows) {
  std::vector<Metric> out = windows.front();
  for (std::size_t m = 0; m < out.size(); ++m) {
    std::vector<double> values;
    for (const auto& w : windows) values.push_back(w[m].value);
    out[m].value = Median(values);
  }
  return out;
}

RunReport RunOnline(const RunOptions& o) {
  RunReport r;
  const OnlineSpec spec = SpecFor(o);
  SpanRecorder spans(o.trace);

  // Windows of a fixed tick count; --seconds only caps the run. The
  // snapshot grows with every tick, so a window bounded by time would hand
  // a faster build more ticks on a bigger snapshot. A window never follows
  // another on the same client: a repeat runs on a heap the first one
  // fragmented and measured 10-20% apart from it. So every window gets a
  // fresh set-up, which also counts towards setup_s.
  const std::size_t windows = o.trace ? 1 : kOnlineWindows;
  std::vector<OnlineSamples> runs;
  std::vector<double> setup_s;
  std::int64_t warmup_ticks = 0;
  std::size_t live_pods = 0;
  std::size_t snapshot = 0;
  bool capped = false;
  const std::int64_t run_start = NowNs();
  while (runs.size() < windows) {
    if (!runs.empty() &&
        static_cast<double>(NowNs() - run_start) * 1e-9 >= o.seconds) {
      capped = true;
      break;
    }
    ReleaseFreedMemory();
    const std::int64_t t0 = NowNs();
    const std::unique_ptr<OnlineClient> client =
        SetUpOnline(spec, o, spans, &warmup_ticks);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    OnlineSamples& samples = runs.emplace_back();
    RunWindow(*client, WindowTicks(o), o.seconds, o.trace, spans, samples);
    capped = capped || samples.capped;
    r.attempted += static_cast<std::int64_t>(samples.tick_ms.size());
    ScopedSpan span(spans, "audit");
    AuditResult audit = AuditLivePods(client->sim(), client->books());
    samples.machines_used = static_cast<double>(audit.machines_used);
    // The report keeps the last window's counts and every window's faults.
    audit.violations += r.audit.violations;
    audit.errors.insert(audit.errors.begin(), r.audit.errors.begin(),
                        r.audit.errors.end());
    r.audit = std::move(audit);
    live_pods = client->sim().adaptor().pod_count();
    snapshot = client->sim().adaptor().workload().container_count();
  }
  if (!r.audit.ok()) r.failed = 1;
  // Further set-ups, timed only, until setup_s is steady.
  while (KeepSettingUp(setup_s)) {
    ReleaseFreedMemory();
    const std::int64_t t0 = NowNs();
    const std::unique_ptr<OnlineClient> client =
        SetUpOnline(spec, o, spans, &warmup_ticks);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }

  std::int64_t submitted = 0;
  std::int64_t bound = 0;
  std::int64_t unbound_arrivals = 0;
  std::int64_t disruptions = 0;
  for (const OnlineSamples& s : runs) {
    submitted += s.submitted;
    bound += s.bound;
    unbound_arrivals += s.unbound_arrivals;
    disruptions += s.disruptions;
  }
  const double unplaced_pct =
      Ratio(static_cast<double>(unbound_arrivals) * 100.0,
            static_cast<double>(submitted));
  const OnlineSamples& samples = runs.back();
  Fact(r, "windows", std::to_string(runs.size()));
  Fact(r, "ticks_per_window", std::to_string(samples.tick_ms.size()));
  Fact(r, "window_capped", capped ? "true" : "false");
  Fact(r, "warmup_ticks", std::to_string(warmup_ticks));
  Fact(r, "tick_ms_p90_beyond",
       std::to_string(SamplesBeyond(samples.tick_ms.size(), 90.0)));
  Fact(r, "setup_repeats", std::to_string(setup_s.size()));
  Fact(r, "pods_submitted", std::to_string(submitted));
  Fact(r, "pods_bound", std::to_string(bound));
  Fact(r, "unplaced_in_arrival_tick", std::to_string(unbound_arrivals));
  Fact(r, "disruptions", std::to_string(disruptions));
  Fact(r, "violations", std::to_string(r.audit.violations));
  Fact(r, "live_pods", std::to_string(live_pods));
  Fact(r, "retired_containers", std::to_string(r.audit.retired_containers));
  Fact(r, "search_pool_threads", "1");
  Fact(r, "shard_pool_threads", spec.shards > 0 ? "1" : "none");
  Fact(r, "shards", std::to_string(spec.shards));

  if (!o.trace) {
    std::vector<std::vector<Metric>> per_window;
    for (const OnlineSamples& s : runs) {
      EndToEnd e;
      e.request_ms = s.tick_ms;
      e.setup_s = setup_s;
      e.window_s = s.window_s;
      e.window_cpu_s = s.window_cpu_s;
      e.bound = static_cast<double>(s.bound);
      e.unplaced_pct = Ratio(static_cast<double>(s.unbound_arrivals) * 100.0,
                             static_cast<double>(s.submitted));
      e.machines_used = s.machines_used;
      per_window.push_back(EmitEndToEnd(e));
    }
    r.metrics = MedianPerMetric(per_window);
    // Every window's value too, so the provenance line shows the spread
    // within the run.
    for (std::size_t m = 0; m < r.metrics.size(); ++m) {
      std::string values;
      for (const auto& w : per_window) {
        values += (values.empty() ? "" : " ") + std::to_string(w[m].value);
      }
      Fact(r, "window_" + r.metrics[m].name, values);
    }
    return r;
  }

  // Per-layer view of the traced ticks. LLA placements are what the core
  // placed: every binding minus the task scheduler's.
  const LayerTotals& layers = samples.layers;
  const double traced_ticks = layers.requests();
  const auto ticks = static_cast<double>(samples.tick_ms.size());
  Layers v;
  AddRegistryMetrics(layers,
                     static_cast<double>(samples.bound_traced) -
                         layers.Total("core/task_placed"),
                     v);
  AddCpuMetrics(samples.cpu, traced_ticks, v);
  AddTickMetrics(samples.cpu, samples.rate_untraced, samples.rate_traced,
                 layers, v);
  AddQualityMetrics(unplaced_pct,
                    Ratio(static_cast<double>(samples.disruptions), ticks), v);
  AddHarnessMetrics(spans, "window", ticks, v);
  v["k8s.live_pods"] = static_cast<double>(live_pods);
  v["k8s.snapshot_containers"] = static_cast<double>(snapshot);
  v["k8s.snapshot_per_live_pod"] = Ratio(static_cast<double>(snapshot),
                                         static_cast<double>(live_pods));
  v["k8s.tick_drift"] = samples.drift;
  v["k8s.rss_growth_mb"] = samples.rss_growth_mb;
  v["k8s.submit_ms"] =
      Ratio((spans.Totals("submit").first + spans.Totals("delete").first) *
                1e-6,
            static_cast<double>(spans.Count("submit")));
  // The critical path is the slowest shard's solve: what the tick waits
  // for when the shards solve concurrently, whatever the pool size here.
  const double solve_ms = Ratio(samples.shard_solve_max_s * 1e3, traced_ticks);
  const double solve_sum_ms =
      Ratio(samples.shard_solve_sum_s * 1e3, traced_ticks);
  v["core.shard_solve_ms"] = solve_ms;
  v["core.shard_solve_sum_ms"] = solve_sum_ms;
  v["core.shard_parallelism"] = Ratio(solve_sum_ms, solve_ms);
  v["core.shard_routed_skew"] = MaxOverMean(samples.routed);
  r.metrics = EmitLayers(v);
  return r;
}

// ---------------------------------------------------------------------
// trace_oneshot: the paper's own experiment, repeated on fresh states.

// The full trace's solve cost varies by about a third from one generator
// seed to the next (repair and compaction work differs), so one run solves
// a family of traces drawn from its seed in whole rounds, and its
// statistics describe the family rather than one draw. 34 traces: three
// untraced rounds give 102 solves, ten beyond the p90.
constexpr std::size_t kTraceFamily = 34;
constexpr std::size_t kSmokeTraceFamily = 2;
constexpr std::size_t kPooledSolves = 3;

// Rounds of the family one run solves. Untraced: the fewest whole rounds
// that leave ten solves beyond the p90. Traced (and smoke): two, so that
// every trace is solved once armed and once unarmed.
std::size_t TraceRounds(const RunOptions& o, std::size_t traces) {
  if (o.trace || o.smoke) return 2;
  const std::size_t solves = MinSamplesFor(90.0, kTailBeyond);
  return (solves + traces - 1) / traces;
}

struct TraceFamily {
  std::vector<al::trace::Workload> workloads;
  std::vector<std::vector<cl::ContainerId>> arrivals;
  cl::Topology topology;
};

TraceFamily MakeTraceFamily(const RunOptions& o, SpanRecorder& spans,
                            double* generate_s) {
  const double scale = o.smoke ? 0.02 : 1.0;
  const std::size_t n = o.smoke ? kSmokeTraceFamily : kTraceFamily;
  ScopedSpan setup(spans, "setup");
  TraceFamily f;
  std::uint64_t state = o.seed;
  const std::int64_t t0 = NowNs();
  for (std::size_t i = 0; i < n; ++i) {
    ScopedSpan span(spans, "generate");
    f.workloads.push_back(
        al::sim::MakeBenchWorkload(scale, al::SplitMix64(state)));
  }
  *generate_s = static_cast<double>(NowNs() - t0) * 1e-9;
  {
    ScopedSpan span(spans, "make_cluster");
    f.topology =
        al::trace::MakeAlibabaCluster(al::sim::BenchMachineCount(scale));
  }
  for (const auto& w : f.workloads) {
    ScopedSpan span(spans, "arrival");
    f.arrivals.push_back(al::trace::MakeArrivalSequence(
        w, al::trace::ArrivalOrder::kRandom, al::SplitMix64(state)));
  }
  return f;
}

std::uint64_t PlacementHash(const cl::ClusterState& state) {
  std::uint64_t hash = 1469598103934665603ull;
  for (std::size_t c = 0; c < state.containers().size(); ++c) {
    hash ^= static_cast<std::uint64_t>(
        state.PlacementOf(cl::ContainerId(static_cast<std::int32_t>(c)))
            .value() + 1);
    hash *= 1099511628211ull;
  }
  return hash;
}

// What the first solve of each trace produced; later solves must repeat it.
struct FirstSolve {
  bool done = false;
  std::size_t placed = 0;
  std::size_t unplaced = 0;
  std::int64_t disruptions = 0;
  std::uint64_t hash = 0;
};

// Times of one trace_oneshot solve, seconds.
struct SolveTimes {
  double request_s = 0.0;      // MakeState + Schedule, wall
  double request_cpu_s = 0.0;  // the same, process CPU
  double schedule_s = 0.0;     // Schedule alone, wall
  double thread_cpu_s = 0.0;   // Schedule, caller-thread CPU
  double process_cpu_s = 0.0;  // Schedule, process CPU
  std::size_t placed = 0;
};

RunReport RunTraceOneshot(const RunOptions& o) {
  RunReport r;
  SpanRecorder spans(o.trace);

  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::optional<TraceFamily> family;
  while (KeepSettingUp(setup_s)) {
    family.reset();
    ReleaseFreedMemory();
    const std::int64_t t0 = NowNs();
    double gen = 0.0;
    family.emplace(MakeTraceFamily(o, spans, &gen));
    generate_s.push_back(gen);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  const std::size_t traces = family->workloads.size();

  // End-to-end solves run the search serially: with the pool pinned to
  // nproc the solve's wall time follows the host's CPU steal (README.md).
  // Traced runs add pooled solves so the pool's cost is still measured, as
  // per-layer metrics.
  core::AladdinOptions serial;  // product defaults
  serial.threads = 1;
  core::AladdinOptions pooled;
  pooled.threads = AvailableCpus();

  std::vector<double> make_state_ms;
  LayerTotals layers;
  std::int64_t containers_total = 0;
  std::int64_t unplaced_total = 0;
  std::int64_t disruptions_total = 0;
  std::vector<FirstSolve> first(traces);

  // One solve of trace k on a fresh state (MakeState + Schedule), checked
  // against the trace's first solve, which is audited outside the timing.
  auto solve = [&](std::size_t k, const core::AladdinOptions& options,
                   bool armed) {
    const al::trace::Workload& workload = family->workloads[k];
    ReleaseFreedMemory();
    ScopedSpan request_span(spans, "request");
    SolveTimes t;
    const double cpu0 = ProcessCpuSeconds();
    const std::int64_t it0 = NowNs();
    std::optional<cl::ClusterState> state;
    {
      ScopedSpan span(spans, "make_state");
      state.emplace(workload.MakeState(family->topology));
    }
    make_state_ms.push_back(static_cast<double>(NowNs() - it0) * 1e-6);
    core::AladdinScheduler scheduler(options);
    const al::sim::ScheduleRequest request{&workload, &family->arrivals[k]};
    std::optional<RegistryMark> before;
    if (armed) {
      al::obs::SetMetricsEnabled(true);
      before = MarkRegistry();
    }
    const double th0 = ThreadCpuSeconds();
    const double pr0 = ProcessCpuSeconds();
    const std::int64_t s0 = NowNs();
    al::sim::ScheduleOutcome outcome;
    {
      ScopedSpan span(spans, "schedule");
      outcome = scheduler.Schedule(request, *state);
    }
    t.schedule_s = static_cast<double>(NowNs() - s0) * 1e-9;
    t.thread_cpu_s = ThreadCpuSeconds() - th0;
    t.process_cpu_s = ProcessCpuSeconds() - pr0;
    if (armed) {
      layers.Add(*before, MarkRegistry());
      al::obs::SetMetricsEnabled(false);
    }
    t.request_s = static_cast<double>(NowNs() - it0) * 1e-9;
    t.request_cpu_s = ProcessCpuSeconds() - cpu0;

    t.placed = state->placed_count();
    const std::int64_t disruptions =
        state->migrations() + state->preemptions();
    const std::uint64_t hash = PlacementHash(*state);
    FirstSolve& f = first[k];
    if (!f.done) {
      f = FirstSolve{true, t.placed, outcome.unplaced.size(), disruptions,
                     hash};
      ScopedSpan span(spans, "audit");
      AuditResult audit = AuditState(*state, outcome.unplaced.size());
      r.audit.violations += audit.violations;
      r.audit.machines_used += audit.machines_used;
      r.audit.errors.insert(r.audit.errors.end(), audit.errors.begin(),
                            audit.errors.end());
      if (!audit.ok()) ++r.failed;
      containers_total +=
          static_cast<std::int64_t>(workload.container_count());
      unplaced_total += static_cast<std::int64_t>(outcome.unplaced.size());
      disruptions_total += disruptions;
    } else if (t.placed != f.placed ||
               outcome.unplaced.size() != f.unplaced ||
               disruptions != f.disruptions || hash != f.hash) {
      ++r.failed;
      r.audit.errors.push_back("solve " + std::to_string(r.attempted) +
                               " of trace " + std::to_string(k) +
                               " did not repeat the trace's first solve");
    }
    ++r.attempted;
    return t;
  };

  // The measured window: whole rounds of the family, so every trace weighs
  // the same in the statistics whatever the speed of the build. Its time is
  // the sum of the solves; audits and repeat checks are the benchmark's own
  // work. --seconds only caps it, at a round boundary.
  std::vector<double> solve_ms;
  std::vector<double> rate_untraced;
  std::vector<double> rate_traced;
  std::vector<double> unarmed_ms_of(traces, 0.0);
  CpuSplit cpu;
  double window_s = 0.0;
  double window_cpu_s = 0.0;
  std::int64_t placed_total = 0;
  std::int64_t placed_traced = 0;
  std::size_t rounds = 0;
  bool capped = false;
  const std::int64_t window_start = NowNs();
  for (; rounds < TraceRounds(o, traces); ++rounds) {
    if (rounds > 0 &&
        static_cast<double>(NowNs() - window_start) * 1e-9 >= o.seconds) {
      capped = true;
      break;
    }
    for (std::size_t k = 0; k < traces; ++k) {
      // Traced runs arm every other solve, shifted by one each round: over
      // two rounds each trace is solved once armed and once unarmed, so the
      // tracing overhead compares the same inputs.
      const bool armed = o.trace && (k + rounds) % 2 == 1;
      const SolveTimes t = solve(k, serial, armed);
      solve_ms.push_back(t.schedule_s * 1e3);
      window_s += t.request_s;
      window_cpu_s += t.request_cpu_s;
      placed_total += static_cast<std::int64_t>(t.placed);
      const double rate = Ratio(static_cast<double>(t.placed), t.request_s);
      if (armed) {
        cpu.Add(t.schedule_s, t.thread_cpu_s, t.process_cpu_s);
        placed_traced += static_cast<std::int64_t>(t.placed);
        rate_traced.push_back(rate);
      } else {
        rate_untraced.push_back(rate);
        unarmed_ms_of[k] = t.schedule_s * 1e3;
      }
    }
  }

  // Traced runs then solve a few traces spread over the family with the
  // search pool at nproc (unarmed), each against its own unarmed serial
  // solve. A pooled solve can take 15 s on a busy host.
  std::vector<double> pooled_ms;
  std::vector<double> pool_slowdown;
  CpuSplit pooled_cpu;
  for (std::size_t i = 0; o.trace && i < kPooledSolves; ++i) {
    const std::size_t k = i * traces / kPooledSolves;
    const SolveTimes t = solve(k, pooled, /*armed=*/false);
    pooled_ms.push_back(t.schedule_s * 1e3);
    pooled_cpu.Add(t.schedule_s, t.thread_cpu_s, t.process_cpu_s);
    pool_slowdown.push_back(Ratio(t.schedule_s * 1e3, unarmed_ms_of[k]));
  }
  // Machines used: mean over the family's first solves.
  r.audit.machines_used /= traces;

  const double unplaced_pct =
      Ratio(static_cast<double>(unplaced_total) * 100.0,
            static_cast<double>(containers_total));
  Fact(r, "traces", std::to_string(traces));
  Fact(r, "rounds", std::to_string(rounds));
  Fact(r, "window_capped", capped ? "true" : "false");
  Fact(r, "solves", std::to_string(solve_ms.size()));
  Fact(r, "pooled_solves", std::to_string(pooled_ms.size()));
  Fact(r, "setup_repeats", std::to_string(setup_s.size()));
  Fact(r, "containers", std::to_string(containers_total));
  Fact(r, "machines", std::to_string(family->topology.machine_count()));
  Fact(r, "unplaced", std::to_string(unplaced_total));
  Fact(r, "disruptions", std::to_string(disruptions_total));
  Fact(r, "violations", std::to_string(r.audit.violations));
  Fact(r, "search_pool_threads",
       "1 (pooled solves in traced runs: " + std::to_string(pooled.threads) +
           ")");
  Fact(r, "tick_ms_p90_beyond",
       std::to_string(SamplesBeyond(solve_ms.size(), 90.0)));

  if (!o.trace) {
    EndToEnd e;
    e.request_ms = solve_ms;
    e.setup_s = setup_s;
    e.window_s = window_s;
    e.window_cpu_s = window_cpu_s;
    e.bound = static_cast<double>(placed_total);
    e.unplaced_pct = unplaced_pct;
    e.machines_used = static_cast<double>(r.audit.machines_used);
    r.metrics = EmitEndToEnd(e);
    return r;
  }

  Layers v;
  AddRegistryMetrics(layers, static_cast<double>(placed_traced), v);
  // The CPU split describes the pooled solves: the caller's wait on the
  // pool and the CPU the workers burn.
  AddCpuMetrics(pooled_cpu, static_cast<double>(pooled_ms.size()), v);
  AddTickMetrics(cpu, rate_untraced, rate_traced, layers, v);
  AddQualityMetrics(unplaced_pct,
                    Ratio(static_cast<double>(disruptions_total),
                          static_cast<double>(traces)),
                    v);
  AddHarnessMetrics(spans, "request", static_cast<double>(r.attempted), v);
  v["core.pooled_solve_ms"] = Median(pooled_ms);
  v["core.pool_slowdown"] = Median(pool_slowdown);
  v["trace.generate_s"] = Median(generate_s);
  v["trace.arrival_ms"] = Ratio(spans.Totals("arrival").first * 1e-6,
                                static_cast<double>(spans.Count("arrival")));
  v["cluster.make_state_ms"] = Median(make_state_ms);
  r.metrics = EmitLayers(v);
  return r;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"online_churn",
                                                 "trace_oneshot",
                                                 "sharded_lla"};
  return names;
}

bool IsWorkload(const std::string& name) {
  const auto& names = WorkloadNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

RunReport RunWorkload(const RunOptions& options) {
  al::obs::SetMetricsEnabled(false);
  return options.workload == "trace_oneshot" ? RunTraceOneshot(options)
                                             : RunOnline(options);
}

}  // namespace perfbench
