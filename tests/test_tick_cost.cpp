// Oracle tests for the per-tick bookkeeping that is proportional to churn
// rather than to history. Each indexed structure is checked against the
// full scan it replaced, kept here as a test-local reference:
//   * the adaptor's expiry queue (ClusterSimulator::Tick) against a sweep
//     of the whole pod store, under churn with migrations, preemption
//     re-binds, external bound-pod updates and node removal;
//   * the sort-based EHC drain against a coalescer written straight from
//     the rule documented in k8s/events.h;
//   * the lifecycle ledger's open-span queries against brute-force scans;
//   * the SLO snapshot's top-k rows against a full sort;
//   * AladdinScheduler's incremental Eq. 3 ranges against
//     ComputeMinimalWeights, including a workload re-created in place.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/scheduler.h"
#include "core/weights.h"
#include "k8s/events.h"
#include "k8s/simulator.h"
#include "obs/lifecycle.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "trace/workload.h"

namespace aladdin {
namespace {

using cluster::ResourceVector;
using k8s::Event;
using k8s::EventType;
using k8s::PodUid;

// ------------------------------------------------- reference coalescer ----

// What one dispatched event looks like to a subscriber, for comparison.
using Seen = std::tuple<EventType, PodUid, std::string, std::string>;

Seen SeenOf(const Event& e) {
  const bool pod = e.type == EventType::kPodAdded ||
                   e.type == EventType::kPodDeleted;
  return {e.type, pod ? e.pod.uid : -1, pod ? e.pod.name : e.node.name,
          pod ? e.pod.node : e.node.rack};
}

// The rule of k8s/events.h, per object over one batch, by brute force:
// adds and deletes together drop every event of the object; otherwise the
// last add or the first delete survives. Survivors keep queue order.
std::vector<Seen> ReferenceCoalesce(const std::vector<Event>& queue) {
  const auto is_pod = [](const Event& e) {
    return e.type == EventType::kPodAdded || e.type == EventType::kPodDeleted;
  };
  const auto is_add = [](const Event& e) {
    return e.type == EventType::kPodAdded || e.type == EventType::kNodeAdded;
  };
  const auto same_object = [&](const Event& a, const Event& b) {
    if (is_pod(a) != is_pod(b)) return false;
    return is_pod(a) ? a.pod.uid == b.pod.uid : a.node.name == b.node.name;
  };
  std::vector<Seen> out;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    bool any_add = false;
    bool any_delete = false;
    std::size_t last_add = 0;
    std::size_t first_delete = queue.size();
    for (std::size_t j = 0; j < queue.size(); ++j) {
      if (!same_object(queue[i], queue[j])) continue;
      if (is_add(queue[j])) {
        any_add = true;
        last_add = j;
      } else {
        any_delete = true;
        first_delete = std::min(first_delete, j);
      }
    }
    if (any_add && any_delete) continue;
    if (i == (any_add ? last_add : first_delete)) out.push_back(SeenOf(queue[i]));
  }
  return out;
}

Event PodEvent(EventType type, PodUid uid, const std::string& marker) {
  Event e;
  e.type = type;
  e.pod.uid = uid;
  e.pod.name = marker;
  return e;
}

Event NodeEvent(EventType type, const std::string& name,
                const std::string& marker) {
  Event e;
  e.type = type;
  e.node.name = name;
  e.node.rack = marker;
  return e;
}

TEST(TickCost, DrainMatchesReferenceCoalescer) {
  Rng rng(20261017);
  for (int round = 0; round < 300; ++round) {
    k8s::EventsHandlingCenter ehc;
    std::vector<Seen> seen;
    ehc.Subscribe([&](const Event& e) { seen.push_back(SeenOf(e)); });
    std::vector<Event> queue;
    // Few objects, many events: duplicate adds with differing payloads,
    // add+delete pairs, duplicate deletes, node add/remove pairs.
    const auto n = rng.UniformInt(0, 40);
    for (std::int64_t i = 0; i < n; ++i) {
      const std::string marker = "m" + std::to_string(i);
      const bool pod = rng.Bernoulli(0.7);
      const bool add = rng.Bernoulli(0.6);
      if (pod) {
        queue.push_back(PodEvent(
            add ? EventType::kPodAdded : EventType::kPodDeleted,
            rng.UniformInt(1, 8), marker));
      } else {
        queue.push_back(NodeEvent(
            add ? EventType::kNodeAdded : EventType::kNodeRemoved,
            "n" + std::to_string(rng.UniformInt(0, 4)), marker));
      }
    }
    const std::vector<Seen> want = ReferenceCoalesce(queue);
    for (const Event& e : queue) ehc.Submit(e);
    EXPECT_EQ(ehc.DrainAndDispatch(), want.size()) << "round " << round;
    EXPECT_EQ(seen, want) << "round " << round;
    EXPECT_EQ(ehc.dispatched_total() + ehc.coalesced_total(),
              static_cast<std::int64_t>(queue.size()));
    EXPECT_EQ(ehc.pending(), 0u);
  }
}

// ------------------------------------------------------- expiry queue ----

// The pre-queue expiry step of ClusterSimulator::Tick: one uid-ascending
// sweep of the whole store at tick `now`.
std::vector<PodUid> FullStoreSweep(const k8s::ModelAdaptor& adaptor,
                                   std::int64_t now) {
  std::vector<PodUid> due;
  for (const auto& [uid, pod] : adaptor.pods()) {
    if (pod.phase != k8s::PodPhase::kBound || !pod.spec.short_lived()) continue;
    if (pod.bound_at_tick >= 0 &&
        now >= pod.bound_at_tick + pod.spec.lifetime_ticks) {
      due.push_back(uid);
    }
  }
  return due;
}

// Random bound short-lived pod, or -1 when there is none.
PodUid PickBoundShortLived(const k8s::ModelAdaptor& adaptor, Rng& rng) {
  std::vector<PodUid> bound;
  for (PodUid uid : adaptor.BoundPods()) {
    if (adaptor.FindPod(uid)->spec.short_lived()) bound.push_back(uid);
  }
  if (bound.empty()) return -1;
  return bound[static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(bound.size()) - 1))];
}

TEST(TickCost, ExpiryQueueMatchesFullStoreSweep) {
  for (const std::uint64_t seed : {7u, 8191u, 31337u}) {
    SCOPED_TRACE(seed);
    k8s::ClusterSimulator sim;
    std::vector<Seen> deleted;
    sim.ehc().Subscribe([&](const Event& e) {
      if (e.type == EventType::kPodDeleted) deleted.push_back(SeenOf(e));
    });
    std::vector<std::string> nodes =
        sim.AddNodes(16, ResourceVector::Cores(16, 32), "node", 4, 2);
    sim.Tick();
    Rng rng(seed);
    std::int64_t completed = 0;
    // Scenario coverage, asserted at the end so the churn provably hit
    // every path the queue must get right.
    std::int64_t migrated = 0;
    std::int64_t updated_while_due = 0;
    std::int64_t preempted = 0;
    std::int64_t rebinds = 0;
    std::int64_t removed_nodes = 0;
    std::map<PodUid, bool> was_bound;  // uid -> bound at some earlier tick
    for (int tick = 0; tick < 80; ++tick) {
      const std::int64_t now = sim.now() + 1;  // the tick Tick() will run
      // User-side pod events that can meet an expiry delete, in submit
      // order. Adds of fresh pods (jobs, deployments) never share a uid
      // with a delete in the batch, so they cannot change its survivors.
      std::vector<Event> submitted;
      const auto submit = [&](Event e) {
        submitted.push_back(e);
        sim.ehc().Submit(std::move(e));
      };
      sim.SubmitBatchJob("batch-" + std::to_string(tick),
                         static_cast<std::size_t>(rng.UniformInt(2, 24)),
                         ResourceVector::Cores(rng.UniformInt(1, 4), 2),
                         rng.UniformInt(1, 4));
      if (tick % 7 == 3) {
        // High-priority LLA pressure: repair preempts batch pods, which
        // later re-bind at a new tick.
        k8s::PodSpec spec;
        spec.requests = ResourceVector::Cores(8, 16);
        spec.priority = 3;
        sim.SubmitDeployment("lla-" + std::to_string(tick),
                             static_cast<std::size_t>(rng.UniformInt(2, 8)),
                             spec);
      }
      // Migration: the resolver moves bound_at_tick later, to the
      // migration tick (MutablePod lets it only grow).
      for (int i = 0; i < 3; ++i) {
        const PodUid uid = PickBoundShortLived(sim.adaptor(), rng);
        if (uid < 0) break;
        k8s::Pod& pod = *sim.adaptor().MutablePod(uid);
        if (pod.bound_at_tick >= now - 1) continue;
        pod.bound_at_tick = now - 1;
        ++migrated;
      }
      // External updates of bound pods: a new stamp (earlier or later), a
      // new lifetime, or an unbind. Some hit pods due this very tick, so
      // their expiry delete and the update cancel out in the drain.
      for (int i = 0; i < 3; ++i) {
        const PodUid uid = PickBoundShortLived(sim.adaptor(), rng);
        if (uid < 0) break;
        k8s::Pod pod = *sim.adaptor().FindPod(uid);
        if (now >= pod.bound_at_tick + pod.spec.lifetime_ticks) {
          ++updated_while_due;
        }
        switch (rng.UniformInt(0, 2)) {
          case 0:
            pod.bound_at_tick = std::max<std::int64_t>(
                0, pod.bound_at_tick + rng.UniformInt(-2, 2));
            break;
          case 1:
            pod.spec.lifetime_ticks = rng.UniformInt(1, 5);
            break;
          default:
            pod.phase = k8s::PodPhase::kPending;
            pod.node.clear();
            break;
        }
        Event e;
        e.type = EventType::kPodAdded;
        e.pod = pod;
        submit(std::move(e));
      }
      // User deletes, sometimes of a pod that also expires now.
      if (rng.Bernoulli(0.5)) {
        const PodUid uid = PickBoundShortLived(sim.adaptor(), rng);
        if (uid >= 0) submit(PodEvent(EventType::kPodDeleted, uid, ""));
      }
      if (tick % 13 == 6) {
        const auto pick = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(nodes.size()) - 1));
        sim.RemoveNode(nodes[pick]);
        nodes.erase(nodes.begin() + static_cast<std::ptrdiff_t>(pick));
        for (const std::string& name :
             sim.AddNodes(1, ResourceVector::Cores(16, 32), "node", 4, 2)) {
          nodes.push_back(name);
        }
        ++removed_nodes;
      }

      // Oracle: the full sweep, then the documented coalescing of this
      // batch (the expiry deletes are queued after the user events).
      const std::vector<PodUid> due = FullStoreSweep(sim.adaptor(), now);
      for (PodUid uid : due) {
        submitted.push_back(PodEvent(EventType::kPodDeleted, uid, ""));
      }
      std::vector<Seen> want;
      for (const Seen& ev : ReferenceCoalesce(submitted)) {
        if (std::get<0>(ev) == EventType::kPodDeleted) want.push_back(ev);
      }
      completed += static_cast<std::int64_t>(due.size());

      deleted.clear();
      preempted += static_cast<std::int64_t>(sim.Tick().preemptions);
      ASSERT_EQ(deleted, want) << "tick " << now;
      ASSERT_EQ(sim.completed_tasks(), completed) << "tick " << now;

      for (PodUid uid : sim.adaptor().BoundPods()) {
        auto [it, fresh] = was_bound.emplace(uid, true);
        if (!fresh && !it->second) ++rebinds;
        it->second = true;
      }
      for (PodUid uid : sim.adaptor().PendingPods()) {
        const auto it = was_bound.find(uid);
        if (it != was_bound.end()) it->second = false;
      }
    }
    EXPECT_GT(completed, 0);
    EXPECT_GT(migrated, 0);
    EXPECT_GT(updated_while_due, 0);
    EXPECT_GT(preempted, 0);
    EXPECT_GT(rebinds, 0);
    EXPECT_GT(removed_nodes, 0);
  }
}

// ------------------------------------------------------------ ledger ----

// Brute-force OldestPending: every tracked span, sorted, truncated.
std::vector<obs::PendingRow> ScanOldestPending(
    const obs::LifecycleLedger& ledger, std::int64_t now, std::size_t limit) {
  std::vector<obs::PendingRow> rows;
  for (std::size_t c = 0; c < ledger.tracked(); ++c) {
    const obs::LifecycleSpan* span =
        ledger.SpanPtr(static_cast<std::int32_t>(c));
    if (span == nullptr || span->state != obs::SpanState::kPending) continue;
    obs::PendingRow row;
    row.container = span->container;
    row.app = span->app;
    row.arrival_tick = span->arrival_tick;
    row.age_ticks = span->PendingAge(now);
    row.attempts = span->attempts;
    row.last_cause = span->last_cause;
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(),
            [](const obs::PendingRow& a, const obs::PendingRow& b) {
              return std::tie(a.arrival_tick, a.container) <
                     std::tie(b.arrival_tick, b.container);
            });
  if (rows.size() > limit) rows.resize(limit);
  return rows;
}

std::vector<std::int64_t> ScanPendingAgeCounts(
    const obs::LifecycleLedger& ledger, std::int64_t now) {
  std::vector<std::int64_t> counts;
  for (std::size_t c = 0; c < ledger.tracked(); ++c) {
    const obs::LifecycleSpan* span =
        ledger.SpanPtr(static_cast<std::int32_t>(c));
    if (span == nullptr || span->state != obs::SpanState::kPending) continue;
    const std::int64_t age = span->PendingAge(now);
    if (age < 0) continue;
    const auto slot = static_cast<std::size_t>(age);
    if (slot >= counts.size()) counts.resize(slot + 1, 0);
    ++counts[slot];
  }
  return counts;
}

using RowKey = std::tuple<std::int32_t, std::int32_t, std::int64_t,
                          std::int64_t, std::int64_t, obs::Cause>;
std::vector<RowKey> Keys(const std::vector<obs::PendingRow>& rows) {
  std::vector<RowKey> keys;
  for (const obs::PendingRow& r : rows) {
    keys.emplace_back(r.container, r.app, r.arrival_tick, r.age_ticks,
                      r.attempts, r.last_cause);
  }
  return keys;
}

TEST(TickCost, LedgerQueriesMatchFullScans) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    obs::LifecycleLedger ledger;
    for (std::int64_t tick = 0; tick < 120; ++tick) {
      const auto ops = rng.UniformInt(0, 25);
      for (std::int64_t i = 0; i < ops; ++i) {
        // Containers arrive roughly in id order, with re-arrivals of old
        // ones (preemptions, rebuild re-opens) breaking the order.
        const auto c = static_cast<std::int32_t>(
            rng.UniformInt(0, std::min<std::int64_t>(tick * 4 + 8, 400)));
        switch (rng.UniformInt(0, 5)) {
          case 0:
          case 1:
            ledger.OnArrival(c, c % 7, tick - rng.UniformInt(0, 2));
            break;
          case 2:
            ledger.OnAttempt(c,
                            rng.Bernoulli(0.5)
                                ? obs::Cause::kCapacityExhaustedCpu
                                : obs::Cause::kAntiAffinityIntraApp,
                            tick);
            break;
          case 3:
            ledger.OnPlaced(c, 1, -1, tick);
            break;
          case 4:
            ledger.OnPreempted(c, tick);
            break;
          default:
            ledger.OnRetired(c, tick);
            break;
        }
      }
      // Every few ticks only, so the index also absorbs several ticks of
      // arrivals and closes between two compactions.
      if (tick % 3 != 0) continue;
      for (const std::size_t limit : {0u, 1u, 5u, 32u, 1000u}) {
        ASSERT_EQ(Keys(ledger.OldestPending(tick, limit)),
                  Keys(ScanOldestPending(ledger, tick, limit)))
            << "tick " << tick << " limit " << limit;
      }
      ASSERT_EQ(ledger.PendingAgeCounts(tick),
                ScanPendingAgeCounts(ledger, tick))
          << "tick " << tick;
    }
  }
}

// --------------------------------------------------------- SLO rows ----

TEST(TickCost, SloSnapshotRowsMatchFullSort) {
  Rng rng(99);
  obs::SloObjective objective;
  objective.wait_ticks = 2;
  obs::SloEngine slo(objective);
  constexpr std::int32_t kApps = 300;
  for (std::int32_t app = 0; app < kApps; ++app) {
    slo.RegisterApp(app, "app-" + std::to_string(app));
  }
  std::map<std::int32_t, std::int64_t> admitted;
  std::int32_t next_container = 0;
  for (std::int64_t tick = 0; tick < 40; ++tick) {
    slo.BeginTick(tick);
    for (int i = 0; i < 60; ++i) {
      // Few distinct counts across many apps: plenty of exact ties on
      // (violations, admitted), broken by app id. App 299 never acts.
      obs::LifecycleSpan span;
      span.container = next_container++;
      span.app = static_cast<std::int32_t>(rng.UniformInt(0, kApps - 2));
      span.arrival_tick = tick - rng.UniformInt(0, 4);
      if (rng.Bernoulli(0.2)) {
        slo.ObservePending(span, tick);
      } else {
        slo.OnAdmitted(span, tick - span.arrival_tick);
        ++admitted[span.app];
      }
    }
  }
  const obs::SloSnapshot all = slo.Snapshot(kApps * 2);
  ASSERT_EQ(all.apps.size(), all.apps_total);
  ASSERT_LT(all.apps_total, static_cast<std::size_t>(kApps));
  for (const obs::SloAppRow& row : all.apps) {
    EXPECT_EQ(row.admitted, admitted[row.app]) << row.app;
    EXPECT_EQ(row.name, "app-" + std::to_string(row.app));
  }
  // Reference: every row, fully sorted by the documented order.
  std::vector<obs::SloAppRow> sorted = all.apps;
  std::sort(sorted.begin(), sorted.end(),
            [](const obs::SloAppRow& a, const obs::SloAppRow& b) {
              return std::make_tuple(-a.violations, -a.admitted, a.app) <
                     std::make_tuple(-b.violations, -b.admitted, b.app);
            });
  const auto row_key = [](const obs::SloAppRow& r) {
    return std::make_tuple(r.app, r.name, r.admitted, r.within, r.violations,
                           r.wait_max, r.p50, r.p99, r.p999);
  };
  for (const std::size_t rows :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{32},
        all.apps_total, all.apps_total + 50}) {
    const obs::SloSnapshot snap = slo.Snapshot(rows);
    EXPECT_EQ(snap.apps_total, all.apps_total) << rows;
    ASSERT_EQ(snap.apps.size(), std::min(rows, sorted.size())) << rows;
    for (std::size_t i = 0; i < snap.apps.size(); ++i) {
      EXPECT_EQ(row_key(snap.apps[i]), row_key(sorted[i]))
          << "rows " << rows << " rank " << i;
    }
  }
}

// ----------------------------------------------------------- weights ----

std::int64_t CounterValue(const char* name) {
  for (const auto& c : obs::Registry::Get().Snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

// Adds one random growth step: a new application or more containers of an
// existing one, over a spread of priorities and request sizes.
void Grow(trace::Workload& wl, Rng& rng) {
  if (wl.application_count() == 0 || rng.Bernoulli(0.4)) {
    wl.AddApplication("app-" + std::to_string(wl.application_count()),
                      static_cast<std::size_t>(rng.UniformInt(1, 3)),
                      ResourceVector::Cores(rng.UniformInt(1, 16), 4),
                      static_cast<cluster::Priority>(rng.UniformInt(0, 3)));
    return;
  }
  const auto app = cluster::ApplicationId(static_cast<std::int32_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(wl.application_count()) -
                            1)));
  for (std::int64_t i = rng.UniformInt(1, 4); i > 0; --i) wl.AddContainer(app);
}

TEST(TickCost, IncrementalWeightsMatchFullRecompute) {
  const cluster::Topology topo =
      cluster::Topology::Uniform(4, ResourceVector::Cores(64, 128));
  core::AladdinOptions options;
  options.weight_base = 0;  // minimal Eq. 4–5 weights: read the ranges
  core::AladdinScheduler engine(options);
  const std::vector<cluster::ContainerId> none;
  Rng rng(5);

  std::optional<trace::Workload> wl;
  wl.emplace();
  Grow(*wl, rng);
  std::optional<cluster::ClusterState> state;
  state.emplace(wl->MakeState(topo));
  obs::Registry::Get().ResetAll();
  obs::SetMetricsEnabled(true);
  std::int64_t cached = 0;
  for (int step = 0; step < 60; ++step) {
    Grow(*wl, rng);
    state->SyncWorkloadGrowth();
    (void)engine.Schedule(sim::ScheduleRequest{&*wl, &none}, *state);
    EXPECT_EQ(engine.last_weights().weight,
              core::ComputeMinimalWeights(*wl).weight)
        << "step " << step;
    EXPECT_EQ(CounterValue("core/weights_cached"), cached)
        << "growth must recompute, step " << step;
    // No growth: the weights stand and the cache hit is counted.
    (void)engine.Schedule(sim::ScheduleRequest{&*wl, &none}, *state);
    EXPECT_EQ(CounterValue("core/weights_cached"), ++cached);
  }

  // A different workload re-created in the same optional — likely the same
  // address, and here the same container and app counts — must not reuse
  // the old ranges.
  const std::size_t apps = wl->application_count();
  const std::size_t containers = wl->container_count();
  const std::vector<std::int64_t> before = engine.last_weights().weight;
  state.reset();
  wl.emplace();
  for (std::size_t a = 0; a < apps; ++a) {
    // Class 3 gets the smallest request here, so the minimal weights
    // differ from the old workload's.
    const cluster::Priority prio = a == 0 ? 0 : 3;
    wl->AddApplication("again-" + std::to_string(a), 1,
                       ResourceVector::Cores(prio == 3 ? 1 : 16, 4), prio);
  }
  for (std::size_t c = wl->container_count(); c < containers; ++c) {
    wl->AddContainer(cluster::ApplicationId(0));
  }
  ASSERT_EQ(wl->application_count(), apps);
  ASSERT_EQ(wl->container_count(), containers);
  state.emplace(wl->MakeState(topo));
  (void)engine.Schedule(sim::ScheduleRequest{&*wl, &none}, *state);
  EXPECT_EQ(CounterValue("core/weights_cached"), cached)
      << "a new workload must recompute";
  EXPECT_EQ(engine.last_weights().weight,
            core::ComputeMinimalWeights(*wl).weight);
  EXPECT_NE(engine.last_weights().weight, before);
  obs::SetMetricsEnabled(false);
}

TEST(TickCost, WorkloadIdentityFollowsCopiesAndMoves) {
  trace::Workload a;
  a.AddApplication("a", 2, ResourceVector::Cores(1, 2));
  const std::uint64_t id = a.instance_id();
  trace::Workload copy = a;
  EXPECT_NE(copy.instance_id(), id);
  trace::Workload moved = std::move(a);
  EXPECT_EQ(moved.instance_id(), id);
  EXPECT_NE(a.instance_id(), id);  // NOLINT(bugprone-use-after-move)
  moved.ProjectCpuOnly();
  EXPECT_NE(moved.instance_id(), id);
}

}  // namespace
}  // namespace aladdin
