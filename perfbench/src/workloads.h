// The benchmark's three workloads, each driven from this process through
// the program's public entry points (README.md explains why each exists):
//
//   online_churn  closed loop, one client: LLA waves + batch jobs through
//                 k8s::ClusterSimulator at 10k nodes, oldest deployments
//                 deleted to hold LLA cores at a fixed share of capacity;
//   trace_oneshot single request, repeated: the full synthetic Alibaba
//                 trace solved by core::AladdinScheduler on a fresh state;
//   sharded_lla   closed loop, one client: LLA-only waves at 20k nodes
//                 through the 4-shard core::ShardedScheduler.
//
// An untraced run reports the end-to-end metrics; a traced run (metrics
// registry armed, benchmark spans recorded) reports the per-layer ones.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "audit.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  // Ceiling on the measured window. Each workload measures a fixed amount
  // of work; the ceiling only binds on a host far slower than expected.
  double seconds = 50.0;
  bool trace = false;
  // Seconds-long configuration of the same workload (tests, CI).
  bool smoke = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  std::vector<Metric> metrics;  // end-to-end, or per-layer when traced
  std::int64_t attempted = 0;   // scheduling requests (ticks or solves)
  std::int64_t failed = 0;      // requests whose outcome failed a check
  AuditResult audit;
  // Facts about this run that are not metrics (sample counts, pool sizes,
  // quality counts that are legitimately zero), printed as provenance.
  std::vector<std::pair<std::string, std::string>> facts;
};

[[nodiscard]] bool IsWorkload(const std::string& name);
[[nodiscard]] const std::vector<std::string>& WorkloadNames();

RunReport RunWorkload(const RunOptions& options);

}  // namespace perfbench
