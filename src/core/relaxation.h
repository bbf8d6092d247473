// The linear relaxation of the Fig. 4 flow network.
//
// Aladdin's Algorithm 1 never materialises the full network — it searches
// it path by path under the nonlinear capacity function. The relaxation
// drops anti-affinity blacklists and container impartibility (§IV.D: "a
// container with 4 CPUs cannot be broken down") and measures flow in CPU
// millicores, so its max-flow value is a provable upper bound on the CPU
// any scheduler can place.
//
// In that network (source → T_i → A_j → G_k → R_x → N_y → sink) only the
// source arcs (container CPU) and the sink arcs (machine free CPU) are
// bounded: every application reaches every sub-cluster. The max flow is
// therefore min(unplaced CPU demand, free CPU of the machines the
// sub-cluster → rack → machine arcs reach), which SolveRelaxation computes
// in one pass over the containers and one over the topology.
// BuildRelaxationNetwork materialises the network itself, for the test
// oracle (flow::Dinic on it must equal the closed form) and for reporting
// the network's size.
//
// Uses:
//   * validation — the audited placed-CPU of every scheduler must be <= the
//     bound (asserted by tests);
//   * diagnostics — the gap between the bound and Aladdin's placement
//     isolates how much capacity the *constraints* (not the algorithm)
//     make unusable.
#pragma once

#include <cstdint>

#include "cluster/state.h"
#include "flow/graph.h"
#include "trace/workload.h"

namespace aladdin::core {

struct RelaxationNetwork {
  flow::Graph graph;
  VertexId source;
  VertexId sink;
  std::size_t edge_count = 0;  // forward arcs
};

// Builds the aggregated network against the *current* free capacities of
// `state` (so bound pods are excluded from both sides).
RelaxationNetwork BuildRelaxationNetwork(const trace::Workload& workload,
                                         const cluster::ClusterState& state);

struct RelaxationBound {
  // Max-flow value: CPU millicores placeable ignoring anti-affinity and
  // impartibility.
  std::int64_t placeable_cpu_millis = 0;
  // Total CPU demand of the unplaced containers considered.
  std::int64_t demand_cpu_millis = 0;
};

// The relaxation's max-flow value in closed form; runs no flow solver.
RelaxationBound SolveRelaxation(const trace::Workload& workload,
                                const cluster::ClusterState& state);

// CPU millicores actually placed in `state` (for comparing against bounds).
std::int64_t PlacedCpuMillis(const cluster::ClusterState& state);

}  // namespace aladdin::core
