// Priority weights for weighted flows (Eq. 3–5).
//
// Aladdin makes preemption priority-safe by scaling each container's flow
// contribution: the weighted flow w_k·f(i,j) of any higher-priority
// container must exceed that of any lower-priority one, so augmenting the
// network can never profit from displacing a high-priority container with a
// low-priority one (§III.B). Eq. 3 buckets containers by priority class;
// Eq. 4 anchors w_1 = 1; Eq. 5 requires
//     w_{k+1} >= minimize(x(k+1)) / maximize(x(k))
// ... such that w_{k+1}·min(x_{k+1}) > w_k·max(x_k), where x(k) is the set
// of flow magnitudes (resource requests) of class k.
//
// The evaluation's Aladdin(16/32/64/128) knob picks geometric weights with
// those bases; all satisfy Eq. 5 for the trace (max request = 16 CPUs) and
// therefore produce identical schedules — which the placement-quality bench
// demonstrates.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "trace/workload.h"

namespace aladdin::core {

struct PriorityWeights {
  // weight[k] is w_{k+1} in paper numbering (index 0 = lowest class, w = 1).
  std::vector<std::int64_t> weight;

  [[nodiscard]] std::int64_t WeightOf(cluster::Priority p) const {
    if (p < 0) p = 0;
    const auto idx = static_cast<std::size_t>(p);
    return idx < weight.size() ? weight[idx] : weight.back();
  }

  // The quantity Eq. 9 maximises per unit: weighted flow of a container.
  [[nodiscard]] std::int64_t WeightedFlow(
      const cluster::Container& c) const {
    // Flow magnitude = CPU millicores (the evaluation's flow dimension).
    return WeightOf(c.priority) * c.request.cpu_millis();
  }
};

// Eq. 3: the flow magnitudes x(k) of one priority class, as the range the
// Eq. 5 bounds read.
struct ClassRange {
  std::int64_t min_flow = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_flow = 0;
  bool present = false;
};
using ClassRanges = std::array<ClassRange, cluster::kPriorityClasses>;

// Widens `ranges` by the workload's containers [from, container_count()).
// Containers are append-only, so a caller that remembers `from` keeps the
// ranges of a growing workload in O(new containers).
void ExtendClassRanges(const trace::Workload& workload, std::size_t from,
                       ClassRanges& ranges);

// Smallest weights satisfying Eq. 4–5 for these class ranges: per class k,
// w_{k+1} = floor(w_k · max(x_k) / min(x_{k+1})) + 1. Absent classes
// inherit the previous weight.
PriorityWeights MinimalWeights(const ClassRanges& ranges);
// The same for a whole workload.
PriorityWeights ComputeMinimalWeights(const trace::Workload& workload);

// Geometric weights w_k = base^k — the paper's evaluation settings
// (base ∈ {16, 32, 64, 128}).
PriorityWeights MakeGeometricWeights(int classes, std::int64_t base);

// Checks Eq. 5: for every pair of adjacent classes present in the workload,
// the weighted flow of any class-(k+1) container strictly exceeds that of
// any class-k container.
bool SatisfiesEq5(const PriorityWeights& weights, const ClassRanges& ranges);
bool SatisfiesEq5(const PriorityWeights& weights,
                  const trace::Workload& workload);

}  // namespace aladdin::core
