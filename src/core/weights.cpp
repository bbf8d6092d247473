#include "core/weights.h"

#include <algorithm>
#include <limits>

namespace aladdin::core {

namespace {

ClassRanges RangesOf(const trace::Workload& workload) {
  ClassRanges ranges{};
  ExtendClassRanges(workload, 0, ranges);
  return ranges;
}

}  // namespace

void ExtendClassRanges(const trace::Workload& workload, std::size_t from,
                       ClassRanges& ranges) {
  const std::vector<cluster::Container>& containers = workload.containers();
  for (std::size_t i = from; i < containers.size(); ++i) {
    const cluster::Container& c = containers[i];
    const auto k = static_cast<std::size_t>(
        std::clamp<cluster::Priority>(c.priority, 0,
                                      cluster::kPriorityClasses - 1));
    ClassRange& r = ranges[k];
    r.present = true;
    const std::int64_t flow = c.request.cpu_millis();
    r.min_flow = std::min(r.min_flow, flow);
    r.max_flow = std::max(r.max_flow, flow);
  }
}

PriorityWeights MinimalWeights(const ClassRanges& ranges) {
  PriorityWeights weights;
  weights.weight.assign(ranges.size(), 1);  // Eq. 4: w_1 = 1
  std::int64_t prev_weight = 1;
  std::int64_t prev_max = 0;
  for (std::size_t k = 0; k < ranges.size(); ++k) {
    if (k == 0) {
      prev_max = ranges[k].present ? ranges[k].max_flow : 0;
      continue;
    }
    std::int64_t w = prev_weight;
    if (ranges[k].present && prev_max > 0) {
      // Smallest integer with w·min(x_k) > prev_weight·max(x_{k-1}).
      w = (prev_weight * prev_max) / ranges[k].min_flow + 1;
      w = std::max(w, prev_weight);
    }
    weights.weight[k] = w;
    prev_weight = w;
    if (ranges[k].present) prev_max = ranges[k].max_flow;
  }
  return weights;
}

PriorityWeights ComputeMinimalWeights(const trace::Workload& workload) {
  return MinimalWeights(RangesOf(workload));
}

PriorityWeights MakeGeometricWeights(int classes, std::int64_t base) {
  PriorityWeights weights;
  weights.weight.reserve(static_cast<std::size_t>(classes));
  std::int64_t w = 1;
  for (int k = 0; k < classes; ++k) {
    weights.weight.push_back(w);
    w *= base;
  }
  return weights;
}

bool SatisfiesEq5(const PriorityWeights& weights,
                  const trace::Workload& workload) {
  return SatisfiesEq5(weights, RangesOf(workload));
}

bool SatisfiesEq5(const PriorityWeights& weights, const ClassRanges& ranges) {
  // Compare each present class against the next present class above it.
  std::size_t prev = ranges.size();
  for (std::size_t k = 0; k < ranges.size(); ++k) {
    if (!ranges[k].present) continue;
    if (prev != ranges.size()) {
      const std::int64_t low = weights.WeightOf(
                                   static_cast<cluster::Priority>(prev)) *
                               ranges[prev].max_flow;
      const std::int64_t high = weights.WeightOf(
                                    static_cast<cluster::Priority>(k)) *
                                ranges[k].min_flow;
      if (high <= low) return false;
    }
    prev = k;
  }
  return true;
}

}  // namespace aladdin::core
