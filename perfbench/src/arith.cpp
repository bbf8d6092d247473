#include "arith.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// 1-based nearest rank of the p-th percentile among n samples.
std::size_t NearestRank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const std::size_t rank = NearestRank(values.size(), p);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::size_t SamplesBeyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

std::size_t MinSamplesFor(double p, std::size_t beyond) {
  std::size_t n = beyond + 1;
  while (SamplesBeyond(n, p) < beyond) ++n;
  return n;
}

std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration_ns();
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.duration_ns();
    }
  }
  for (std::int64_t& v : self) v = std::max<std::int64_t>(v, 0);
  return self;
}

double SelfOf(double parent_total, const std::vector<double>& children) {
  double self = parent_total;
  for (double c : children) self -= c;
  return std::max(self, 0.0);
}

double OffCpu(double wall_s, double thread_cpu_s) {
  return std::max(wall_s - thread_cpu_s, 0.0);
}

double OtherThreadsCpu(double process_cpu_s, double thread_cpu_s) {
  return std::max(process_cpu_s - thread_cpu_s, 0.0);
}

double MaxOverMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  double max = 0.0;
  for (double v : values) {
    sum += v;
    max = std::max(max, v);
  }
  if (sum <= 0.0) return 0.0;
  return max / (sum / static_cast<double>(values.size()));
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double OverheadPct(double untraced_rate, double traced_rate) {
  return Ratio(untraced_rate - traced_rate, untraced_rate) * 100.0;
}

}  // namespace perfbench
