// The benchmark's own arithmetic: percentiles under the ten-beyond rule,
// self time from nested spans, off-CPU time, skew and guarded ratios.
// Everything here is pure and unit-tested (tests/arith_test.cpp); the
// workloads only feed it samples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Nearest-rank percentile (p in (0, 100]) of `values`; 0 for no samples.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// Samples ranked strictly above the nearest-rank p-th percentile of n.
std::size_t SamplesBeyond(std::size_t n, double p);

// Smallest sample count whose p-th percentile has at least `beyond`
// samples above it (the window length a p90 needs: 100 for beyond = 10).
std::size_t MinSamplesFor(double p, std::size_t beyond);

// One closed interval of a benchmark span tree. `parent` indexes the
// enclosing span in the same vector, -1 for a root. Children must lie
// inside their parent and must not overlap one another.
struct Span {
  std::string name;
  int parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

// Self time of every span: its duration minus the durations of its direct
// children, clamped at 0 (clock granularity can make children overshoot).
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

// Self time of `parent_total` after removing the time its children cover,
// clamped at 0 — the same rule for totals that come from an accumulator
// instead of individual spans.
double SelfOf(double parent_total, const std::vector<double>& children);

// Time the calling thread spent off CPU while it waited for a call: wall
// minus the thread's own CPU time, clamped at 0.
double OffCpu(double wall_s, double thread_cpu_s);

// CPU burnt by every other thread of the process while the caller ran:
// process CPU minus the caller's thread CPU, clamped at 0.
double OtherThreadsCpu(double process_cpu_s, double thread_cpu_s);

// max / mean of the values; 0 for an empty or all-zero input. 1 = even.
double MaxOverMean(const std::vector<double>& values);

// num / den, or 0 when den is 0 (a layer that did no work).
double Ratio(double num, double den);

// Rate lost to tracing, in percent of the untraced rate:
// (untraced - traced) / untraced * 100. Positive = tracing slowed the run.
double OverheadPct(double untraced_rate, double traced_rate);

}  // namespace perfbench
