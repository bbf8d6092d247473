// Unit tests of the benchmark's own arithmetic (src/arith.h): the
// percentile-with-ten-beyond rule, self time and off-CPU derivations, and
// the skew and ratio metrics.
#include "arith.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_DOUBLE_EQ(Percentile(OneTo(100), 50.0), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(OneTo(100), 90.0), 90.0);
  EXPECT_DOUBLE_EQ(Percentile(OneTo(10), 90.0), 9.0);
  EXPECT_DOUBLE_EQ(Percentile(OneTo(3), 90.0), 3.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 99.0), 7.0);
}

TEST(Percentile, MedianAveragesTheMiddlePair) {
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(TenBeyond, CountsSamplesAboveThePercentile) {
  EXPECT_EQ(SamplesBeyond(100, 90.0), 10u);
  EXPECT_EQ(SamplesBeyond(99, 90.0), 9u);
  EXPECT_EQ(SamplesBeyond(200, 90.0), 20u);
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(SamplesBeyond(0, 90.0), 0u);
}

TEST(TenBeyond, WindowLengthForAP90) {
  EXPECT_EQ(MinSamplesFor(90.0, 10), 100u);
  EXPECT_EQ(MinSamplesFor(99.0, 10), 1000u);
  EXPECT_EQ(MinSamplesFor(50.0, 10), 20u);
  for (double p : {50.0, 90.0, 99.0}) {
    const std::size_t n = MinSamplesFor(p, 10);
    EXPECT_GE(SamplesBeyond(n, p), 10u) << p;
    EXPECT_LT(SamplesBeyond(n - 1, p), 10u) << p;
  }
}

TEST(SelfTime, SpanMinusDirectChildren) {
  // tick [0,100] holds events [0,30] and resolve [30,90]; resolve holds
  // solve [40,80]. A second root, audit [100,120], has no children.
  const std::vector<Span> spans = {
      {"tick", -1, 0, 100},  {"events", 0, 0, 30},
      {"resolve", 0, 30, 90}, {"solve", 2, 40, 80},
      {"audit", -1, 100, 120},
  };
  const std::vector<std::int64_t> self = SelfTimes(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 10);  // 100 - 30 - 60: grandchildren are not subtracted
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 20);  // 60 - 40
  EXPECT_EQ(self[3], 40);
  EXPECT_EQ(self[4], 20);
  std::int64_t sum = 0;
  for (std::int64_t s : self) sum += s;
  EXPECT_EQ(sum, 120);  // self times partition the roots
}

TEST(SelfTime, ClampsWhenChildrenOvershoot) {
  const std::vector<Span> spans = {{"tick", -1, 0, 10}, {"a", 0, 0, 6},
                                   {"b", 0, 5, 11}};
  EXPECT_EQ(SelfTimes(spans)[0], 0);
  EXPECT_DOUBLE_EQ(SelfOf(10.0, {6.0, 6.0}), 0.0);
  EXPECT_DOUBLE_EQ(SelfOf(10.0, {2.5, 3.5}), 4.0);
  EXPECT_DOUBLE_EQ(SelfOf(10.0, {}), 10.0);
}

TEST(OffCpu, WallMinusCallerCpu) {
  EXPECT_DOUBLE_EQ(OffCpu(3.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(OffCpu(1.0, 1.2), 0.0);  // clock skew never goes negative
  EXPECT_DOUBLE_EQ(OtherThreadsCpu(4.5, 1.0), 3.5);
  EXPECT_DOUBLE_EQ(OtherThreadsCpu(0.9, 1.0), 0.0);
}

TEST(Skew, MaxOverMean) {
  EXPECT_DOUBLE_EQ(MaxOverMean({10.0, 10.0, 10.0, 10.0}), 1.0);
  EXPECT_DOUBLE_EQ(MaxOverMean({40.0, 0.0, 0.0, 0.0}), 4.0);
  EXPECT_DOUBLE_EQ(MaxOverMean({3.0, 1.0}), 1.5);
  EXPECT_DOUBLE_EQ(MaxOverMean({}), 0.0);
  EXPECT_DOUBLE_EQ(MaxOverMean({0.0, 0.0}), 0.0);
}

TEST(Ratio, GuardsAZeroBase) {
  EXPECT_DOUBLE_EQ(Ratio(6.0, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(Ratio(6.0, 0.0), 0.0);
  // Shard parallelism: 120 ms of solves on a 50 ms critical path.
  EXPECT_DOUBLE_EQ(Ratio(120.0, 50.0), 2.4);
}

TEST(Ratio, TracingOverhead) {
  EXPECT_DOUBLE_EQ(OverheadPct(100.0, 95.0), 5.0);
  EXPECT_DOUBLE_EQ(OverheadPct(100.0, 105.0), -5.0);
  EXPECT_DOUBLE_EQ(OverheadPct(0.0, 10.0), 0.0);
}

}  // namespace
}  // namespace perfbench
