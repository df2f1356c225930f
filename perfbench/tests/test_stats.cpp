// Tests of the math the benchmark's published numbers rest on: percentiles
// with their support rule, the geometric mean, self-time subtraction and
// open-loop lateness accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Percentile, NearestRankOnOneToHundred) {
  const Percentile p90 = percentile(one_to(100), 0.9);
  EXPECT_EQ(p90.value, 90.0);
  EXPECT_EQ(p90.samples, 100u);
  EXPECT_EQ(p90.beyond, 10u);
  EXPECT_TRUE(p90.supported);
  const Percentile p50 = percentile(one_to(100), 0.5);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.beyond, 50u);
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  // p90 of 99 samples sits at rank 90 with only 9 beyond it.
  const Percentile short_run = percentile(one_to(99), 0.9);
  EXPECT_EQ(short_run.value, 90.0);
  EXPECT_EQ(short_run.beyond, 9u);
  EXPECT_FALSE(short_run.supported);
  // Eight tune_bao tasks: the "p90" is the largest sample.
  const Percentile eight = percentile(one_to(8), 0.9);
  EXPECT_EQ(eight.value, 8.0);
  EXPECT_EQ(eight.samples, 8u);
  EXPECT_EQ(eight.beyond, 0u);
  EXPECT_FALSE(eight.supported);
  // 210 tune_init tasks support p90 (21 beyond).
  const Percentile many = percentile(one_to(210), 0.9);
  EXPECT_EQ(many.value, 189.0);
  EXPECT_EQ(many.beyond, 21u);
  EXPECT_TRUE(many.supported);
}

TEST(Percentile, EdgeCases) {
  const Percentile empty = percentile({}, 0.9);
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_FALSE(empty.supported);
  EXPECT_EQ(percentile({7}, 0.9).value, 7.0);
  EXPECT_EQ(percentile(one_to(10), 1.0).value, 10.0);
  EXPECT_THROW(percentile({1}, 0.0), std::invalid_argument);
  EXPECT_THROW(percentile({1}, 1.5), std::invalid_argument);
}

TEST(MedianOverPasses, OneStatisticPerPassThenTheMedian) {
  const auto p90 = [](const std::vector<double>& v) {
    return percentile(v, 0.9).value;
  };
  const auto mid = [](const std::vector<double>& v) { return median(v); };
  // Three passes of eight tasks; the second ran in a burst of host load.
  const std::vector<std::vector<double>> passes = {
      one_to(8), {10, 20, 30, 40, 50, 60, 70, 80}, {2, 1, 3, 4, 5, 6, 7, 9}};
  // p90 of eight samples is each pass's largest: 8, 80, 9.
  EXPECT_EQ(median_over_passes(passes, p90), 9.0);
  // Medians 4.5, 45, 4.5.
  EXPECT_EQ(median_over_passes(passes, mid), 4.5);
  // Two passes: the mean of their statistics.
  EXPECT_EQ(median_over_passes({one_to(10), {20}}, p90), 14.5);
  // Passes without samples are skipped, not counted as 0.
  EXPECT_EQ(median_over_passes({{}, one_to(4), {}}, mid), 2.5);
  EXPECT_EQ(median_over_passes({{}, {}}, p90), 0.0);
}

TEST(Geomean, MatchesClosedForm) {
  EXPECT_DOUBLE_EQ(geomean({2, 8}), 4.0);
  EXPECT_DOUBLE_EQ(geomean({5}), 5.0);
  EXPECT_NEAR(geomean({1, 10, 100}), 10.0, 1e-12);
}

TEST(Geomean, RejectsWhatCannotBeAveraged) {
  EXPECT_THROW(geomean({}), std::invalid_argument);
  EXPECT_THROW(geomean({1, 0}), std::invalid_argument);
  EXPECT_THROW(geomean({1, -2}), std::invalid_argument);
  EXPECT_THROW(geomean({1, std::nan("")}), std::invalid_argument);
}

TEST(Coverage, UnionCountsOverlapOnce) {
  // Two lanes overlapping on [2, 3], plus a disjoint span.
  EXPECT_DOUBLE_EQ(covered_within({{0, 3}, {2, 5}, {7, 8}}, {0, 10}), 6.0);
  // Nested spans add nothing.
  EXPECT_DOUBLE_EQ(covered_within({{1, 9}, {2, 3}, {4, 5}}, {0, 10}), 8.0);
  EXPECT_DOUBLE_EQ(covered_within({}, {0, 10}), 0.0);
}

TEST(Coverage, ClipsToTheWindow) {
  EXPECT_DOUBLE_EQ(covered_within({{-5, 2}, {8, 20}}, {0, 10}), 4.0);
  EXPECT_DOUBLE_EQ(covered_within({{11, 12}}, {0, 10}), 0.0);
}

TEST(SelfTime, SubtractsChildrenInsideTheParent) {
  // A BAO propose [0, 10] with a fit [1, 3] and a score [5, 6].
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {{1, 3}, {5, 6}}), 7.0);
  // Bootstrap fits run in parallel on pool threads: overlapping children
  // are wall time spent once.
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {{1, 4}, {1, 4}, {2, 5}}), 6.0);
  // Children of another call outside the parent do not count.
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {{12, 15}}), 10.0);
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {{0, 10}}), 0.0);
}

TEST(OpenLoop, LatencyCountsFromTheDueTime) {
  // Due at 1.0, sent late at 1.5 after a generator stall, done at 3.0.
  const OpenLoopOp late{1.0, 1.5, 3.0};
  EXPECT_DOUBLE_EQ(late.latency(), 2.0);
  EXPECT_DOUBLE_EQ(late.lateness(), 0.5);
  // Sent on time: the latency is service time only.
  const OpenLoopOp on_time{1.0, 1.0, 1.25};
  EXPECT_DOUBLE_EQ(on_time.latency(), 0.25);
  EXPECT_DOUBLE_EQ(on_time.lateness(), 0.0);
  // A send a hair before its due time is on time, not negative lateness.
  EXPECT_DOUBLE_EQ((OpenLoopOp{1.0, 0.999, 2.0}).lateness(), 0.0);
}

TEST(OpenLoop, StallIsChargedToEveryDelayedOp) {
  // Three ops due every 100 ms; the generator stalls 250 ms before sending
  // the first, then sends the backlog at once. Each op pays the stall.
  const std::vector<OpenLoopOp> ops = {
      {0.0, 0.25, 0.30}, {0.1, 0.25, 0.31}, {0.2, 0.25, 0.32}};
  std::vector<double> latency, late;
  for (const OpenLoopOp& op : ops) {
    latency.push_back(op.latency());
    late.push_back(op.lateness());
  }
  EXPECT_NEAR(latency[0], 0.30, 1e-12);
  EXPECT_NEAR(latency[1], 0.21, 1e-12);
  EXPECT_NEAR(latency[2], 0.12, 1e-12);
  EXPECT_NEAR(median(late), 0.15, 1e-12);
}

}  // namespace
}  // namespace perfbench
