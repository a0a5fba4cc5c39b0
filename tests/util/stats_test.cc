#include "util/stats.h"

#include <cmath>
#include <vector>

#include "gtest/gtest.h"
#include "util/rng.h"

namespace amici {
namespace {

TEST(OnlineStatsTest, EmptyAccumulator) {
  OnlineStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.min(), 0.0);
  EXPECT_EQ(stats.max(), 0.0);
}

TEST(OnlineStatsTest, KnownMoments) {
  OnlineStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.Add(x);
  }
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(stats.min(), 2.0);
  EXPECT_EQ(stats.max(), 9.0);
  EXPECT_NEAR(stats.sum(), 40.0, 1e-12);
}

TEST(OnlineStatsTest, MergeEqualsSequential) {
  Rng rng(5);
  OnlineStats all;
  OnlineStats left;
  OnlineStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Gaussian(3.0, 2.0);
    all.Add(x);
    if (i % 2 == 0) {
      left.Add(x);
    } else {
      right.Add(x);
    }
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(OnlineStatsTest, MergeWithEmptySides) {
  OnlineStats filled;
  filled.Add(1.0);
  filled.Add(3.0);
  OnlineStats empty;
  filled.Merge(empty);
  EXPECT_EQ(filled.count(), 2u);
  empty.Merge(filled);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(PercentileTest, InterpolatesBetweenSamples) {
  const std::vector<double> sorted{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(PercentileOfSorted(sorted, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(sorted, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(sorted, 50.0), 25.0);
}

TEST(PercentileTest, DegenerateInputs) {
  EXPECT_EQ(PercentileOfSorted({}, 50.0), 0.0);
  EXPECT_EQ(PercentileOfSorted({7.0}, 99.0), 7.0);
}

TEST(LatencyRecorderTest, SummaryOfUniformRamp) {
  LatencyRecorder recorder;
  for (int i = 1; i <= 100; ++i) recorder.Record(static_cast<double>(i));
  const LatencySummary summary = recorder.Summarize();
  EXPECT_EQ(summary.count, 100u);
  EXPECT_DOUBLE_EQ(summary.min, 1.0);
  EXPECT_DOUBLE_EQ(summary.max, 100.0);
  EXPECT_NEAR(summary.mean, 50.5, 1e-9);
  EXPECT_NEAR(summary.p50, 50.5, 1.0);
  EXPECT_NEAR(summary.p90, 90.1, 1.0);
  EXPECT_NEAR(summary.p99, 99.0, 1.1);
}

TEST(LatencyRecorderTest, EmptySummaryIsZeroed) {
  LatencyRecorder recorder;
  const LatencySummary summary = recorder.Summarize();
  EXPECT_EQ(summary.count, 0u);
  EXPECT_EQ(summary.mean, 0.0);
}

}  // namespace
}  // namespace amici
