// obs::Histogram unit tests: bucket-boundary conventions (clamp below,
// half-open interior buckets, >= catch-all), quantile estimation,
// weighted adds, and the merge contract — merging two snapshots then
// estimating a quantile equals estimating it over the combined stream.
#include <cmath>
#include <cstdint>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "kbt/obs.h"

namespace kbt::obs {
namespace {

TEST(BucketEdgesTest, LogEdgesSpacingAndRange) {
  const std::vector<double> edges = LogBucketEdges(1e-9, 1e3, 4);
  ASSERT_GE(edges.size(), 2u);
  EXPECT_DOUBLE_EQ(edges.front(), 1e-9);
  EXPECT_GE(edges.back(), 1e3 * 0.999);
  // Log-spaced: the ratio between consecutive edges is constant 10^(1/4).
  const double ratio = std::pow(10.0, 0.25);
  for (size_t i = 1; i < edges.size(); ++i) {
    EXPECT_NEAR(edges[i] / edges[i - 1], ratio, 1e-9) << i;
  }
}

TEST(BucketEdgesTest, LatencyEdgesCoverNanosToKiloseconds) {
  const std::vector<double> edges = LatencyBucketEdges();
  EXPECT_DOUBLE_EQ(edges.front(), 1e-9);
  EXPECT_GE(edges.back(), 999.0);
  // Strictly increasing — required by the Histogram constructor contract.
  for (size_t i = 1; i < edges.size(); ++i) {
    EXPECT_LT(edges[i - 1], edges[i]);
  }
}

TEST(BucketIndexTest, BoundaryConventions) {
  const std::vector<double> edges{1.0, 2.0, 4.0};
  // Below the first edge clamps into bucket 0.
  EXPECT_EQ(BucketIndexFor(edges, 0.0), 0u);
  EXPECT_EQ(BucketIndexFor(edges, 0.999), 0u);
  // Half-open [lower, upper): an exact edge lands in the bucket it opens.
  EXPECT_EQ(BucketIndexFor(edges, 1.0), 0u);
  EXPECT_EQ(BucketIndexFor(edges, 1.999), 0u);
  EXPECT_EQ(BucketIndexFor(edges, 2.0), 1u);
  EXPECT_EQ(BucketIndexFor(edges, 3.999), 1u);
  // At or above the last edge: the catch-all.
  EXPECT_EQ(BucketIndexFor(edges, 4.0), 2u);
  EXPECT_EQ(BucketIndexFor(edges, 1e12), 2u);
}

TEST(HistogramTest, RecordsIntoCorrectBuckets) {
  Histogram hist({1.0, 10.0, 100.0});
  hist.Record(0.5);    // below the first edge: clamps into bucket 0
  hist.Record(5.0);    // bucket 0: [1,10)
  hist.Record(50.0);   // bucket 1: [10,100)
  hist.Record(500.0);  // bucket 2: >= 100
  ASSERT_EQ(hist.num_buckets(), 3u);
  EXPECT_DOUBLE_EQ(hist.bucket_count(0), 2.0);
  EXPECT_DOUBLE_EQ(hist.bucket_count(1), 1.0);
  EXPECT_DOUBLE_EQ(hist.bucket_count(2), 1.0);
  EXPECT_DOUBLE_EQ(hist.total_weight(), 4.0);

  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.samples, 4u);
  EXPECT_DOUBLE_EQ(snap.min_value, 0.5);
  EXPECT_DOUBLE_EQ(snap.max_value, 500.0);
  EXPECT_DOUBLE_EQ(snap.weighted_sum, 0.5 + 5.0 + 50.0 + 500.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), (0.5 + 5.0 + 50.0 + 500.0) / 4.0);
}

TEST(HistogramTest, WeightedAddSeparatesWeightFromSampleCount) {
  Histogram hist({1.0, 10.0});
  hist.Add(2.0, 128.0);  // one batch of 128 per-op samples
  hist.Add(3.0, 64.0);
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.samples, 2u);  // Add calls
  EXPECT_DOUBLE_EQ(snap.total_weight, 192.0);
  EXPECT_DOUBLE_EQ(snap.weighted_sum, 2.0 * 128.0 + 3.0 * 64.0);
  EXPECT_DOUBLE_EQ(snap.counts[0], 192.0);
}

TEST(HistogramTest, FractionAndLabels) {
  Histogram hist({0.0, 0.5, 1.0});
  hist.Record(0.25);
  hist.Record(0.75);
  hist.Record(0.8);
  hist.Record(1.5);
  EXPECT_DOUBLE_EQ(hist.Fraction(0), 0.25);
  EXPECT_DOUBLE_EQ(hist.Fraction(1), 0.5);
  EXPECT_DOUBLE_EQ(hist.Fraction(2), 0.25);
  EXPECT_EQ(hist.BucketLabel(0), BucketLabelFor(hist.edges(), 0));
  // The catch-all's upper edge reports +inf.
  EXPECT_TRUE(std::isinf(hist.bucket_upper(2)));
  EXPECT_DOUBLE_EQ(hist.bucket_lower(2), 1.0);
}

TEST(HistogramTest, ClearKeepsEdges) {
  Histogram hist({1.0, 2.0});
  hist.Record(1.5);
  hist.Clear();
  EXPECT_DOUBLE_EQ(hist.total_weight(), 0.0);
  EXPECT_EQ(hist.Snapshot().samples, 0u);
  ASSERT_EQ(hist.edges().size(), 2u);
  hist.Record(1.5);
  EXPECT_DOUBLE_EQ(hist.bucket_count(0), 1.0);
}

TEST(HistogramTest, QuantileEmptyAndSingle) {
  Histogram hist({1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(hist.Snapshot().Quantile(0.5), 0.0);
  hist.Record(1.5);
  const HistogramSnapshot snap = hist.Snapshot();
  // One sample: every quantile clamps to the observed value range.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.0), 1.5);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 1.5);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 1.5);
}

TEST(HistogramTest, QuantileWithinBucketResolution) {
  // 1000 uniform samples in [0, 1): the estimated quantile must land in
  // the bucket holding the true quantile (edges every 0.1).
  std::vector<double> edges;
  for (int i = 0; i <= 10; ++i) edges.push_back(0.1 * i);
  Histogram hist(edges);
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  for (int i = 0; i < 1000; ++i) hist.Record(uni(rng));
  const HistogramSnapshot snap = hist.Snapshot();
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_NEAR(snap.Quantile(q), q, 0.1 + 0.02) << "q=" << q;
  }
  // q = 1 is exact: the maximum observed value.
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), snap.max_value);
}

TEST(HistogramTest, MergeEqualsCombinedStream) {
  const std::vector<double> edges = LogBucketEdges(1e-6, 10.0, 4);
  Histogram a(edges);
  Histogram b(edges);
  Histogram combined(edges);
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> lat(-7.0, 2.0);
  for (int i = 0; i < 5000; ++i) {
    const double v = lat(rng);
    (i % 3 == 0 ? a : b).Record(v);
    combined.Record(v);
  }
  HistogramSnapshot merged = a.Snapshot();
  ASSERT_TRUE(merged.MergeFrom(b.Snapshot()));
  const HistogramSnapshot expect = combined.Snapshot();
  ASSERT_EQ(merged.counts.size(), expect.counts.size());
  for (size_t i = 0; i < merged.counts.size(); ++i) {
    EXPECT_DOUBLE_EQ(merged.counts[i], expect.counts[i]) << i;
  }
  EXPECT_EQ(merged.samples, expect.samples);
  EXPECT_DOUBLE_EQ(merged.total_weight, expect.total_weight);
  EXPECT_DOUBLE_EQ(merged.min_value, expect.min_value);
  EXPECT_DOUBLE_EQ(merged.max_value, expect.max_value);
  // The headline claim: quantiles over the merge == quantiles over the
  // combined stream, exactly (same buckets, same interpolation inputs).
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(merged.Quantile(q), expect.Quantile(q)) << "q=" << q;
  }
}

TEST(HistogramTest, MergeRejectsMismatchedEdges) {
  Histogram a({1.0, 2.0});
  Histogram b({1.0, 3.0});
  a.Record(1.5);
  b.Record(1.5);
  HistogramSnapshot snap = a.Snapshot();
  const HistogramSnapshot before = snap;
  EXPECT_FALSE(snap.MergeFrom(b.Snapshot()));
  // Left untouched on rejection.
  EXPECT_EQ(snap.samples, before.samples);
  EXPECT_DOUBLE_EQ(snap.counts[0], before.counts[0]);
}

TEST(HistogramTest, MergeIntoEmptyAdoptsMinMax) {
  Histogram a({1.0, 2.0});
  Histogram b({1.0, 2.0});
  b.Record(1.2);
  b.Record(5.0);
  HistogramSnapshot snap = a.Snapshot();
  ASSERT_TRUE(snap.MergeFrom(b.Snapshot()));
  EXPECT_DOUBLE_EQ(snap.min_value, 1.2);
  EXPECT_DOUBLE_EQ(snap.max_value, 5.0);
  EXPECT_EQ(snap.samples, 2u);
}

TEST(HistogramTest, CopyCapturesValues) {
  Histogram a({1.0, 2.0});
  a.Record(1.5);
  Histogram b(a);
  a.Record(1.6);
  EXPECT_DOUBLE_EQ(b.total_weight(), 1.0);
  EXPECT_DOUBLE_EQ(a.total_weight(), 2.0);
  b = a;
  EXPECT_DOUBLE_EQ(b.total_weight(), 2.0);
}

// The constructor asserts its edge contract; a release build skips the
// check (EXPECT_DEBUG_DEATH then only runs the statement).
TEST(HistogramDeathTest, ConstructorRejectsEmptyOrUnsortedEdges) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const auto make = [](std::vector<double> edges) {
    return Histogram(std::move(edges)).num_buckets();
  };
  EXPECT_DEBUG_DEATH(make({}), "");
  EXPECT_DEBUG_DEATH(make({1.0, 1.0}), "");
  EXPECT_DEBUG_DEATH(make({2.0, 1.0}), "");
  EXPECT_EQ(make({1.0, 2.0}), 2u);
}

TEST(HistogramTest, ConcurrentAddsLoseNothing) {
  Histogram hist(LatencyBucketEdges());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      std::mt19937_64 rng(static_cast<uint64_t>(t));
      std::uniform_real_distribution<double> uni(1e-6, 1.0);
      for (int i = 0; i < kPerThread; ++i) hist.Record(uni(rng));
    });
  }
  for (auto& thread : threads) thread.join();
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.samples, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(snap.total_weight,
                   static_cast<double>(kThreads) * kPerThread);
  double bucket_sum = 0.0;
  for (double c : snap.counts) bucket_sum += c;
  EXPECT_DOUBLE_EQ(bucket_sum, snap.total_weight);
}

}  // namespace
}  // namespace kbt::obs
