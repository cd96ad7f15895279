#include "common/histogram.h"

#include <cmath>

#include <gtest/gtest.h>

#include "kbt/obs.h"

namespace kbt {
namespace {

// The paper-figure axes are edge lists; obs::Histogram does the bucketing.
using obs::Histogram;

TEST(HistogramTest, BucketIndexRespectsEdges) {
  Histogram h({0.0, 1.0, 2.0});
  EXPECT_EQ(h.BucketIndex(0.0), 0u);
  EXPECT_EQ(h.BucketIndex(0.99), 0u);
  EXPECT_EQ(h.BucketIndex(1.0), 1u);
  EXPECT_EQ(h.BucketIndex(1.5), 1u);
  EXPECT_EQ(h.BucketIndex(2.0), 2u);   // catch-all >= last edge
  EXPECT_EQ(h.BucketIndex(99.0), 2u);
}

TEST(HistogramTest, ValuesBelowFirstEdgeClampToFirstBucket) {
  Histogram h({1.0, 2.0});
  EXPECT_EQ(h.BucketIndex(0.5), 0u);
}

TEST(HistogramTest, AddAccumulatesWeight) {
  Histogram h({0.0, 1.0});
  h.Add(0.5);
  h.Add(0.5, 2.0);
  h.Add(1.5, 4.0);
  EXPECT_DOUBLE_EQ(h.bucket_count(0), 3.0);
  EXPECT_DOUBLE_EQ(h.bucket_count(1), 4.0);
  EXPECT_DOUBLE_EQ(h.total_weight(), 7.0);
  EXPECT_DOUBLE_EQ(h.Fraction(0), 3.0 / 7.0);
}

TEST(HistogramTest, TripleCountBucketsMatchFigure5Axis) {
  Histogram h(TripleCountBucketEdges());
  // 1..10 singleton buckets + 11-100, 100-1K, 1K-10K, 10K-100K, 100K-1M, >1M.
  EXPECT_EQ(h.num_buckets(), 16u);
  EXPECT_EQ(h.BucketIndex(1), 0u);
  EXPECT_EQ(h.BucketIndex(5), 4u);
  EXPECT_EQ(h.BucketIndex(10), 9u);
  EXPECT_EQ(h.BucketIndex(11), 10u);
  EXPECT_EQ(h.BucketIndex(100), 10u);
  EXPECT_EQ(h.BucketIndex(101), 11u);
  EXPECT_EQ(h.BucketIndex(50000), 13u);
  EXPECT_EQ(h.BucketIndex(2000000), 15u);
}

TEST(HistogramTest, UniformProbabilityBuckets) {
  Histogram h(UniformProbabilityBucketEdges(20));
  EXPECT_EQ(h.num_buckets(), 20u);
  EXPECT_EQ(h.BucketIndex(0.0), 0u);
  EXPECT_EQ(h.BucketIndex(0.049), 0u);
  EXPECT_EQ(h.BucketIndex(0.05), 1u);
  EXPECT_EQ(h.BucketIndex(0.951), 19u);
  EXPECT_EQ(h.BucketIndex(1.0), 19u);
}

TEST(HistogramTest, WDevBucketsAreFineAtTheEnds) {
  Histogram h(WDevBucketEdges());
  // [0,0.01).. x5, [0.05,0.1).. x18, [0.95,0.96).. x5, [1,1] -> 29 buckets.
  EXPECT_EQ(h.num_buckets(), 29u);
  // Fine granularity near 0.
  EXPECT_NE(h.BucketIndex(0.005), h.BucketIndex(0.015));
  // Coarse in the middle: 0.52 and 0.54 share a bucket.
  EXPECT_EQ(h.BucketIndex(0.52), h.BucketIndex(0.54));
  // Fine again near 1.
  EXPECT_NE(h.BucketIndex(0.955), h.BucketIndex(0.965));
  // Exact 1.0 isolated in its own [1,1] bucket.
  EXPECT_NE(h.BucketIndex(0.999), h.BucketIndex(1.0));
}

TEST(HistogramTest, ClearResetsCounts) {
  Histogram h({0.0, 1.0});
  h.Add(0.5, 3.0);
  h.Clear();
  EXPECT_DOUBLE_EQ(h.total_weight(), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_count(0), 0.0);
}

TEST(HistogramTest, LabelsAreReadable) {
  Histogram h({0.0, 0.5});
  EXPECT_EQ(h.BucketLabel(0), "[0,0.5)");
  EXPECT_EQ(h.BucketLabel(1), ">=0.5");
}

TEST(HistogramTest, UpperEdgeOfLastBucketIsInfinite) {
  Histogram h({0.0, 1.0});
  EXPECT_TRUE(std::isinf(h.bucket_upper(1)));
  EXPECT_DOUBLE_EQ(h.bucket_upper(0), 1.0);
}

}  // namespace
}  // namespace kbt
