#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace watchman {
namespace {

TEST(HistogramTest, CountsFallIntoBuckets) {
  Histogram h(0.0, 10.0, 10);
  h.Add(0.5);
  h.Add(1.5);
  h.Add(1.7);
  h.Add(9.9);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(9), 1u);
}

TEST(HistogramTest, OutOfRangeClamped) {
  Histogram h(0.0, 10.0, 10);
  h.Add(-5.0);
  h.Add(50.0);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
}

TEST(HistogramTest, BucketBoundaries) {
  Histogram h(0.0, 100.0, 4);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(0), 25.0);
  EXPECT_DOUBLE_EQ(h.bucket_lo(3), 75.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(3), 100.0);
}

TEST(HistogramTest, QuantileOfUniformData) {
  Histogram h(0.0, 1000.0, 100);
  for (int i = 0; i < 1000; ++i) h.Add(static_cast<double>(i));
  EXPECT_NEAR(h.Quantile(0.5), 500.0, 20.0);
  EXPECT_NEAR(h.Quantile(0.9), 900.0, 20.0);
  EXPECT_NEAR(h.Quantile(0.0), 0.0, 20.0);
}

TEST(HistogramTest, ToStringNonEmpty) {
  Histogram h(0.0, 10.0, 10);
  h.Add(5.0);
  EXPECT_FALSE(h.ToString().empty());
}

TEST(HistogramTest, QuantileOfEmptyHistogramIsLowerBound) {
  Histogram h(2.0, 10.0, 8);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 2.0);
}

TEST(HistogramTest, QuantileSkipsLeadingEmptyBuckets) {
  // All mass in [70, 80): every quantile must land inside that bucket,
  // not interpolate across the empty leading range.
  Histogram h(0.0, 100.0, 10);
  for (int i = 0; i < 10; ++i) h.Add(75.0);
  EXPECT_GE(h.Quantile(0.0), 70.0);
  EXPECT_LE(h.Quantile(0.0), 80.0);
  EXPECT_GE(h.Quantile(0.5), 70.0);
  EXPECT_LE(h.Quantile(1.0), 80.0);
}

TEST(HistogramTest, QuantileClampsOutOfRangeArgument) {
  Histogram h(0.0, 10.0, 10);
  h.Add(5.0);
  EXPECT_DOUBLE_EQ(h.Quantile(-1.0), h.Quantile(0.0));
  EXPECT_DOUBLE_EQ(h.Quantile(2.0), h.Quantile(1.0));
}

TEST(HistogramTest, QuantileWithSparseBuckets) {
  // Mass split between two far-apart buckets; the median boundary must
  // not land in the empty middle.
  Histogram h(0.0, 100.0, 10);
  for (int i = 0; i < 5; ++i) h.Add(5.0);    // bucket [0, 10)
  for (int i = 0; i < 5; ++i) h.Add(95.0);   // bucket [90, 100)
  EXPECT_LE(h.Quantile(0.25), 10.0);
  EXPECT_GE(h.Quantile(0.75), 90.0);
}

TEST(HistogramTest, ToStringEmptyAndZeroRows) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_EQ(h.ToString(), "(empty histogram)\n");
  h.Add(5.0);
  // max_rows == 0 collapses everything into one row instead of
  // dividing by zero.
  const std::string one_row = h.ToString(0);
  EXPECT_FALSE(one_row.empty());
  EXPECT_EQ(std::count(one_row.begin(), one_row.end(), '\n'), 1);
}

}  // namespace
}  // namespace watchman
