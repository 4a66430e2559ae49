#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace rupam {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 42.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 42.0);
  EXPECT_EQ(s.max(), 42.0);
}

TEST(RunningStats, KnownSample) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(ConfidenceInterval, ZeroForTinySamples) {
  EXPECT_EQ(confidence_interval_95(5.0, 0), 0.0);
  EXPECT_EQ(confidence_interval_95(5.0, 1), 0.0);
}

TEST(ConfidenceInterval, FiveRunProtocol) {
  // n=5 -> t(4) = 2.776; CI = t * s / sqrt(5).
  double ci = confidence_interval_95(10.0, 5);
  EXPECT_NEAR(ci, 2.776 * 10.0 / std::sqrt(5.0), 1e-9);
}

TEST(ConfidenceInterval, ShrinksWithSampleSize) {
  EXPECT_GT(confidence_interval_95(1.0, 3), confidence_interval_95(1.0, 10));
  EXPECT_GT(confidence_interval_95(1.0, 10), confidence_interval_95(1.0, 100));
}

TEST(Percentile, Median) {
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0}, 50.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.5);
}

TEST(Percentile, Extremes) {
  std::vector<double> v{5.0, 1.0, 9.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 9.0);
}

TEST(Percentile, RejectsEmptyAndBadP) {
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101.0), std::invalid_argument);
}

class PercentileMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(PercentileMonotoneTest, MonotoneInP) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(rng.uniform(0.0, 1000.0));
  double prev = percentile(v, 0.0);
  for (double p = 5.0; p <= 100.0; p += 5.0) {
    double cur = percentile(v, p);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotoneTest, ::testing::Range(1, 9));

TEST(Helpers, MeanOf) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean_of(v), 2.5);
}

}  // namespace
}  // namespace rupam
