#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace rupam {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u32() == b.next_u32();
  EXPECT_LT(same, 5);
}

TEST(Rng, ParseSeedIsStrict) {
  EXPECT_EQ(parse_seed("0"), 0u);
  EXPECT_EQ(parse_seed("42"), 42u);
  EXPECT_EQ(parse_seed("9007199254740992"), kMaxSeed);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1.0", "1e3", "0x10", "abc",
                          "9007199254740993", "99999999999999999999999"}) {
    EXPECT_FALSE(parse_seed(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(Rng, ParseNumberIsStrict) {
  EXPECT_EQ(parse_number<int>("42"), 42);
  EXPECT_EQ(parse_number<int>("-7"), -7);
  EXPECT_EQ(parse_number<int>("2147483647"), 2147483647);
  for (const char* bad : {"", "abc", "2x", " 1", "1 ", "+1", "1.5", "1e3", "0x10",
                          "2147483648", "-2147483649"}) {
    EXPECT_FALSE(parse_number<int>(bad).has_value()) << "'" << bad << "'";
  }
  EXPECT_EQ(parse_number<double>("0.25"), 0.25);
  EXPECT_EQ(parse_number<double>("-3"), -3.0);
  EXPECT_EQ(parse_number<double>("1e2"), 100.0);
  for (const char* bad : {"", "abc", "2x", " 1", "1..5", "nan", "inf", "-inf", "infinity",
                          "1e999", "-1e999"}) {
    EXPECT_FALSE(parse_number<double>(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform(3.0, 9.0);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform_index(17), 17u);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  double sum = 0.0, sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, ClampedNormalStaysInBounds) {
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    double v = rng.clamped_normal(0.0, 10.0, -1.0, 1.0);
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(9);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(13);
  for (int i = 0; i < 5000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.split();
  // The child stream must not mirror the parent.
  Rng b(42);
  b.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += child.next_u32() == a.next_u32();
  EXPECT_LT(same, 5);
}

class ZipfTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfTest, SamplesInRangeAndSkewed) {
  double exponent = GetParam();
  ZipfDistribution zipf(100, exponent);
  Rng rng(17);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) {
    std::size_t v = zipf(rng);
    ASSERT_LT(v, 100u);
    counts[v]++;
  }
  // Rank 0 must be the most frequent for any positive exponent.
  EXPECT_EQ(std::distance(counts.begin(), std::max_element(counts.begin(), counts.end())), 0);
  // Heavier exponents concentrate more mass at the head.
  if (exponent >= 1.0) EXPECT_GT(counts[0], counts[50] * 5);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfTest, ::testing::Values(0.5, 0.8, 1.0, 1.5, 2.0));

TEST(Zipf, RejectsEmpty) { EXPECT_THROW(ZipfDistribution(0, 1.0), std::invalid_argument); }

}  // namespace
}  // namespace rupam
