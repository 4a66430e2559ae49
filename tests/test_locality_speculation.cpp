#include <gtest/gtest.h>

#include "sched/speculation.hpp"
#include "tasks/locality.hpp"

namespace rupam {
namespace {

TEST(Locality, ProcessLocalRequiresCacheHit) {
  TaskSpec t;
  t.input_cache_key = "blk";
  t.preferred_nodes = {1};
  auto cache = [](NodeId n, const std::string&) { return n == 2; };
  EXPECT_EQ(locality_of(t, 2, cache), Locality::kProcessLocal);
  EXPECT_EQ(locality_of(t, 1, cache), Locality::kNodeLocal);
  EXPECT_EQ(locality_of(t, 3, cache), Locality::kAny);
}

TEST(Locality, NoPreferencesMeansAny) {
  TaskSpec t;
  EXPECT_EQ(locality_of(t, 0, nullptr), Locality::kAny);
}

TEST(Locality, OrderingHelper) {
  EXPECT_TRUE(locality_at_least(Locality::kProcessLocal, Locality::kAny));
  EXPECT_TRUE(locality_at_least(Locality::kNodeLocal, Locality::kNodeLocal));
  EXPECT_FALSE(locality_at_least(Locality::kAny, Locality::kNodeLocal));
}

TEST(ValidLevels, OnlyAchievableLevelsListed) {
  EXPECT_EQ(locality_levels(false, false), (std::vector<Locality>{Locality::kAny}));
  EXPECT_EQ(locality_levels(false, true),
            (std::vector<Locality>{Locality::kNodeLocal, Locality::kAny}));
  EXPECT_EQ(locality_levels(true, false),
            (std::vector<Locality>{Locality::kProcessLocal, Locality::kAny}));
  EXPECT_EQ(locality_levels(true, true), (std::vector<Locality>{Locality::kProcessLocal,
                                                                Locality::kNodeLocal,
                                                                Locality::kAny}));
}

TEST(Speculation, NoThresholdBeforeQuantile) {
  SpeculationRule rule;  // 0.75 quantile
  std::vector<double> finished(74, 10.0), scratch;
  EXPECT_LT(straggler_threshold(finished, 100, rule, scratch), 0.0);
  finished.push_back(10.0);
  EXPECT_GT(straggler_threshold(finished, 100, rule, scratch), 0.0);
}

TEST(Speculation, ThresholdIsMultipleOfMedian) {
  SpeculationRule rule;
  std::vector<double> finished{8.0, 10.0, 12.0}, scratch;
  EXPECT_NEAR(straggler_threshold(finished, 4, rule, scratch), 15.0, 1e-12);
}

TEST(Speculation, MinThresholdFloor) {
  SpeculationRule rule;
  std::vector<double> finished{0.001, 0.001, 0.001}, scratch;
  EXPECT_DOUBLE_EQ(straggler_threshold(finished, 3, rule, scratch), rule.min_threshold);
}

TEST(Speculation, EmptyInputs) {
  SpeculationRule rule;
  std::vector<double> scratch;
  EXPECT_LT(straggler_threshold({}, 10, rule, scratch), 0.0);
  EXPECT_LT(straggler_threshold({1.0}, 0, rule, scratch), 0.0);
}

TEST(Speculation, IsStraggler) {
  EXPECT_TRUE(is_straggler(20.0, 15.0));
  EXPECT_FALSE(is_straggler(10.0, 15.0));
  EXPECT_FALSE(is_straggler(100.0, -1.0));  // no threshold yet
}

// Property sweep: threshold scales linearly with the finished runtimes.
class SpeculationScaleTest : public ::testing::TestWithParam<double> {};

TEST_P(SpeculationScaleTest, ThresholdScalesWithRuntimes) {
  double scale = GetParam();
  SpeculationRule rule;
  std::vector<double> base{10.0, 12.0, 14.0, 16.0};
  std::vector<double> scaled, scratch;
  for (double v : base) scaled.push_back(v * scale);
  EXPECT_NEAR(straggler_threshold(scaled, 4, rule, scratch),
              scale * straggler_threshold(base, 4, rule, scratch), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Scales, SpeculationScaleTest, ::testing::Values(1.0, 2.0, 5.0, 10.0));

}  // namespace
}  // namespace rupam
