// Golden-trace regression: the multi-tenant refactor must not change one
// byte of any fault-free single-application run. The fixtures under
// tests/golden/ were captured from the pre-refactor scheduler with
//   rupam_sim --workload PR --scheduler <s> --iterations 2 --seed 1
// so any drift in event ordering, policy sorting, or id assignment shows
// up as a trace diff here.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "app/cli.hpp"

namespace rupam {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << "cannot open " << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

class GoldenTraceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenTraceTest, SingleAppTraceByteIdentical) {
  const char* scheduler = GetParam();
  std::string trace_path =
      ::testing::TempDir() + "/trace_PR_" + scheduler + ".csv";
  CliOptions opts;
  opts.run.workload = "PR";
  opts.run.workload_explicit = true;
  opts.run.scheduler = *scheduler_kind_from_name(scheduler);
  opts.run.iterations = 2;
  opts.run.seed = 1;
  opts.trace_csv = trace_path;
  std::ostringstream out, err;
  ASSERT_EQ(run_cli(opts, out, err), 0) << err.str();

  std::string golden_path =
      std::string(RUPAM_TEST_DATA_DIR) + "/golden/trace_PR_" + scheduler + ".csv";
  std::string expected = read_file(golden_path);
  std::string actual = read_file(trace_path);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(actual, expected) << "trace drifted from the pre-refactor golden capture";
  std::remove(trace_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, GoldenTraceTest,
                         ::testing::Values("spark", "rupam", "stageaware", "fifo"));

}  // namespace
}  // namespace rupam
