// Golden-trace regression: a refactor must not change one byte of any
// fault-free single-application run. The fixtures under tests/golden/ were
// captured (last when dispatch rounds stopped following heartbeats) with
//   rupam_sim --workload PR --scheduler <s> --iterations 2 --seed 1
// so any drift in event ordering, policy sorting, or id assignment shows
// up as a trace diff here. The metrics fixtures pin the --metrics-out
// export of a faulted run and of an elastic multi-tenant run the same way.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

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
  EXPECT_EQ(actual, expected) << "trace drifted from the golden capture";
  std::remove(trace_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, GoldenTraceTest,
                         ::testing::Values("spark", "rupam", "stageaware", "fifo"));

/// `rupam_sim ARGS --metrics-out <golden name>` must reproduce the fixture
/// byte for byte (the suffix picks Prometheus text or JSON). The fixtures
/// were captured while every series was still bumped live during the run,
/// so they pin the end-of-run projection to the same numbers.
void expect_metrics_golden(std::vector<std::string> args, const std::string& golden) {
  std::string path = ::testing::TempDir() + "/" + golden;
  args.push_back("--metrics-out");
  args.push_back(path);
  std::ostringstream out, err;
  std::optional<CliOptions> opts = parse_cli(args, err);
  ASSERT_TRUE(opts.has_value()) << err.str();
  ASSERT_EQ(run_cli(*opts, out, err), 0) << err.str();
  std::string expected = read_file(std::string(RUPAM_TEST_DATA_DIR) + "/golden/" + golden);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(read_file(path), expected) << "metrics export drifted from the golden capture";
  std::remove(path.c_str());
}

TEST(MetricsGolden, FaultedRunPrometheusByteIdentical) {
  expect_metrics_golden({"--workload", "PR", "--scheduler", "rupam", "--faults",
                         "crash@40:node=3:down=30;hbdrop@60:node=5:for=6;"
                         "slow@20:node=1:for=50:factor=0.3:res=cpu;degrade@10:node=2:factor=0.5"},
                        "metrics_PR_rupam_faults.prom");
}

TEST(MetricsGolden, ElasticTenantRunJsonByteIdentical) {
  expect_metrics_golden({"--workload", "GM", "--scheduler", "rupam", "--arrivals", "0.05",
                         "--duration", "120", "--pool-policy", "fair", "--preempt",
                         "--autoscale", "3", "--spot-plan", "spot@20:node=3:notice=10",
                         "--chaos", "3"},
                        "metrics_GM_rupam_tenants.json");
}

}  // namespace
}  // namespace rupam
