#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "app/cli.hpp"
#include "common/rng.hpp"

namespace rupam {
namespace {

std::optional<CliOptions> parse(std::initializer_list<const char*> args) {
  std::ostringstream err;
  return parse_cli(std::vector<std::string>(args.begin(), args.end()), err);
}

TEST(Cli, Defaults) {
  auto opts = parse({});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->workload, "PR");
  EXPECT_EQ(opts->scheduler, SchedulerKind::kRupam);
  EXPECT_EQ(opts->repetitions, 1);
}

TEST(Cli, ParsesEverything) {
  auto opts = parse({"--workload", "LR", "--scheduler", "spark", "--iterations", "7",
                     "--repetitions", "3", "--seed", "42", "--sample", "--trace-csv",
                     "/tmp/x.csv", "--trace-chrome", "/tmp/x.json"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->workload, "LR");
  EXPECT_EQ(opts->scheduler, SchedulerKind::kSpark);
  EXPECT_EQ(opts->iterations, 7);
  EXPECT_EQ(opts->repetitions, 3);
  EXPECT_EQ(opts->seed, 42u);
  EXPECT_TRUE(opts->sample_utilization);
  EXPECT_EQ(opts->trace_csv, "/tmp/x.csv");
  EXPECT_EQ(opts->trace_chrome, "/tmp/x.json");
}

TEST(Cli, SchedulerNames) {
  EXPECT_EQ(scheduler_from_name("spark"), SchedulerKind::kSpark);
  EXPECT_EQ(scheduler_from_name("rupam"), SchedulerKind::kRupam);
  EXPECT_EQ(scheduler_from_name("stageaware"), SchedulerKind::kStageAware);
  EXPECT_EQ(scheduler_from_name("fifo"), SchedulerKind::kFifo);
  EXPECT_EQ(scheduler_from_name("heft"), SchedulerKind::kHeft);
  EXPECT_FALSE(scheduler_from_name("yarn").has_value());
}

TEST(Cli, ParsesReplayFlags) {
  auto opts = parse({"--checkpoint-at", "120.5", "--checkpoint-out", "/tmp/cp.json",
                     "--restore", "/tmp/old.json", "--branch", "scheduler=heft",
                     "--branch-out", "/tmp/br.json", "--whatif", "/tmp/diag.json",
                     "--whatif-out", "/tmp/wi.json", "--report-out", "/tmp/run.json"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_DOUBLE_EQ(opts->checkpoint_at, 120.5);
  EXPECT_EQ(opts->checkpoint_out, "/tmp/cp.json");
  EXPECT_EQ(opts->restore, "/tmp/old.json");
  EXPECT_EQ(opts->branch, "scheduler=heft");
  EXPECT_EQ(opts->branch_out, "/tmp/br.json");
  EXPECT_EQ(opts->whatif, "/tmp/diag.json");
  EXPECT_EQ(opts->whatif_out, "/tmp/wi.json");
  EXPECT_EQ(opts->report_out, "/tmp/run.json");
}

// Usage-drift guard: every CliOptions field maps to a flag that must
// appear in cli_usage(), and every --token the usage text mentions must be
// a flag this table knows. Adding a CliOptions field without updating the
// usage text (or documenting a flag that no longer exists) fails here.
TEST(Cli, UsageTextCoversEveryFlag) {
  // field → flag, one row per CliOptions member (shared flags repeat).
  const std::vector<std::pair<const char*, const char*>> field_flags = {
      {"workload", "--workload"},
      {"workload_explicit", "--workload"},
      {"scheduler", "--scheduler"},
      {"fleet", "--fleet"},
      {"iterations", "--iterations"},
      {"repetitions", "--repetitions"},
      {"seed", "--seed"},
      {"sample_utilization", "--sample"},
      {"trace_csv", "--trace-csv"},
      {"trace_chrome", "--trace-chrome"},
      {"trace_perfetto", "--trace-perfetto"},
      {"metrics_out", "--metrics-out"},
      {"explain_out", "--explain"},
      {"analyze_out", "--analyze"},
      {"analyze_k", "--analyze-k"},
      {"compare_base", "--compare"},
      {"compare_test", "--compare"},
      {"compare_out", "--compare-out"},
      {"compare_strict", "--compare-strict"},
      {"compare_tolerance", "--compare-tolerance"},
      {"faults", "--faults"},
      {"chaos_seed", "--chaos"},
      {"sweep", "--sweep"},
      {"sweep_threads", "--sweep-threads"},
      {"sweep_out", "--sweep-out"},
      {"arrivals", "--arrivals"},
      {"tenants", "--tenants"},
      {"pool_policy", "--pool-policy"},
      {"duration", "--duration"},
      {"diurnal", "--diurnal"},
      {"diurnal_period", "--diurnal-period"},
      {"autoscale", "--autoscale"},
      {"spot_plan", "--spot-plan"},
      {"preempt", "--preempt"},
      {"config", "--config"},
      {"fleet_spec", "--config"},  // embedded fleets arrive via --config
      {"checkpoint_at", "--checkpoint-at"},
      {"checkpoint_out", "--checkpoint-out"},
      {"restore", "--restore"},
      {"branch", "--branch"},
      {"branch_out", "--branch-out"},
      {"whatif", "--whatif"},
      {"whatif_out", "--whatif-out"},
      {"report_out", "--report-out"},
      {"list_workloads", "--list"},
      {"help", "--help"},
  };
  const std::string usage = cli_usage();
  std::set<std::string> known;
  for (const auto& [field, flag] : field_flags) {
    EXPECT_NE(usage.find(flag), std::string::npos)
        << "CliOptions field '" << field << "': flag " << flag << " missing from cli_usage()";
    known.insert(flag);
  }
  // Reverse direction: every flag token the usage text documents is one
  // the table (and therefore CliOptions) knows about.
  for (std::size_t pos = usage.find("--"); pos != std::string::npos;
       pos = usage.find("--", pos + 1)) {
    std::size_t end = pos;
    while (end < usage.size() &&
           (std::isalnum(static_cast<unsigned char>(usage[end])) || usage[end] == '-')) {
      ++end;
    }
    std::string token = usage.substr(pos, end - pos);
    if (token == "--") continue;  // prose dashes
    EXPECT_TRUE(known.count(token) > 0) << "cli_usage() documents unknown flag " << token;
    pos = end - 1;
  }
}

TEST(Cli, RejectsBadInput) {
  EXPECT_FALSE(parse({"--scheduler", "bogus"}).has_value());
  EXPECT_FALSE(parse({"--workload"}).has_value());       // missing value
  EXPECT_FALSE(parse({"--repetitions", "0"}).has_value());
  EXPECT_FALSE(parse({"--iterations", "-1"}).has_value());
  EXPECT_FALSE(parse({"--what"}).has_value());
}

// Seeds go through the one strict parser: junk used to run as seed 0 and
// negatives used to wrap to 2^64-1.
TEST(Cli, SeedRejectsNonIntegerText) {
  std::ostringstream err;
  EXPECT_FALSE(parse_cli({"--seed", "abc"}, err).has_value());
  EXPECT_EQ(err.str(), "--seed takes an integer in [0, 2^53], got 'abc'\n");
  EXPECT_FALSE(parse({"--seed", "1.5"}).has_value());
  EXPECT_FALSE(parse({"--seed", ""}).has_value());
  EXPECT_FALSE(parse({"--chaos", "7x"}).has_value());
}

TEST(Cli, SeedRejectsNegative) {
  EXPECT_FALSE(parse({"--seed", "-1"}).has_value());
  EXPECT_FALSE(parse({"--chaos", "-1"}).has_value());
}

TEST(Cli, SeedAcceptsExactlyUpToTwoToThe53) {
  auto opts = parse({"--seed", "9007199254740992", "--chaos", "9007199254740992"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->seed, kMaxSeed);
  EXPECT_EQ(opts->chaos_seed, kMaxSeed);
  EXPECT_FALSE(parse({"--seed", "9007199254740993"}).has_value());
  EXPECT_FALSE(parse({"--seed", "18446744073709551617"}).has_value());  // 2^64 + 1
}

TEST(Cli, HelpAndList) {
  std::ostringstream out, err;
  CliOptions help;
  help.help = true;
  EXPECT_EQ(run_cli(help, out, err), 0);
  EXPECT_NE(out.str().find("usage:"), std::string::npos);

  std::ostringstream out2;
  CliOptions list;
  list.list_workloads = true;
  EXPECT_EQ(run_cli(list, out2, err), 0);
  EXPECT_NE(out2.str().find("TeraSort"), std::string::npos);
  EXPECT_NE(out2.str().find("KMeans"), std::string::npos);
}

TEST(Cli, UnknownWorkloadFails) {
  std::ostringstream out, err;
  CliOptions opts;
  opts.workload = "NotReal";
  EXPECT_EQ(run_cli(opts, out, err), 2);
  EXPECT_FALSE(err.str().empty());
}

TEST(Cli, RunsSmallSimulation) {
  std::ostringstream out, err;
  CliOptions opts;
  opts.workload = "GM";
  opts.scheduler = SchedulerKind::kSpark;
  EXPECT_EQ(run_cli(opts, out, err), 0);
  EXPECT_NE(out.str().find("makespan:"), std::string::npos);
  EXPECT_NE(out.str().find("Gramian"), std::string::npos);
}

}  // namespace
}  // namespace rupam
