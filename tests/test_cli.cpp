#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "app/cli.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "faults/fault_plan.hpp"
#include "replay/whatif.hpp"
#include "sweep/sweep_spec.hpp"

namespace rupam {
namespace {

std::optional<CliOptions> parse(std::initializer_list<const char*> args) {
  std::ostringstream err;
  return parse_cli(std::vector<std::string>(args.begin(), args.end()), err);
}

TEST(Cli, Defaults) {
  auto opts = parse({});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->run.workload, "PR");
  EXPECT_EQ(opts->run.scheduler, SchedulerKind::kRupam);
  EXPECT_EQ(opts->repetitions, 1);
}

TEST(Cli, ParsesEverything) {
  auto opts = parse({"--workload", "LR", "--scheduler", "spark", "--iterations", "7",
                     "--repetitions", "3", "--seed", "42", "--sample", "--trace-csv",
                     "/tmp/x.csv", "--trace-chrome", "/tmp/x.json"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->run.workload, "LR");
  EXPECT_EQ(opts->run.scheduler, SchedulerKind::kSpark);
  EXPECT_EQ(opts->run.iterations, 7);
  EXPECT_EQ(opts->repetitions, 3);
  EXPECT_EQ(opts->run.seed, 42u);
  EXPECT_TRUE(opts->run.sample_utilization);
  EXPECT_EQ(opts->trace_csv, "/tmp/x.csv");
  EXPECT_EQ(opts->trace_chrome, "/tmp/x.json");
}

TEST(Cli, SchedulerNames) {
  EXPECT_EQ(scheduler_kind_from_name("spark"), SchedulerKind::kSpark);
  EXPECT_EQ(scheduler_kind_from_name("rupam"), SchedulerKind::kRupam);
  EXPECT_EQ(scheduler_kind_from_name("stageaware"), SchedulerKind::kStageAware);
  EXPECT_EQ(scheduler_kind_from_name("fifo"), SchedulerKind::kFifo);
  EXPECT_EQ(scheduler_kind_from_name("heft"), SchedulerKind::kHeft);
  EXPECT_FALSE(scheduler_kind_from_name("yarn").has_value());
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

// Usage-drift guard: every CliOptions field, and every RunSpec field a
// flag sets, maps to a flag that must appear in cli_usage(), and every
// --token the usage text mentions must be a flag this table knows. Adding
// a field without updating the usage text (or documenting a flag that no
// longer exists) fails here.
TEST(Cli, UsageTextCoversEveryFlag) {
  // field → flag, one row per member (shared flags repeat).
  const std::vector<std::pair<const char*, const char*>> field_flags = {
      {"run", "--config"},
      {"run.workload", "--workload"},
      {"run.workload_explicit", "--workload"},
      {"run.scheduler", "--scheduler"},
      {"run.fleet", "--fleet"},
      {"run.fleet_spec", "--config"},  // embedded fleets arrive via --config
      {"run.iterations", "--iterations"},
      {"run.seed", "--seed"},
      {"run.sample_utilization", "--sample"},
      {"run.faults", "--faults"},
      {"run.chaos_seed", "--chaos"},
      {"run.arrivals", "--arrivals"},
      {"run.tenants", "--tenants"},
      {"run.pool_policy", "--pool-policy"},
      {"run.duration", "--duration"},
      {"run.diurnal", "--diurnal"},
      {"run.diurnal_period", "--diurnal-period"},
      {"run.autoscale", "--autoscale"},
      {"run.spot_plan", "--spot-plan"},
      {"run.preempt", "--preempt"},
      {"repetitions", "--repetitions"},
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
      {"sweep", "--sweep"},
      {"sweep_threads", "--sweep-threads"},
      {"sweep_out", "--sweep-out"},
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
        << "field '" << field << "': flag " << flag << " missing from cli_usage()";
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

// Bad input is rejected with exactly one line: all rupam_sim prints
// before it exits 2.
TEST(Cli, RejectsBadInput) {
  const std::vector<std::vector<std::string>> bad_args = {
      {"--scheduler", "bogus"},
      {"--workload"},  // missing value
      {"--repetitions", "0"},
      {"--iterations", "-1"},
      {"--what"},
      {"--seed", "abc"},
      {"--iterations", "abc"},
      {"--arrivals", "1", "--duration", "inf"},
      {"--arrivals", "1", "--duration", "1e9"},
      {"--faults", "meteor@10:node=1"},
      {"--faults", "crash@nan:node=1"},
      {"--branch", "node:stage=+0:task=3:node=2"},
  };
  for (const auto& bad : bad_args) {
    std::ostringstream err;
    EXPECT_FALSE(parse_cli(bad, err).has_value()) << bad[0];
    const std::string text = err.str();
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1) << text;
    EXPECT_EQ(text.find('\n'), text.size() - 1) << text;
  }
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

// Every numeric flag reads through the one strict parser: the whole text,
// a finite value, ints inside int. Junk used to run as 0 or as its numeric
// prefix, and inf made a run horizon that never ended.
TEST(Cli, NumbersParseStrictly) {
  std::ostringstream err;
  EXPECT_FALSE(parse_cli({"--iterations", "abc"}, err).has_value());
  EXPECT_EQ(err.str(), "--iterations takes an integer, got 'abc'\n");
  const std::vector<std::vector<std::string>> bad_args = {
      {"--repetitions", "2x"},
      {"--checkpoint-at", "abc"},
      {"--diurnal", "nan"},
      {"--arrivals", "1", "--duration", "inf"},
      {"--arrivals", "inf"},
      {"--duration", "1e999"},
      {"--iterations", "1.5"},
      {"--iterations", "1e10"},
      {"--tenants", "3000000000"},
      {"--autoscale", " 2"},
      {"--analyze-k", ""},
      {"--sweep-threads", "-0.5"},
  };
  for (const auto& bad : bad_args) {
    EXPECT_FALSE(parse_cli(bad, err).has_value()) << bad[0] << " " << bad[1];
  }
  auto ok = parse({"--iterations", "3", "--duration", "1e2", "--diurnal", "0.5",
                   "--checkpoint-at", "12.25"});
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->run.iterations, 3);
  EXPECT_DOUBLE_EQ(ok->run.duration, 100.0);
  EXPECT_DOUBLE_EQ(ok->run.diurnal, 0.5);
  EXPECT_DOUBLE_EQ(ok->checkpoint_at, 12.25);
}

// Run fields are range-checked once, by RunSpec::validate, for flags and
// --config files alike; flag-only values keep their own checks.
TEST(Cli, RunFieldsValidatedByRunSpec) {
  std::ostringstream err;
  EXPECT_FALSE(parse_cli({"--tenants", "0"}, err).has_value());
  EXPECT_EQ(err.str(), "run spec: tenants must be >= 1\n");
  EXPECT_FALSE(parse({"--diurnal", "1.5"}).has_value());
  EXPECT_FALSE(parse({"--duration", "0"}).has_value());
  EXPECT_FALSE(parse({"--workload", "NotReal"}).has_value());
  EXPECT_FALSE(parse({"--faults", "meteor@10:node=1"}).has_value());
  EXPECT_FALSE(parse({"--spot-plan", "crash@10:node=1"}).has_value());
  EXPECT_FALSE(parse({"--arrivals", "0"}).has_value());
  EXPECT_FALSE(parse({"--autoscale", "0"}).has_value());
  EXPECT_FALSE(parse({"--chaos", "0"}).has_value());
}

// One wrong-typed or malformed field per input parser, with the exact
// message it prints: the shared readers word every error as its parser did.
TEST(Cli, EveryInputParserKeepsItsMessages) {
  const std::vector<std::pair<std::function<void()>, std::string>> cases = {
      {[] { parse_run_spec_json("{"); },
       "run spec: JSON parse error at offset 1: unexpected end of input"},
      {[] { parse_run_spec_json("[1]"); }, "run spec: top level must be an object"},
      {[] { parse_run_spec_json(R"({"tenants": "2"})"); }, "run spec: tenants must be an integer"},
      {[] { parse_run_spec_json(R"({"seed": -1})"); },
       "run spec: seed must be an integer in [0, 2^53]"},
      {[] { parse_run_spec_json(R"({"preempt": 1})"); }, "run spec: preempt must be a bool"},
      {[] { parse_run_spec_json(R"({"pool_policy": "lottery"})"); },
       "run spec: unknown pool_policy 'lottery'"},
      {[] { parse_run_spec_json(R"({"fleet_spec": {"seed": 1.5}})"); },
       "run spec: fleet_spec: fleet spec: seed must be an integer in [0, 2^53]"},
      {[] { load_run_spec_file("/nonexistent/run.json"); },
       "cannot read run spec '/nonexistent/run.json'"},
      {[] { parse_sweep_json(R"({"max_apps": -1})"); },
       "sweep spec: max_apps must be an integer >= 0"},
      {[] { parse_sweep_json(R"({"mix": "GM"})"); }, "sweep spec: mix must be an array"},
      {[] { parse_sweep_json(R"({"schedulers": [1]})"); },
       "sweep spec: schedulers entry must be a string"},
      {[] { parse_sweep_json(R"({"analyze": "yes"})"); }, "sweep spec: analyze must be a bool"},
      {[] { load_sweep_file("/nonexistent/sweep.json"); },
       "cannot read sweep spec '/nonexistent/sweep.json'"},
      {[] { parse_fleet_json(R"({"classes": [{"name": "a", "cores": 1.5}]})"); },
       "fleet spec: cores must be an integer"},
      {[] { parse_fleet_json(R"({"classes": [7]})"); },
       "fleet spec: each entry in \"classes\" must be an object"},
      {[] { parse_fleet_json(R"({"classes": [{"ssd": 1}]})"); }, "fleet spec: ssd must be a bool"},
      {[] { load_fleet_file("/nonexistent/fleet.json"); },
       "fleet spec: cannot open '/nonexistent/fleet.json'"},
      {[] { parse_checkpoint_json(R"({"time": "1"})"); }, "checkpoint: time must be a number"},
      {[] { parse_checkpoint_json(R"({"pins": 3})"); }, "checkpoint: pins must be an array"},
      {[] { parse_checkpoint_json(R"({"pins": [[1, 2.5, 0, 0]]})"); },
       "checkpoint: pins[0] task must be an integer"},
      {[] { load_checkpoint_file("/nonexistent/cp.json"); },
       "cannot read checkpoint '/nonexistent/cp.json'"},
      {[] { parse_diagnosis_stragglers("[]"); }, "whatif: diagnosis must be an object"},
      {[] { parse_diagnosis_stragglers(R"({"stragglers": {}})"); },
       "whatif: \"stragglers\" must be an array"},
      {[] { parse_diagnosis_stragglers(R"({"stragglers": [1]})"); },
       "whatif: stragglers[0] must be an object"},
      {[] { parse_diagnosis_stragglers(R"({"stragglers": [{"cause": "x", "stage": 1.5}]})"); },
       "whatif: stragglers[0].stage must be an integer"},
      {[] { parse_diagnosis_stragglers(R"({"stragglers": [{"cause": 3}]})"); },
       "whatif: stragglers[0].cause must be a string"},
      {[] { parse_fault_spec("crash@abc:node=1"); }, "fault spec: bad time 'abc'"},
      {[] { parse_fault_spec("crash@10:node=x"); }, "fault spec: bad node 'x'"},
      {[] { parse_fault_spec("meteor@10:node=1"); }, "fault spec: unknown kind 'meteor'"},
      {[] { parse_branch_spec("node:stage=x:task=1:node=0"); },
       "branch spec: stage must be an integer, got 'x'"},
      {[] { parse_branch_spec("suppress:kind=recover"); },
       "branch spec: unknown fault kind 'recover' (expected crash|slow|hbdrop|degrade|spot)"},
  };
  for (const auto& [parse_input, message] : cases) {
    try {
      parse_input();
      ADD_FAILURE() << "accepted; want: " << message;
    } catch (const std::exception& e) {
      EXPECT_EQ(e.what(), message);
    }
  }
}

TEST(Cli, SeedRejectsNegative) {
  EXPECT_FALSE(parse({"--seed", "-1"}).has_value());
  EXPECT_FALSE(parse({"--chaos", "-1"}).has_value());
}

TEST(Cli, SeedAcceptsExactlyUpToTwoToThe53) {
  auto opts = parse({"--seed", "9007199254740992", "--chaos", "9007199254740992"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->run.seed, kMaxSeed);
  EXPECT_EQ(opts->run.chaos_seed, kMaxSeed);
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

// --help is pinned byte for byte: the flag table must print exactly
// tests/golden/cli_help.txt.
TEST(Cli, HelpMatchesGolden) {
  std::ifstream f(std::string(RUPAM_TEST_DATA_DIR) + "/golden/cli_help.txt", std::ios::binary);
  ASSERT_TRUE(f.is_open());
  std::ostringstream golden;
  golden << f.rdbuf();
  EXPECT_EQ(cli_usage(), golden.str());
}

// An output path that cannot be opened fails like bad input, and before
// any run: exit 2, one stderr line and nothing else on either stream (no
// report lines, no sweep progress).
TEST(Cli, UnopenableOutputExitsTwoWithOneLine) {
  const std::string report = ::testing::TempDir() + "/cli_report.json";
  const std::string sweep = ::testing::TempDir() + "/cli_one_cell_sweep.json";
  std::ofstream(report) << R"({"makespan_s": 1.0})";
  std::ofstream(sweep) << R"({"replications": 1, "schedulers": ["spark"], "mix": ["GM"],)"
                          R"( "duration": 30, "max_apps": 1})";
  const std::string bad = "/nonexistent/out";
  const std::vector<std::vector<std::string>> cases = {
      {"--workload", "GM", "--iterations", "1", "--trace-csv", bad},
      {"--workload", "GM", "--iterations", "1", "--report-out", bad},
      {"--workload", "GM", "--arrivals", "0.05", "--duration", "60", "--metrics-out", bad},
      {"--workload", "GM", "--iterations", "1", "--checkpoint-at", "10", "--checkpoint-out", bad},
      {"--compare", report, report, "--compare-out", bad},
      {"--sweep", sweep, "--sweep-threads", "1", "--sweep-out", bad},
  };
  for (const std::vector<std::string>& args : cases) {
    std::ostringstream out, err;
    std::optional<CliOptions> opts = parse_cli(args, err);
    ASSERT_TRUE(opts.has_value()) << err.str();
    EXPECT_EQ(run_cli(*opts, out, err), 2) << args[0];
    EXPECT_EQ(err.str(), "cannot open " + bad + "\n") << args[0];
    EXPECT_EQ(out.str(), "") << args[0];
  }
  std::remove(report.c_str());
  std::remove(sweep.c_str());
}

TEST(Cli, UnknownWorkloadFails) {
  std::ostringstream out, err;
  CliOptions opts;
  opts.run.workload = "NotReal";
  EXPECT_EQ(run_cli(opts, out, err), 2);
  EXPECT_FALSE(err.str().empty());
}

TEST(Cli, RunTimeFailureExitsTwo) {
  // HEFT livelocks on PageRank until max_sim_time, losing ~16k executors
  // on the way; the run-time error must exit 2 with one line, like a
  // setup error, instead of escaping run_cli.
  auto opts = parse({"--scheduler", "heft", "--workload", "PR", "--seed", "1",
                     "--iterations", "1"});
  ASSERT_TRUE(opts.has_value());
  std::ostringstream out, err;
  LogLevel level = Logger::level();
  Logger::set_level(LogLevel::kError);  // keep the executor-loss warnings out
  int rc = run_cli(*opts, out, err);
  Logger::set_level(level);
  EXPECT_EQ(rc, 2);
  std::string message = err.str();
  EXPECT_NE(message.find("max_sim_time"), std::string::npos) << message;
  EXPECT_EQ(std::count(message.begin(), message.end(), '\n'), 1) << message;
}

TEST(Cli, RunsSmallSimulation) {
  std::ostringstream out, err;
  CliOptions opts;
  opts.run.workload = "GM";
  opts.run.scheduler = SchedulerKind::kSpark;
  EXPECT_EQ(run_cli(opts, out, err), 0);
  EXPECT_NE(out.str().find("makespan:"), std::string::npos);
  EXPECT_NE(out.str().find("Gramian"), std::string::npos);
}

// ------------------------------------------------------------------ pins
// Stdout of flag-driven runs, captured before the CLI parsed its flags
// straight into RunSpec (the first two re-captured when dispatch rounds
// stopped following heartbeats). Each run takes well under a second.

std::string run_flags(std::initializer_list<const char*> args) {
  std::ostringstream out, err;
  auto opts = parse(args);
  EXPECT_TRUE(opts.has_value());
  if (!opts) return {};
  EXPECT_EQ(run_cli(*opts, out, err), 0) << err.str();
  return out.str();
}

TEST(CliPins, RepetitionsWithCrashAndSampling) {
  EXPECT_EQ(run_flags({"--workload", "GM", "--scheduler", "spark", "--repetitions", "3",
                       "--iterations", "1", "--faults", "crash@30:node=2:down=20", "--sample"}),
            "Gramian Matrix under Spark (3 runs)\n"
            "makespan: 103.4 s +- 49.8 (95% CI)\n"
            "locality: PROCESS=0 NODE=284 RACK=0 ANY=110\n"
            "failures=0 oom_kills=0 executor_losses=3 relocations=0\n"
            "faults_injected=3 blacklists=0 recomputed_partitions=22\n"
            "avg cpu=20.8% avg mem=5.1 GB\n");
}

TEST(CliPins, MultiTenantElasticChaos) {
  EXPECT_EQ(run_flags({"--workload", "GM", "--scheduler", "rupam", "--arrivals", "0.05",
                       "--duration", "60", "--pool-policy", "fair", "--preempt", "--autoscale",
                       "2", "--spot-plan", "spot@20:node=3:notice=10", "--chaos", "3"}),
            "5 applications (5 jobs) under RUPAM, FAIR pools (arrivals=0.05/s, tenants=2, "
            "duration=60s)\n"
            "makespan: 187.5 s\n"
            "JCT: mean=126.5s p50=141.1s p95=152.8s p99=154.3s max=154.7s queueing=0.0s\n"
            "pool tenant0: jobs=3 mean=123.3s p95=144.8s queueing=0.0s\n"
            "pool tenant1: jobs=2 mean=131.4s p95=152.3s queueing=0.0s\n"
            "recomputed_partitions=24\n"
            "spot_revocations=1\n"
            "autoscale: scale_ups=2 scale_downs=0 provisioned_cost=0.00\n"
            "preemptions=0\n");
}

// The flag path used to drop --pool-policy on single-app runs; it now
// goes through make_simulation_config, which applies it. One pool orders
// jobs the same under FIFO and FAIR, so the output must not move.
TEST(CliPins, SingleAppFairPoolsWithPreemption) {
  EXPECT_EQ(run_flags({"--workload", "GM", "--scheduler", "rupam", "--iterations", "1",
                       "--pool-policy", "fair", "--preempt"}),
            "Gramian Matrix under RUPAM (1 run)\n"
            "makespan: 77.3 s\n"
            "locality: PROCESS=0 NODE=81 RACK=0 ANY=43\n"
            "failures=0 oom_kills=0 executor_losses=0 relocations=0\n");
}

}  // namespace
}  // namespace rupam
