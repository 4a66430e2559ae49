// Parallel sweep engine: grid indexing and JSON round-trip, pinned seed
// derivation (the determinism contract), aggregation math against
// hand-computed values, and the orchestrator's concurrency guarantees —
// full grid coverage, byte-identical matrices at any thread count, error
// isolation, cancellation, and a many-cells-few-workers churn.
//
// Every suite name starts with "Sweep" so CI can run exactly this wall
// under ThreadSanitizer with `ctest -R '^Sweep'`.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "sweep/orchestrator.hpp"
#include "sweep/sweep_spec.hpp"
#include "sweep/work_queue.hpp"

namespace rupam {
namespace {

SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.base_seed = 1;
  spec.replications = 2;
  spec.schedulers = {SchedulerKind::kSpark, SchedulerKind::kRupam};
  spec.fleet_sizes = {12, 6};
  spec.arrival_rates = {0.05, 0.2};
  spec.fault_plans = {std::string(), "crash@40:node=1:down=30"};
  spec.duration = 60.0;
  return spec;
}

/// Deterministic fake runner: metrics are pure functions of the seed, so
/// matrices built from it must be byte-identical at any thread count.
RunResult fake_run(const SweepSpec&, const CellCoord&, int replication, std::uint64_t seed) {
  RunResult r;
  r.ok = true;
  r.seed = seed;
  r.replication = replication;
  r.makespan = static_cast<double>(seed % 1000);
  r.mean_jct = static_cast<double>(seed % 100);
  r.p50_jct = static_cast<double>(seed % 50);
  r.p95_jct = static_cast<double>(seed % 200);
  r.avg_cpu_util = static_cast<double>(seed % 97) / 97.0;
  r.apps = 3;
  r.jobs = 9;
  return r;
}

// ---------------------------------------------------------------- grid --

TEST(SweepSpec, CellIndexIsRowMajorAndRoundTrips) {
  SweepSpec spec = tiny_spec();
  ASSERT_EQ(spec.cell_count(), 16u);
  ASSERT_EQ(spec.total_runs(), 32u);
  // Row-major: fault innermost, then rate, fleet, scheduler outermost.
  EXPECT_EQ(spec.cell_index({0, 0, 0, 0}), 0u);
  EXPECT_EQ(spec.cell_index({0, 0, 0, 1}), 1u);
  EXPECT_EQ(spec.cell_index({0, 0, 1, 0}), 2u);
  EXPECT_EQ(spec.cell_index({0, 1, 0, 0}), 4u);
  EXPECT_EQ(spec.cell_index({1, 0, 0, 0}), 8u);
  for (std::size_t i = 0; i < spec.cell_count(); ++i) {
    CellCoord c = spec.cell_at(i);
    EXPECT_EQ(spec.cell_index(c), i);
    EXPECT_LT(c.scheduler, spec.schedulers.size());
    EXPECT_LT(c.fleet, spec.fleet_sizes.size());
    EXPECT_LT(c.rate, spec.arrival_rates.size());
    EXPECT_LT(c.fault, spec.fault_plans.size());
  }
}

TEST(SweepSpec, ValidateRejectsBadFields) {
  SweepSpec spec;
  spec.replications = 0;
  EXPECT_THROW(spec.validate(), std::runtime_error);
  spec = SweepSpec{};
  spec.arrival_rates = {0.0};
  EXPECT_THROW(spec.validate(), std::runtime_error);
  spec = SweepSpec{};
  spec.fleet_sizes = {2};  // below the generator's one-node-per-class floor
  EXPECT_THROW(spec.validate(), std::runtime_error);
  spec = SweepSpec{};
  spec.fault_plans = {"bogus@x"};
  EXPECT_THROW(spec.validate(), std::runtime_error);
  spec = SweepSpec{};
  spec.mix = {"NotAWorkload"};
  EXPECT_THROW(spec.validate(), std::runtime_error);
  EXPECT_NO_THROW(SweepSpec{}.validate());
}

TEST(SweepSpec, JsonRoundTripPreservesEveryField) {
  SweepSpec spec = tiny_spec();
  spec.name = "rt";
  spec.base_seed = 99;
  spec.tenants = 3;
  spec.pool_policy = PoolPolicy::kFair;
  spec.mix = {"TeraSort", "KMeans"};
  spec.iterations_override = 2;
  spec.max_apps = 7;
  spec.sample_utilization = false;

  SweepSpec back = parse_sweep_json(sweep_to_json(spec));
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.base_seed, spec.base_seed);
  EXPECT_EQ(back.replications, spec.replications);
  EXPECT_EQ(back.schedulers, spec.schedulers);
  EXPECT_EQ(back.fleet_sizes, spec.fleet_sizes);
  EXPECT_EQ(back.arrival_rates, spec.arrival_rates);
  EXPECT_EQ(back.fault_plans, spec.fault_plans);
  EXPECT_EQ(back.duration, spec.duration);
  EXPECT_EQ(back.tenants, spec.tenants);
  EXPECT_EQ(back.pool_policy, spec.pool_policy);
  EXPECT_EQ(back.mix, spec.mix);
  EXPECT_EQ(back.iterations_override, spec.iterations_override);
  EXPECT_EQ(back.max_apps, spec.max_apps);
  EXPECT_EQ(back.sample_utilization, spec.sample_utilization);
}

TEST(SweepSpec, ParserRejectsUnknownKeysAndBadValues) {
  EXPECT_THROW(parse_sweep_json(R"({"typo_key": 1})"), std::runtime_error);
  EXPECT_THROW(parse_sweep_json(R"({"schedulers": ["klingon"]})"), std::runtime_error);
  EXPECT_THROW(parse_sweep_json(R"({"pool_policy": "lifo"})"), std::runtime_error);
  EXPECT_THROW(parse_sweep_json(R"({"replications": 2.5})"), std::runtime_error);
  EXPECT_THROW(parse_sweep_json(R"({"replications": 1e10})"), std::runtime_error);
  EXPECT_THROW(parse_sweep_json(R"({"max_apps": 1e30})"), std::runtime_error);
  EXPECT_THROW(parse_sweep_json(R"({"max_apps": -1})"), std::runtime_error);
  EXPECT_THROW(parse_sweep_json(R"({"duration": 1e999})"), std::runtime_error);
  EXPECT_THROW(parse_sweep_json(R"({"arrival_rates": [1], "duration": 1e9})"), std::runtime_error);
  EXPECT_NO_THROW(parse_sweep_json(R"({"arrival_rates": [1], "duration": 1e9, "max_apps": 10})"));
  EXPECT_THROW(parse_sweep_json(R"({"replications": 0})"), std::runtime_error);
  EXPECT_THROW(parse_sweep_json(R"([1, 2])"), std::runtime_error);
}

// ---------------------------------------------------------------- seeds --

TEST(SweepSpec, BaseSeedParsesExactly) {
  EXPECT_THROW(parse_sweep_json(R"({"base_seed": 1.5})"), std::runtime_error);
  EXPECT_THROW(parse_sweep_json(R"({"base_seed": -1})"), std::runtime_error);
  EXPECT_THROW(parse_sweep_json(R"({"base_seed": 9007199254740993})"), std::runtime_error);
  EXPECT_EQ(parse_sweep_json(R"({"base_seed": 9007199254740992})").base_seed, kMaxSeed);
}

TEST(SweepSeeds, PinnedDerivations) {
  // The determinism contract: these values may never change, or every
  // recorded sweep (and the golden matrices below) silently reseeds.
  EXPECT_EQ(derive_run_seed(1, 0, 0, 0, 0, 0), 18001451631349089097ULL);
  EXPECT_EQ(derive_run_seed(1, 0, 0, 0, 0, 1), 10045271515754366481ULL);
  EXPECT_EQ(derive_run_seed(1, 1, 0, 0, 0, 0), 11479464008264693683ULL);
  EXPECT_EQ(derive_run_seed(1, 0, 1, 0, 0, 0), 11223904764730650920ULL);
  EXPECT_EQ(derive_run_seed(7, 0, 0, 0, 0, 0), 3751896381585963713ULL);
  EXPECT_EQ(derive_run_seed(42, 1, 2, 3, 4, 5), 13056805346655761088ULL);
  EXPECT_EQ(sweep_mix64(0), 16294208416658607535ULL);
}

TEST(SweepSeeds, DistinctAcrossGridAndReplications) {
  SweepSpec spec = tiny_spec();
  spec.replications = 5;
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < spec.cell_count(); ++i) {
    for (int rep = 0; rep < spec.replications; ++rep) {
      std::uint64_t s = derive_run_seed(spec, spec.cell_at(i), rep);
      EXPECT_NE(s, 0u);
      EXPECT_TRUE(seen.insert(s).second) << "seed collision at cell " << i << " rep " << rep;
    }
  }
  // Per-round absorption: swapping values across adjacent axes must not
  // collide the way xor-of-indices would.
  EXPECT_NE(derive_run_seed(1, 1, 0, 0, 0, 0), derive_run_seed(1, 0, 1, 0, 0, 0));
  EXPECT_NE(derive_run_seed(1, 0, 0, 1, 0, 0), derive_run_seed(1, 0, 0, 0, 1, 0));
  // And a different base seed re-keys the whole grid.
  EXPECT_NE(derive_run_seed(1, 0, 0, 0, 0, 0), derive_run_seed(2, 0, 0, 0, 0, 0));
}

// ----------------------------------------------------------- aggregates --

TEST(SweepAggregate, MatchesHandComputedCi) {
  // {2, 4, 9}: mean 5, sample variance ((-3)^2 + (-1)^2 + 4^2)/2 = 13,
  // ci95 = t(df=2) * s / sqrt(3) = 4.303 * sqrt(13) / sqrt(3).
  MetricAggregate agg = aggregate_metric({2.0, 4.0, 9.0});
  EXPECT_EQ(agg.n, 3u);
  EXPECT_DOUBLE_EQ(agg.mean, 5.0);
  EXPECT_NEAR(agg.ci95, 4.303 * std::sqrt(13.0 / 3.0), 1e-9);
  EXPECT_DOUBLE_EQ(agg.min, 2.0);
  EXPECT_DOUBLE_EQ(agg.max, 9.0);
}

TEST(SweepAggregate, DegenerateSamples) {
  MetricAggregate empty = aggregate_metric({});
  EXPECT_EQ(empty.n, 0u);
  EXPECT_EQ(empty.mean, 0.0);
  EXPECT_EQ(empty.ci95, 0.0);

  MetricAggregate one = aggregate_metric({3.5});
  EXPECT_EQ(one.n, 1u);
  EXPECT_DOUBLE_EQ(one.mean, 3.5);
  EXPECT_EQ(one.ci95, 0.0);  // no CI from a single sample
  EXPECT_DOUBLE_EQ(one.min, 3.5);
  EXPECT_DOUBLE_EQ(one.max, 3.5);
}

TEST(SweepAggregate, FailedRunsAreExcluded) {
  CellResult cell;
  cell.reps.resize(3);
  cell.reps[0] = fake_run(SweepSpec{}, CellCoord{}, 0, 100);
  cell.reps[1].ok = false;
  cell.reps[1].error = "boom";
  cell.reps[2] = fake_run(SweepSpec{}, CellCoord{}, 2, 300);
  cell.aggregate();
  EXPECT_EQ(cell.failed, 1u);
  EXPECT_EQ(cell.makespan.n, 2u);
  EXPECT_DOUBLE_EQ(cell.makespan.mean, (100.0 + 300.0) / 2.0);
}

// --------------------------------------------------------- orchestrator --

TEST(SweepOrchestrator, CoversEveryCellAndReplicationExactlyOnce) {
  SweepSpec spec = tiny_spec();
  spec.replications = 3;
  std::mutex mu;
  std::set<std::pair<std::size_t, int>> calls;
  SweepOptions opts;
  opts.threads = 4;
  opts.runner = [&](const SweepSpec& s, const CellCoord& c, int rep, std::uint64_t seed) {
    EXPECT_EQ(seed, derive_run_seed(s, c, rep));
    {
      std::lock_guard<std::mutex> lock(mu);
      EXPECT_TRUE(calls.insert({s.cell_index(c), rep}).second);
    }
    return fake_run(s, c, rep, seed);
  };
  SweepMatrix matrix = run_sweep(spec, opts);
  EXPECT_EQ(calls.size(), spec.total_runs());
  ASSERT_EQ(matrix.cells.size(), spec.cell_count());
  for (std::size_t i = 0; i < matrix.cells.size(); ++i) {
    EXPECT_EQ(spec.cell_index(matrix.cells[i].coord), i);
    ASSERT_EQ(matrix.cells[i].reps.size(), 3u);
    for (int rep = 0; rep < 3; ++rep) {
      const RunResult& r = matrix.cells[i].reps[static_cast<std::size_t>(rep)];
      EXPECT_TRUE(r.ok);
      EXPECT_EQ(r.replication, rep);
      EXPECT_EQ(r.seed, derive_run_seed(spec, matrix.cells[i].coord, rep));
    }
  }
  EXPECT_EQ(matrix.failed_runs(), 0u);
}

TEST(SweepOrchestrator, MatrixJsonIsByteIdenticalAcrossThreadCounts) {
  SweepSpec spec = tiny_spec();
  spec.replications = 3;
  std::string baseline;
  for (int threads : {1, 2, 4, 8}) {
    SweepOptions opts;
    opts.threads = threads;
    opts.runner = fake_run;
    std::string json = run_sweep(spec, opts).to_json();
    if (baseline.empty()) {
      baseline = json;
    } else {
      EXPECT_EQ(json, baseline) << "matrix diverged at " << threads << " threads";
    }
  }
  EXPECT_NE(baseline.find("\"total_runs\": 48"), std::string::npos);
}

TEST(SweepOrchestrator, ProgressIsMonotoneAndSerialized) {
  SweepSpec spec = tiny_spec();
  std::size_t last = 0;
  std::size_t calls = 0;
  SweepOptions opts;
  opts.threads = 4;
  opts.runner = fake_run;
  opts.on_progress = [&](std::size_t done, std::size_t total) {
    // The orchestrator serializes progress callbacks, so plain reads and
    // writes here must be safe and `done` strictly increasing.
    EXPECT_EQ(done, last + 1);
    EXPECT_EQ(total, spec.total_runs());
    last = done;
    ++calls;
  };
  run_sweep(spec, opts);
  EXPECT_EQ(calls, spec.total_runs());
}

TEST(SweepOrchestrator, ThrowingCellBecomesErrorEntryNotACrash) {
  SweepSpec spec = tiny_spec();
  spec.replications = 2;
  SweepOptions opts;
  opts.threads = 4;
  opts.runner = [](const SweepSpec& s, const CellCoord& c, int rep, std::uint64_t seed) {
    if (s.cell_index(c) == 5 && rep == 1) throw std::runtime_error("injected failure");
    return fake_run(s, c, rep, seed);
  };
  SweepMatrix matrix = run_sweep(spec, opts);
  EXPECT_EQ(matrix.failed_runs(), 1u);
  const RunResult& bad = matrix.cells[5].reps[1];
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error, "injected failure");
  EXPECT_EQ(bad.seed, derive_run_seed(spec, matrix.cells[5].coord, 1));
  // The failed run is excluded from the aggregate but keeps its slot.
  EXPECT_EQ(matrix.cells[5].failed, 1u);
  EXPECT_EQ(matrix.cells[5].makespan.n, 1u);
  EXPECT_EQ(matrix.total_runs(), spec.total_runs());
  // And the matrix still serializes (with the error recorded).
  EXPECT_NE(matrix.to_json().find("injected failure"), std::string::npos);
}

TEST(SweepOrchestrator, ControllerStopDrainsRemainingRunsAsCancelled) {
  SweepSpec spec = tiny_spec();
  spec.replications = 4;  // 64 runs, 2 workers
  SweepController controller;
  std::atomic<int> executed{0};
  SweepOptions opts;
  opts.threads = 2;
  opts.controller = &controller;
  opts.runner = [&](const SweepSpec& s, const CellCoord& c, int rep, std::uint64_t seed) {
    if (executed.fetch_add(1) + 1 >= 6) controller.request_stop();
    return fake_run(s, c, rep, seed);
  };
  SweepMatrix matrix = run_sweep(spec, opts);
  std::size_t ok = 0, cancelled = 0;
  for (const CellResult& cell : matrix.cells) {
    for (const RunResult& r : cell.reps) {
      if (r.ok) {
        ++ok;
      } else {
        EXPECT_EQ(r.error, "cancelled");
        EXPECT_NE(r.seed, 0u);  // slot keeps its derived seed for resumption
        ++cancelled;
      }
    }
  }
  EXPECT_GE(ok, 6u);
  EXPECT_GT(cancelled, 0u);
  EXPECT_EQ(ok + cancelled, spec.total_runs());
  EXPECT_EQ(matrix.failed_runs(), cancelled);
}

TEST(SweepOrchestrator, DegenerateGridsReturnEmptyMatrices) {
  SweepSpec spec = tiny_spec();
  spec.schedulers.clear();
  SweepMatrix matrix = run_sweep(spec);
  EXPECT_EQ(matrix.cells.size(), 0u);
  EXPECT_EQ(matrix.total_runs(), 0u);
  EXPECT_NE(matrix.to_json().find("\"cells\": []"), std::string::npos);

  spec = tiny_spec();
  spec.arrival_rates.clear();
  EXPECT_EQ(run_sweep(spec).total_runs(), 0u);
}

TEST(SweepOrchestrator, RejectsInvalidSpecs) {
  SweepSpec spec = tiny_spec();
  spec.replications = 0;
  EXPECT_THROW(run_sweep(spec), std::runtime_error);
}

// --------------------------------------------------------------- stress --

TEST(SweepStress, ManyCellsFewWorkersWithInjectedFaults) {
  // 120 cells x 3 reps on 3 workers: heavy queue churn, with a
  // deterministic subset of runs failing. The matrix must stay complete,
  // correctly slotted, and byte-identical to a single-threaded pass.
  SweepSpec spec;
  spec.replications = 3;
  spec.schedulers = {SchedulerKind::kSpark, SchedulerKind::kRupam, SchedulerKind::kFifo};
  spec.fleet_sizes = {12, 6, 24, 48, 96};
  spec.arrival_rates = {0.05, 0.1, 0.2, 0.4};
  spec.fault_plans = {std::string(), "crash@40:node=1:down=30"};
  ASSERT_EQ(spec.cell_count(), 120u);

  auto churn_runner = [](const SweepSpec& s, const CellCoord& c, int rep, std::uint64_t seed) {
    if (seed % 7 == 0) throw std::runtime_error("seeded fault");
    return fake_run(s, c, rep, seed);
  };
  SweepOptions fast;
  fast.threads = 3;
  fast.runner = churn_runner;
  SweepMatrix a = run_sweep(spec, fast);

  SweepOptions serial;
  serial.threads = 1;
  serial.runner = churn_runner;
  SweepMatrix b = run_sweep(spec, serial);

  EXPECT_EQ(a.total_runs(), 360u);
  EXPECT_EQ(a.failed_runs(), b.failed_runs());
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(SweepStress, WorkQueueDrainsUnderContention) {
  WorkQueue<int> queue;
  constexpr int kItems = 10000;
  for (int i = 0; i < kItems; ++i) queue.push(i);
  queue.close();
  std::atomic<long long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&] {
      int item = 0;
      while (queue.pop(item)) {
        sum.fetch_add(item, std::memory_order_relaxed);
        popped.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(popped.load(), kItems);
  EXPECT_EQ(sum.load(), static_cast<long long>(kItems) * (kItems - 1) / 2);
  EXPECT_EQ(queue.size(), 0u);
  int leftover = 0;
  EXPECT_FALSE(queue.pop(leftover));  // closed + drained stays false forever
  queue.push(99);                     // pushes after close are dropped
  EXPECT_EQ(queue.size(), 0u);
}

TEST(SweepParallelFor, RunsEachIndexOnceAtAnyThreadCount) {
  for (std::size_t n : {0, 1, 7, 100}) {
    for (int threads : {0, 1, 3, 8}) {
      std::vector<std::atomic<int>> runs(n);
      parallel_for(n, threads, [&](std::size_t i) { runs[i].fetch_add(1); });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << "n=" << n << " threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST(SweepParallelFor, RethrowsLowestIndexAfterDraining) {
  constexpr std::size_t kN = 10;
  std::vector<std::atomic<int>> runs(kN);
  try {
    parallel_for(kN, 3, [&](std::size_t i) {
      runs[i].fetch_add(1);
      if (i == 5 || i == 3) throw std::runtime_error("index " + std::to_string(i));
    });
    FAIL() << "parallel_for swallowed the exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 3");
  }
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(runs[i].load(), 1) << "i=" << i;
}

// ------------------------------------------------------------ real runs --

TEST(SweepRealRun, TinyCellIsDeterministicAndPopulated) {
  // One real simulation per run (kept tiny): the production runner must be
  // repeatable for identical (spec, cell, rep) and fill every metric.
  SweepSpec spec;
  spec.base_seed = 7;
  spec.replications = 1;
  spec.schedulers = {SchedulerKind::kRupam};
  spec.fleet_sizes = {12};
  spec.arrival_rates = {0.1};
  spec.fault_plans = {std::string()};
  spec.duration = 60.0;
  spec.mix = {"KMeans"};
  spec.max_apps = 1;

  CellCoord cell{0, 0, 0, 0};
  std::uint64_t seed = derive_run_seed(spec, cell, 0);
  RunResult r1 = run_sweep_cell(spec, cell, 0, seed);
  RunResult r2 = run_sweep_cell(spec, cell, 0, seed);
  ASSERT_TRUE(r1.ok);
  EXPECT_EQ(r1.apps, 1u);
  EXPECT_GT(r1.jobs, 0u);
  EXPECT_GT(r1.makespan, 0.0);
  EXPECT_GT(r1.mean_jct, 0.0);
  EXPECT_GT(r1.avg_cpu_util, 0.0);
  EXPECT_GT(r1.kernel.events_executed, 0u);
  EXPECT_DOUBLE_EQ(r1.makespan, r2.makespan);
  EXPECT_DOUBLE_EQ(r1.mean_jct, r2.mean_jct);
  EXPECT_EQ(r1.kernel.events_executed, r2.kernel.events_executed);
}

}  // namespace
}  // namespace rupam
