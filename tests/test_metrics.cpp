#include <gtest/gtest.h>

#include "cluster/presets.hpp"
#include "exec/executor.hpp"
#include "metrics/breakdown.hpp"
#include "metrics/locality_counter.hpp"
#include "metrics/utilization_sampler.hpp"

namespace rupam {
namespace {

TaskMetrics metrics_with(Locality loc, bool failed = false) {
  TaskMetrics m;
  m.locality = loc;
  m.failed = failed;
  return m;
}

TEST(LocalityCounter, CountsSuccessesPerLevel) {
  std::vector<TaskMetrics> ms{
      metrics_with(Locality::kProcessLocal), metrics_with(Locality::kProcessLocal),
      metrics_with(Locality::kNodeLocal), metrics_with(Locality::kAny),
      metrics_with(Locality::kAny, /*failed=*/true),  // excluded
  };
  LocalityCounts counts = count_locality(ms);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
}

TEST(Breakdown, AggregatesCategories) {
  TaskMetrics a;
  a.gc_time = 1.0;
  a.compute_time = 10.0;
  a.scheduler_delay = 0.5;
  a.shuffle_disk_time = 2.0;
  a.shuffle_net_time = 3.0;
  TaskMetrics b = a;
  Breakdown sum = aggregate_breakdown({a, b});
  EXPECT_DOUBLE_EQ(sum.gc, 2.0);
  EXPECT_DOUBLE_EQ(sum.compute, 20.0);
  EXPECT_DOUBLE_EQ(sum.scheduler, 1.0);
  EXPECT_DOUBLE_EQ(sum.shuffle_disk, 4.0);
  EXPECT_DOUBLE_EQ(sum.shuffle_net, 6.0);
  EXPECT_DOUBLE_EQ(sum.total(), 33.0);
}

TEST(Breakdown, TaskBreakdownFig3Categories) {
  TaskMetrics m;
  m.task = 9;
  m.node = 2;
  m.compute_time = 10.0;
  m.serialization_time = 1.0;
  m.gc_time = 0.5;
  m.shuffle_read_time = 2.0;
  m.shuffle_write_time = 1.0;
  m.output_time = 0.5;
  m.scheduler_delay = 0.25;
  TaskBreakdown b = task_breakdown(m);
  EXPECT_EQ(b.task, 9);
  EXPECT_DOUBLE_EQ(b.serialization, 1.0);
  EXPECT_DOUBLE_EQ(b.compute, 9.5);  // compute - ser + gc
  EXPECT_DOUBLE_EQ(b.shuffle, 3.5);
  EXPECT_DOUBLE_EQ(b.scheduler_delay, 0.25);
}

TEST(UtilizationSampler, SamplesPeriodically) {
  Simulator sim;
  Cluster cluster(sim);
  NodeId id = cluster.add_node(thor_spec());
  UtilizationSampler sampler(cluster, 1.0);
  sampler.start();
  cluster.node(id).cpu().start(1000.0, 1.0, nullptr);
  sim.run(10.5);
  sampler.stop();
  EXPECT_EQ(sampler.cpu_util(id).size(), 10u);
  EXPECT_GT(sampler.avg_cpu_util(), 0.0);
}

TEST(UtilizationSampler, NetRateMeasuresThroughput) {
  Simulator sim;
  Cluster cluster(sim);
  NodeId id = cluster.add_node(thor_spec());
  UtilizationSampler sampler(cluster, 1.0);
  sampler.start();
  // Saturate the NIC for 5 seconds.
  cluster.node(id).net().start(5.0 * gbit_per_s(1.0), 1.0, nullptr);
  sim.run(10.5);
  sampler.stop();
  // Average over 10s ≈ half the NIC rate.
  EXPECT_NEAR(sampler.avg_net_rate() / gbit_per_s(1.0), 0.5, 0.05);
  EXPECT_NEAR(sampler.net_rate(id).max() / gbit_per_s(1.0), 1.0, 0.05);
}

TEST(UtilizationSampler, MemorySeriesTracksReporters) {
  Simulator sim;
  Cluster cluster(sim);
  NodeId id = cluster.add_node(thor_spec());
  ExecutorConfig cfg;
  cfg.storage_fraction = 0.6;  // room for the 8 GiB block
  Executor exec(sim, cluster.node(id), id, cfg);
  UtilizationSampler sampler(cluster, 1.0);
  sampler.start();
  sim.schedule_at(5.0, [&] { exec.cache().put("block", 8.0 * kGiB); });
  sim.run(10.5);
  EXPECT_LT(sampler.memory_used(id).points().front().value, 2.0 * kGiB);
  EXPECT_GT(sampler.memory_used(id).points().back().value, 8.0 * kGiB);
}

TEST(UtilizationSampler, AlignedSeriesForBalanceFigure) {
  Simulator sim;
  Cluster cluster(sim);
  build_hydra(cluster);
  UtilizationSampler sampler(cluster, 1.0);
  sampler.start();
  sim.run(5.5);
  auto series = sampler.cpu_series(5.0);
  EXPECT_EQ(series.size(), 12u);
  auto sd = cross_series_stddev(series);
  EXPECT_EQ(sd.size(), series[0].size());
}

TEST(UtilizationSampler, BadArguments) {
  Simulator sim;
  Cluster cluster(sim);
  cluster.add_node(thor_spec());
  EXPECT_THROW(UtilizationSampler(cluster, 0.0), std::invalid_argument);
  UtilizationSampler sampler(cluster, 1.0);
  EXPECT_THROW(sampler.cpu_util(5), std::out_of_range);
}

}  // namespace
}  // namespace rupam
