#include <gtest/gtest.h>

#include "sched/rupam/resource_monitor.hpp"

namespace rupam {
namespace {

NodeMetrics metrics(NodeId id, double perf, int cores, double cpu_util, Bytes free_mem,
                    bool ssd = false, int gpus_idle = 0, int gpus_total = 0) {
  NodeMetrics m;
  m.node = id;
  m.cpu_perf = perf;
  m.cores = cores;
  m.cpu_util = cpu_util;
  m.free_memory = free_mem;
  m.memory = 64.0 * kGiB;
  m.has_ssd = ssd;
  m.net_bandwidth = gbit_per_s(1.0);
  m.gpus_idle = gpus_idle;
  m.gpus_total = gpus_total;
  return m;
}

/// `kind`'s priority queue over every row, best first.
std::vector<NodeId> ranked(const ResourceMonitor& rm, ResourceKind kind) {
  std::vector<ResourceMonitor::RankKey> keys;
  std::vector<NodeId> order;
  rm.order_into(kind, keys, order);
  return order;
}

TEST(ResourceMonitor, RecordsLatestSnapshot) {
  ResourceMonitor rm;
  EXPECT_EQ(rm.latest(0), nullptr);
  rm.record(metrics(0, 1.0, 8, 0.2, 1.0 * kGiB));
  ASSERT_NE(rm.latest(0), nullptr);
  EXPECT_DOUBLE_EQ(rm.latest(0)->cpu_util, 0.2);
  rm.record(metrics(0, 1.0, 8, 0.9, 1.0 * kGiB));
  EXPECT_DOUBLE_EQ(rm.latest(0)->cpu_util, 0.9);
  EXPECT_EQ(rm.tracked_nodes(), 1u);
}

TEST(ResourceMonitor, CpuQueueRanksPerCoreSpeedThenUtilization) {
  ResourceMonitor rm;
  rm.record(metrics(0, 1.0, 32, 0.1, 1.0 * kGiB));  // slow cores, idle
  rm.record(metrics(1, 3.5, 8, 0.9, 1.0 * kGiB));   // fast cores, busy
  rm.record(metrics(2, 3.5, 8, 0.1, 1.0 * kGiB));   // fast cores, idle
  auto order = ranked(rm, ResourceKind::kCpu);
  EXPECT_EQ(order, (std::vector<NodeId>{2, 1, 0}));
}

TEST(ResourceMonitor, MemoryQueueRanksFreeMemory) {
  ResourceMonitor rm;
  rm.record(metrics(0, 1.0, 8, 0.0, 2.0 * kGiB));
  rm.record(metrics(1, 1.0, 8, 0.0, 60.0 * kGiB));
  auto order = ranked(rm, ResourceKind::kMemory);
  EXPECT_EQ(order.front(), 1);
}

TEST(ResourceMonitor, DiskQueueRanksSsdFirst) {
  ResourceMonitor rm;
  rm.record(metrics(0, 1.0, 8, 0.0, 1.0 * kGiB, /*ssd=*/false));
  rm.record(metrics(1, 1.0, 8, 0.0, 1.0 * kGiB, /*ssd=*/true));
  auto order = ranked(rm, ResourceKind::kDisk);
  EXPECT_EQ(order.front(), 1);
}

TEST(ResourceMonitor, GpuQueueRanksIdleDevices) {
  ResourceMonitor rm;
  rm.record(metrics(0, 1.0, 8, 0.0, 1.0 * kGiB, false, 0, 1));
  rm.record(metrics(1, 1.0, 8, 0.0, 1.0 * kGiB, false, 1, 1));
  auto order = ranked(rm, ResourceKind::kGpu);
  EXPECT_EQ(order.front(), 1);
}

TEST(ResourceMonitor, DeterministicTieBreakById) {
  ResourceMonitor rm;
  for (NodeId i = 4; i >= 0; --i) rm.record(metrics(i, 1.0, 8, 0.5, 1.0 * kGiB));
  auto order = ranked(rm, ResourceKind::kCpu);
  EXPECT_EQ(order, (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST(ResourceMonitor, ClearForgets) {
  ResourceMonitor rm;
  rm.record(metrics(0, 1.0, 8, 0.0, 1.0 * kGiB));
  rm.record(metrics(1, 1.0, 8, 0.0, 1.0 * kGiB));
  rm.forget(0);
  rm.forget(1);
  EXPECT_EQ(rm.tracked_nodes(), 0u);
  EXPECT_EQ(rm.latest(0), nullptr);
  EXPECT_TRUE(ranked(rm, ResourceKind::kCpu).empty());
}

}  // namespace
}  // namespace rupam
