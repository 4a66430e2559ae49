#include "cluster/node.hpp"

#include <algorithm>

#include "exec/executor.hpp"

namespace rupam {

double NodeMetrics::capability(ResourceKind kind) const {
  switch (kind) {
    case ResourceKind::kCpu:
      // Per-core speed, the paper's `cpufreq` metric: a CPU-bound task's
      // latency depends on the core it gets, not the node's aggregate.
      // Spread across equal nodes comes from the utilization tie-break.
      return cpu_perf;
    case ResourceKind::kMemory:
      return free_memory;
    case ResourceKind::kDisk:
      // SSD nodes sort ahead of HDD nodes; capacity dominates utilization.
      return has_ssd ? 2.0 : 1.0;
    case ResourceKind::kNetwork:
      return net_bandwidth;
    case ResourceKind::kGpu:
      return static_cast<double>(gpus_idle);
  }
  return 0.0;
}

double NodeMetrics::utilization(ResourceKind kind) const {
  switch (kind) {
    case ResourceKind::kCpu: return cpu_util;
    case ResourceKind::kMemory: return memory > 0.0 ? 1.0 - free_memory / memory : 1.0;
    case ResourceKind::kDisk: return disk_util;
    case ResourceKind::kNetwork: return net_util;
    case ResourceKind::kGpu:
      return gpus_total > 0 ? 1.0 - static_cast<double>(gpus_idle) / gpus_total : 1.0;
  }
  return 1.0;
}

Node::Node(Simulator& sim, NodeId id, NodeSpec spec, Bytes net_cap)
    : sim_(sim),
      id_(id),
      spec_(std::move(spec)),
      cpu_(sim, spec_.name + "/cpu", static_cast<double>(spec_.cores), 1.0),
      net_(sim, spec_.name + "/net", std::min(spec_.net_bandwidth, net_cap),
           std::min(spec_.net_bandwidth, net_cap)),
      // HDDs lose aggregate throughput to seek thrash under concurrent
      // streams; SSDs barely notice. This nonlinearity is what makes
      // slot-blind stacking of I/O tasks on HDD nodes expensive.
      disk_read_(sim, spec_.name + "/disk-r", spec_.disk_read_bw, spec_.disk_read_bw,
                 spec_.has_ssd ? 0.005 : 0.05),
      disk_write_(sim, spec_.name + "/disk-w", spec_.disk_write_bw, spec_.disk_write_bw,
                  spec_.has_ssd ? 0.005 : 0.05),
      gpus_(spec_.gpus) {}

void Node::set_online(bool online) {
  online_ = online;
  if (online_listener_) online_listener_(online);
}

Bytes Node::memory_in_use() const {
  Bytes used = kOsReserved;
  if (executor_ != nullptr) used += executor_->heap_used();
  return used;
}

Bytes Node::free_memory() const { return std::max(0.0, spec_.memory - memory_in_use()); }

NodeMetrics Node::metrics() const {
  NodeMetrics m;
  m.node = id_;
  m.cpu_ghz = spec_.cpu_ghz;
  // A throttled CPU (fault injection / thermal misbehaviour) shows up in
  // the heartbeat as reduced per-core speed, so capability-ranked
  // schedulers demote the node while the slowdown lasts.
  m.cpu_perf = spec_.cpu_perf * cpu_.capacity_scale();
  m.cores = spec_.cores;
  m.has_ssd = spec_.has_ssd;
  m.net_bandwidth = net_.capacity();
  m.memory = spec_.memory;
  m.gpus_total = gpus_.total();
  m.cpu_util = cpu_.utilization();
  m.disk_util = 0.5 * (disk_read_.utilization() + disk_write_.utilization());
  m.net_util = net_.utilization();
  m.free_memory = free_memory();
  m.gpus_idle = gpus_.idle();
  return m;
}

double Node::capability(ResourceKind kind) const {
  // Mirrors the fields metrics() fills for NodeMetrics::capability.
  switch (kind) {
    case ResourceKind::kCpu: return spec_.cpu_perf * cpu_.capacity_scale();
    case ResourceKind::kMemory: return free_memory();
    case ResourceKind::kDisk: return spec_.has_ssd ? 2.0 : 1.0;
    case ResourceKind::kNetwork: return net_.capacity();
    case ResourceKind::kGpu: return static_cast<double>(gpus_.idle());
  }
  return 0.0;
}

}  // namespace rupam
