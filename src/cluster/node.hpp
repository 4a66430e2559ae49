// A simulated cluster node: heterogeneous CPU, NIC, disk, GPUs, memory.
//
// Rate resources are FairShareResource instances, so contention between
// concurrently running task phases emerges from the event model. Memory is
// tracked by the executor hosted on the node; the node reads its usage for
// its metrics snapshot (RUPAM Table I, left side).
#pragma once

#include <functional>

#include "cluster/fair_share_resource.hpp"
#include "cluster/gpu_pool.hpp"
#include "cluster/node_spec.hpp"
#include "common/types.hpp"
#include "simcore/simulator.hpp"

namespace rupam {

/// A node's static and real-time properties (RUPAM Table I, left side):
/// the paper's "extended heartbeat" payload. Here a heartbeat carries only
/// the node id; RUPAM's ResourceMonitor takes this snapshot of every
/// member from the live node at the start of each dispatch round.
struct NodeMetrics {
  NodeId node = kInvalidNode;
  // Static properties (sent once at registration in the paper; carried in
  // every snapshot here for simplicity — the payload is tiny either way).
  double cpu_ghz = 0.0;
  double cpu_perf = 1.0;
  int cores = 0;
  bool has_ssd = false;
  Bytes net_bandwidth = 0.0;
  Bytes memory = 0.0;
  int gpus_total = 0;
  // Real-time properties.
  double cpu_util = 0.0;   // [0, 1]
  double disk_util = 0.0;  // [0, 1]
  double net_util = 0.0;   // [0, 1]
  Bytes free_memory = 0.0;
  int gpus_idle = 0;

  /// Capability score used to order RUPAM's per-resource priority queues:
  /// higher capacity first, then lower utilization (paper §III-B1).
  double capability(ResourceKind kind) const;
  double utilization(ResourceKind kind) const;
};

class Executor;

class Node {
 public:
  /// `net_cap` lets the shared switch limit the achievable NIC rate below
  /// the nominal spec (Table IV: a 1 GbE fabric levels all nodes).
  Node(Simulator& sim, NodeId id, NodeSpec spec, Bytes net_cap);

  NodeId id() const { return id_; }
  const NodeSpec& spec() const { return spec_; }

  /// Crash/recover lever for the fault injector: an offline node emits no
  /// heartbeats (its executor is downed separately). Default online.
  bool online() const { return online_; }
  void set_online(bool online);
  /// The one observer of online flips: the heartbeat grid.
  void set_online_listener(std::function<void(bool)> fn) { online_listener_ = std::move(fn); }

  FairShareResource& cpu() { return cpu_; }
  FairShareResource& net() { return net_; }
  FairShareResource& disk_read() { return disk_read_; }
  FairShareResource& disk_write() { return disk_write_; }
  GpuPool& gpus() { return gpus_; }
  const FairShareResource& cpu() const { return cpu_; }
  const FairShareResource& net() const { return net_; }

  /// Its one executor registers here; memory in use is its heap + the OS's.
  void attach_executor(Executor* executor) { executor_ = executor; }
  /// The executor hosted here (null before one registers).
  Executor* executor() const { return executor_; }
  Bytes memory_in_use() const;
  Bytes free_memory() const;

  NodeMetrics metrics() const;
  /// metrics().capability(kind) without building the whole snapshot: the
  /// one number a capability ranking reads per node.
  double capability(ResourceKind kind) const;

  /// Cumulative drained bytes, for utilization samplers (Figs 2 and 8).
  Bytes net_bytes_total() { return net_.total_drained(); }
  Bytes disk_bytes_total() { return disk_read_.total_drained() + disk_write_.total_drained(); }

  /// OS + JVM overhead modelled as reserved memory on every node.
  static constexpr Bytes kOsReserved = 1.0 * kGiB;

 private:
  Simulator& sim_;
  NodeId id_;
  NodeSpec spec_;
  bool online_ = true;
  FairShareResource cpu_;
  FairShareResource net_;
  FairShareResource disk_read_;
  FairShareResource disk_write_;
  GpuPool gpus_;
  Executor* executor_ = nullptr;
  std::function<void(bool)> online_listener_;
};

}  // namespace rupam
