// RUPAM's Dispatcher selection rule (paper Algorithm 2), factored as pure
// logic over task views so it is unit-testable in isolation.
//
// Given the tasks of one resource queue and one candidate node (the head
// of that resource's priority queue), pick:
//   1. a task whose history covers all five resources and whose
//      best-observed executor is this node — even past the memory guard
//      (the "optexecutor lock", §III-C1);
//   2. otherwise, skip tasks whose peak memory exceeds the node's free
//      memory (the OOM guard, §III-C);
//   3. among the rest: a task locked to this node, then a PROCESS_LOCAL
//      task, then the task with the best locality.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace rupam {

struct DispatchTaskView {
  std::size_t index = 0;  // caller-side handle
  Bytes peak_memory = 0.0;
  NodeId opt_executor = kInvalidNode;
  std::size_t history_size = 0;  // distinct bottleneck resources observed
  Locality locality = Locality::kAny;
  /// Expected cost from DB_task_char (recorded compute time); 0 when
  /// unknown. Among tasks locked to the offered node the most expensive
  /// runs first (LPT) — the whole point of locking a hot task to the
  /// fastest node is to start it before the wave fills.
  double expected_cost = 0.0;
};

struct DispatcherPolicy {
  bool opt_executor_lock = true;
  bool memory_guard = true;
  /// Safety margin the guard keeps free on top of the task's footprint.
  Bytes memory_headroom = 0.0;
};

/// Returns the chosen task's `index`, or nullopt if nothing fits.
std::optional<std::size_t> algorithm2_select(const std::vector<DispatchTaskView>& tasks,
                                             NodeId node, Bytes node_free_memory,
                                             const DispatcherPolicy& policy = {});

/// One resource queue's rows for a dispatch round, indexed so the rows
/// that can win Algorithm 2 at an offered node are found without viewing
/// the whole queue. A row can win at node X only if it is
///   (a) locked to X (tiers 1-2 take every such row),
///   (b) better than ANY locality at X: its input cached or stored there,
///   (c) its pool's first guard-passing row that holds no lock at X, or
///   (d) its pool's first guard-passing row locked elsewhere, before (c).
/// Tier 3 picks the first row of the best locality among the unlocked
/// guard-passing rows: a row of (b), or (c) when all of them are ANY.
/// Tier 4 is the same over rows locked elsewhere, and only runs when no
/// unlocked row passes the guard, i.e. when (d) had no (c) after it. So
/// algorithm2_select over these rows in queue order picks exactly what it
/// picks over the whole queue, ties included — per pool as well, which is
/// how FAIR runs it.
class QueueRowIndex {
 public:
  struct Row {
    /// Dense pool slot (Algorithm 2 runs per pool under FAIR; 0 otherwise).
    std::uint32_t pool = 0;
    /// What the memory guard checks (DispatchTaskView::peak_memory).
    Bytes peak_memory = 0.0;
    /// DB_task_char best-node lock; kInvalidNode when there is none.
    NodeId lock = kInvalidNode;
    /// A GPU record's lock holds only on a node with an idle device.
    bool gpu_lock = false;
  };

  /// Start over for node ids [0, nodes) under `policy`.
  void clear(std::size_t nodes, const DispatcherPolicy& policy);
  /// Append the next row in queue order; returns its index. Links the row
  /// to its lock node when the policy honours locks.
  std::uint32_t add(const Row& row);
  /// `row` runs better than ANY locality on `node` (ids outside the
  /// cluster are ignored; linking a row twice is harmless).
  void link(NodeId node, std::uint32_t row);

  /// The rows of (a)-(d) at `node` that `live(row)` accepts, ascending and
  /// each once, into `out`; returns how many rows it examined. A row found
  /// dead at the head of its pool is dropped until the next clear(), so a
  /// row the caller calls dead must stay dead until then.
  template <class Live>
  std::size_t candidates(NodeId node, Bytes free_memory, bool idle_gpu, Live&& live,
                         std::vector<std::uint32_t>& out);
  /// Does any row pass `live`? Drops dead head rows the same way.
  template <class Live>
  bool any_live(Live&& live);

 private:
  struct Pool {
    std::vector<std::uint32_t> rows;  // this pool's rows, queue order
    std::size_t head = 0;             // rows before it are dead
  };
  /// Move `pool.head` past the rows `live` rejects; returns how many.
  template <class Live>
  static std::size_t drop_dead_head(Pool& pool, Live& live);

  DispatcherPolicy policy_;
  std::vector<Row> rows_;
  std::vector<Pool> pools_;
  /// NodeId -> rows locked to it or better than ANY on it.
  std::vector<std::vector<std::uint32_t>> links_;
  /// Nodes whose link list is non-empty (clear() is O(links), not O(nodes)).
  std::vector<NodeId> linked_nodes_;
};

template <class Live>
std::size_t QueueRowIndex::candidates(NodeId node, Bytes free_memory, bool idle_gpu,
                                      Live&& live, std::vector<std::uint32_t>& out) {
  out.clear();
  std::size_t examined = 0;
  if (node >= 0 && static_cast<std::size_t>(node) < links_.size()) {
    for (std::uint32_t r : links_[static_cast<std::size_t>(node)]) {
      ++examined;
      if (live(r)) out.push_back(r);
    }
  }
  for (Pool& pool : pools_) {
    examined += drop_dead_head(pool, live);
    bool have_elsewhere = false;
    for (std::size_t i = pool.head; i < pool.rows.size(); ++i) {
      std::uint32_t r = pool.rows[i];
      const Row& row = rows_[r];
      ++examined;
      if (policy_.memory_guard && row.peak_memory + policy_.memory_headroom > free_memory) {
        continue;  // only the lock bypass runs past the guard, and (a) has those
      }
      bool locked = policy_.opt_executor_lock && row.lock != kInvalidNode &&
                    (!row.gpu_lock || idle_gpu);
      if (locked && (row.lock == node || have_elsewhere)) continue;
      if (!live(r)) continue;
      out.push_back(r);
      if (!locked) break;  // (c): nothing after it can win
      have_elsewhere = true;
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return examined;
}

template <class Live>
bool QueueRowIndex::any_live(Live&& live) {
  bool found = false;
  for (Pool& pool : pools_) {
    drop_dead_head(pool, live);
    found = found || pool.head < pool.rows.size();
  }
  return found;
}

template <class Live>
std::size_t QueueRowIndex::drop_dead_head(Pool& pool, Live& live) {
  std::size_t start = pool.head;
  while (pool.head < pool.rows.size() && !live(pool.rows[pool.head])) ++pool.head;
  return pool.head - start;
}

/// Round-robin cursor over resource kinds ("dequeue one node from each
/// resource queue at a time ... so no task with a single resource type is
/// starved").
class ResourceRoundRobin {
 public:
  ResourceKind next();
  ResourceKind peek() const { return static_cast<ResourceKind>(cursor_); }

 private:
  std::size_t cursor_ = 0;
};

}  // namespace rupam
