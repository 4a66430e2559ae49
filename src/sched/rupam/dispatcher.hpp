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

/// One resource queue's rows, kept across dispatch rounds and indexed so
/// the rows that can win Algorithm 2 at an offered node are found without
/// viewing the whole queue. A row can win at node X only if it is
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
/// how FAIR runs it. Extra live rows that are ANY at X change nothing, so a
/// stale link is harmless.
///
/// Rows are appended in queue order and keep their relative order, so row
/// ids are queue order. A row is *in* while its task may be offered.
/// park() takes it out: its links go stale and its pool's head may pass
/// it. restore() puts it back at its position: the head drops back over
/// it and it is linked to its lock again (the caller re-adds its
/// localities). remove() takes it out for good, and compact() drops
/// removed rows and renumbers the rest.
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
    /// The caller's handle for the task behind the row.
    std::uint64_t handle = 0;
  };
  /// Rows a tail index contributes to a query carry this bit, so they sort
  /// after every row of the index queried.
  static constexpr std::uint32_t kTail = 1u << 31;

  /// Drop every row and adopt `policy`.
  void clear(const DispatcherPolicy& policy);
  /// Append the next row in queue order, in; returns its id. Links the row
  /// to its lock node when the policy honours locks.
  std::uint32_t add(const Row& row);
  /// `row` runs better than ANY locality on `node` (negative ids are
  /// ignored; linking a row twice is harmless). Out rows are not linked.
  void link(NodeId node, std::uint32_t row);
  /// New DB_task_char facts for `row`; an in row is linked to the new lock.
  void set_lock(std::uint32_t row, NodeId lock, bool gpu_lock);
  /// Drop every link of an in row and link it to its lock again; the
  /// caller re-adds its localities.
  void relink(std::uint32_t row);
  void park(std::uint32_t row);
  void restore(std::uint32_t row);
  void remove(std::uint32_t row);
  /// Drop the removed rows; the rest keep their order under new ids, and
  /// `moved(id)` runs for each. Pool heads restart at 0.
  template <class Moved>
  void compact(Moved&& moved);

  const Row& row(std::uint32_t r) const { return rows_[r].row; }
  bool in(std::uint32_t r) const { return !rows_[r].out; }
  bool gone(std::uint32_t r) const { return rows_[r].removed; }
  std::size_t size() const { return rows_.size(); }
  std::size_t removed() const { return removed_; }

  /// The in rows of (a)-(d) at `node` that `live(row)` accepts, ascending
  /// and each once, into `out`; returns how many rows it examined. With a
  /// `tail`, the queue is this index's rows followed by the tail's (pool by
  /// pool), and the tail's ids carry kTail. A pool's head passes only out
  /// rows, so a row `live` rejects now may be offered again later.
  template <class Live>
  std::size_t candidates(NodeId node, Bytes free_memory, bool idle_gpu, Live&& live,
                         std::vector<std::uint32_t>& out, QueueRowIndex* tail = nullptr);
  /// Does any in row (of this index, then `tail`'s) pass `live`? Adds the
  /// rows it looked at to `examined`.
  template <class Live>
  bool any_live(Live&& live, std::size_t& examined, QueueRowIndex* tail = nullptr);

 private:
  struct Slot {
    Row row;
    std::uint32_t pos = 0;  // index in its pool's rows
    std::uint32_t gen = 0;  // links made before the last unlink carry an older one
    bool out = false;
    bool removed = false;
  };
  struct Link {
    std::uint32_t row = 0;
    std::uint32_t gen = 0;
    bool lock = false;  // holds only while the row is still locked here
  };
  struct Pool {
    std::vector<std::uint32_t> rows;  // this pool's rows, queue order
    std::size_t head = 0;             // rows before it are out
  };
  /// Scan state of one pool, carried from this index into a tail.
  struct PoolScan {
    bool have_elsewhere = false;
    bool done = false;  // found (c)
  };

  void add_link(NodeId node, std::uint32_t row, bool lock);
  void unlink(std::uint32_t row) { ++rows_[row].gen; }
  bool current(const Link& link, NodeId node) const {
    const Slot& s = rows_[link.row];
    return link.gen == s.gen && !s.out && (!link.lock || s.row.lock == node);
  }
  /// Move `pool.head` past out rows; returns how many.
  std::size_t drop_out_head(Pool& pool) const;
  template <class Live>
  std::size_t scan_links(NodeId node, Live& live, std::uint32_t tag,
                         std::vector<std::uint32_t>& out);
  template <class Live>
  std::size_t scan_pool(std::size_t p, NodeId node, Bytes free_memory, bool idle_gpu, Live& live,
                        std::uint32_t tag, PoolScan& scan, std::vector<std::uint32_t>& out);

  DispatcherPolicy policy_;
  std::vector<Slot> rows_;
  std::vector<Pool> pools_;
  /// NodeId -> links of rows locked to it or better than ANY on it. Stale
  /// links are dropped when a query walks the list.
  std::vector<std::vector<Link>> links_;
  std::size_t removed_ = 0;
};

template <class Moved>
void QueueRowIndex::compact(Moved&& moved) {
  std::vector<std::uint32_t> renumber(rows_.size(), 0);
  std::uint32_t kept = 0;
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (!rows_[r].removed) renumber[r] = kept++;
  }
  for (std::size_t node = 0; node < links_.size(); ++node) {
    std::vector<Link>& links = links_[node];
    std::erase_if(links, [&](const Link& l) { return !current(l, static_cast<NodeId>(node)); });
    for (Link& l : links) l.row = renumber[l.row];
  }
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (!rows_[r].removed) rows_[renumber[r]] = rows_[r];
  }
  rows_.resize(kept);
  removed_ = 0;
  for (Pool& pool : pools_) {
    pool.rows.clear();
    pool.head = 0;
  }
  for (std::uint32_t r = 0; r < kept; ++r) {
    Pool& pool = pools_[rows_[r].row.pool];
    rows_[r].pos = static_cast<std::uint32_t>(pool.rows.size());
    pool.rows.push_back(r);
  }
  for (std::uint32_t r = 0; r < kept; ++r) moved(r);
}

template <class Live>
std::size_t QueueRowIndex::candidates(NodeId node, Bytes free_memory, bool idle_gpu,
                                      Live&& live, std::vector<std::uint32_t>& out,
                                      QueueRowIndex* tail) {
  out.clear();
  std::size_t examined = scan_links(node, live, 0, out);
  if (tail != nullptr) examined += tail->scan_links(node, live, kTail, out);
  std::size_t pools = std::max(pools_.size(), tail != nullptr ? tail->pools_.size() : 0);
  for (std::size_t p = 0; p < pools; ++p) {
    PoolScan scan;
    examined += scan_pool(p, node, free_memory, idle_gpu, live, 0, scan, out);
    if (tail != nullptr && !scan.done) {
      examined += tail->scan_pool(p, node, free_memory, idle_gpu, live, kTail, scan, out);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return examined;
}

template <class Live>
bool QueueRowIndex::any_live(Live&& live, std::size_t& examined, QueueRowIndex* tail) {
  for (QueueRowIndex* index : {this, tail}) {
    if (index == nullptr) continue;
    std::uint32_t tag = index == this ? 0 : kTail;
    for (Pool& pool : index->pools_) {
      examined += index->drop_out_head(pool);
      for (std::size_t i = pool.head; i < pool.rows.size(); ++i) {
        std::uint32_t r = pool.rows[i];
        ++examined;
        if (!index->rows_[r].out && live(r | tag)) return true;
      }
    }
  }
  return false;
}

template <class Live>
std::size_t QueueRowIndex::scan_links(NodeId node, Live& live, std::uint32_t tag,
                                      std::vector<std::uint32_t>& out) {
  if (node < 0 || static_cast<std::size_t>(node) >= links_.size()) return 0;
  std::vector<Link>& links = links_[static_cast<std::size_t>(node)];
  std::size_t examined = 0;
  for (std::size_t i = 0; i < links.size();) {
    if (!current(links[i], node)) {
      links[i] = links.back();  // order is free: the caller sorts
      links.pop_back();
      continue;
    }
    ++examined;
    if (live(links[i].row | tag)) out.push_back(links[i].row | tag);
    ++i;
  }
  return examined;
}

template <class Live>
std::size_t QueueRowIndex::scan_pool(std::size_t p, NodeId node, Bytes free_memory,
                                     bool idle_gpu, Live& live, std::uint32_t tag,
                                     PoolScan& scan, std::vector<std::uint32_t>& out) {
  if (p >= pools_.size()) return 0;
  Pool& pool = pools_[p];
  std::size_t examined = drop_out_head(pool);
  for (std::size_t i = pool.head; i < pool.rows.size(); ++i) {
    std::uint32_t r = pool.rows[i];
    const Slot& s = rows_[r];
    ++examined;
    if (s.out) continue;
    if (policy_.memory_guard && s.row.peak_memory + policy_.memory_headroom > free_memory) {
      continue;  // only the lock bypass runs past the guard, and (a) has those
    }
    bool locked = policy_.opt_executor_lock && s.row.lock != kInvalidNode &&
                  (!s.row.gpu_lock || idle_gpu);
    if (locked && (s.row.lock == node || scan.have_elsewhere)) continue;
    if (!live(r | tag)) continue;
    out.push_back(r | tag);
    if (!locked) {  // (c): nothing after it can win
      scan.done = true;
      break;
    }
    scan.have_elsewhere = true;
  }
  return examined;
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
