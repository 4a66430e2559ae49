#include "sched/rupam/dispatcher.hpp"

namespace rupam {

std::optional<std::size_t> algorithm2_select(const std::vector<DispatchTaskView>& tasks,
                                             NodeId node, Bytes node_free_memory,
                                             const DispatcherPolicy& policy) {
  // Selection tiers:
  //   1. task locked to this node (immediately),
  //   2. PROCESS_LOCAL task (immediately),
  //   3. best-locality task that is not locked to another node,
  //   4. best-locality task locked elsewhere (only when nothing else fits,
  //      so locks steer placement without starving idle nodes).
  const DispatchTaskView* best_locked_here = nullptr;
  const DispatchTaskView* best_free = nullptr;  // PROCESS_LOCAL ranks first here
  const DispatchTaskView* best_locked_elsewhere = nullptr;
  for (const auto& task : tasks) {
    bool locked_here = policy.opt_executor_lock && task.opt_executor == node;
    bool locked_elsewhere = policy.opt_executor_lock && task.opt_executor != kInvalidNode &&
                            task.opt_executor != node;
    if (policy.memory_guard &&
        task.peak_memory + policy.memory_headroom > node_free_memory) {
      // Memory guard, with the paper's single exception: a fully
      // characterized task locked to this node runs here regardless.
      if (locked_here && task.history_size >= kNumResourceKinds) return task.index;
      continue;
    }
    if (locked_here) {
      if (best_locked_here == nullptr || task.expected_cost > best_locked_here->expected_cost) {
        best_locked_here = &task;
      }
      continue;
    }
    const DispatchTaskView*& slot = locked_elsewhere ? best_locked_elsewhere : best_free;
    if (slot == nullptr || static_cast<int>(task.locality) < static_cast<int>(slot->locality)) {
      slot = &task;
    }
  }
  if (best_locked_here != nullptr) return best_locked_here->index;
  if (best_free != nullptr) return best_free->index;
  if (best_locked_elsewhere != nullptr) return best_locked_elsewhere->index;
  return std::nullopt;
}

void QueueRowIndex::clear(const DispatcherPolicy& policy) {
  policy_ = policy;
  rows_.clear();
  pools_.clear();
  links_.clear();
  removed_ = 0;
}

std::uint32_t QueueRowIndex::add(const Row& row) {
  auto index = static_cast<std::uint32_t>(rows_.size());
  if (pools_.size() <= row.pool) pools_.resize(row.pool + 1);
  Pool& pool = pools_[row.pool];
  rows_.push_back(Slot{row, static_cast<std::uint32_t>(pool.rows.size())});
  pool.rows.push_back(index);
  add_link(row.lock, index, /*lock=*/true);
  return index;
}

void QueueRowIndex::link(NodeId node, std::uint32_t row) { add_link(node, row, /*lock=*/false); }

void QueueRowIndex::add_link(NodeId node, std::uint32_t row, bool lock) {
  if (rows_[row].out || node < 0) return;
  if (lock && (!policy_.opt_executor_lock || node == kInvalidNode)) return;
  auto n = static_cast<std::size_t>(node);
  if (links_.size() <= n) links_.resize(n + 1);
  links_[n].push_back(Link{row, rows_[row].gen, lock});
}

void QueueRowIndex::set_lock(std::uint32_t row, NodeId lock, bool gpu_lock) {
  Row& facts = rows_[row].row;
  bool moved = facts.lock != lock;
  facts.lock = lock;
  facts.gpu_lock = gpu_lock;
  if (moved) add_link(lock, row, /*lock=*/true);  // the old lock's link no longer holds
}

void QueueRowIndex::relink(std::uint32_t row) {
  unlink(row);
  add_link(rows_[row].row.lock, row, /*lock=*/true);
}

void QueueRowIndex::park(std::uint32_t row) {
  rows_[row].out = true;
  unlink(row);
}

void QueueRowIndex::restore(std::uint32_t row) {
  Slot& s = rows_[row];
  if (!s.out || s.removed) return;
  s.out = false;
  Pool& pool = pools_[s.row.pool];
  pool.head = std::min<std::size_t>(pool.head, s.pos);
  add_link(s.row.lock, row, /*lock=*/true);
}

void QueueRowIndex::remove(std::uint32_t row) {
  Slot& s = rows_[row];
  if (s.removed) return;
  s.out = true;
  s.removed = true;
  unlink(row);
  ++removed_;
}

std::size_t QueueRowIndex::drop_out_head(Pool& pool) const {
  std::size_t start = pool.head;
  while (pool.head < pool.rows.size() && rows_[pool.rows[pool.head]].out) ++pool.head;
  return pool.head - start;
}

ResourceKind ResourceRoundRobin::next() {
  auto kind = static_cast<ResourceKind>(cursor_);
  cursor_ = (cursor_ + 1) % kNumResourceKinds;
  return kind;
}

}  // namespace rupam
