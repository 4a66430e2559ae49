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

void QueueRowIndex::clear(std::size_t nodes, const DispatcherPolicy& policy) {
  policy_ = policy;
  rows_.clear();
  for (Pool& pool : pools_) {
    pool.rows.clear();
    pool.head = 0;
  }
  for (NodeId node : linked_nodes_) links_[static_cast<std::size_t>(node)].clear();
  linked_nodes_.clear();
  if (links_.size() < nodes) links_.resize(nodes);
}

std::uint32_t QueueRowIndex::add(const Row& row) {
  auto index = static_cast<std::uint32_t>(rows_.size());
  rows_.push_back(row);
  if (pools_.size() <= row.pool) pools_.resize(row.pool + 1);
  pools_[row.pool].rows.push_back(index);
  if (policy_.opt_executor_lock && row.lock != kInvalidNode) link(row.lock, index);
  return index;
}

void QueueRowIndex::link(NodeId node, std::uint32_t row) {
  if (node < 0 || static_cast<std::size_t>(node) >= links_.size()) return;
  std::vector<std::uint32_t>& rows = links_[static_cast<std::size_t>(node)];
  if (rows.empty()) linked_nodes_.push_back(node);
  rows.push_back(row);
}

ResourceKind ResourceRoundRobin::next() {
  auto kind = static_cast<ResourceKind>(cursor_);
  cursor_ = (cursor_ + 1) % kNumResourceKinds;
  return kind;
}

}  // namespace rupam
