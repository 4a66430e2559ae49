#include "sched/baselines/heft_scheduler.hpp"

#include <algorithm>
#include <limits>

namespace rupam {

HeftScheduler::HeftScheduler(SchedulerEnv env) : SchedulerBase(std::move(env)) {}

double HeftScheduler::exec_cost(const TaskSpec& task, const NodeSpec& node) {
  double compute = task.gpu_accelerable && node.gpus > 0
                       ? task.compute / std::max(1.0, task.gpu_speedup)
                       : task.compute / std::max(0.05, node.cpu_perf);
  double input = node.disk_read_bw > 0.0 ? task.input_bytes / node.disk_read_bw : 0.0;
  double remote = task.shuffle_read_bytes * task.shuffle_remote_fraction;
  double local = task.shuffle_read_bytes - remote;
  double shuffle_read = (node.net_bandwidth > 0.0 ? remote / node.net_bandwidth : 0.0) +
                        (node.disk_read_bw > 0.0 ? local / node.disk_read_bw : 0.0);
  double shuffle_write =
      node.disk_write_bw > 0.0 ? task.shuffle_write_bytes / node.disk_write_bw : 0.0;
  return compute + input + shuffle_read + shuffle_write;
}

double HeftScheduler::avg_stage_cost(const Stage& stage) const {
  if (stage.tasks.empty()) return 0.0;
  const std::vector<NodeId> ids = cluster().node_ids();
  if (ids.empty()) return 0.0;
  double total = 0.0;
  for (const TaskSpec& task : stage.tasks.tasks) {
    double over_nodes = 0.0;
    for (NodeId id : ids) over_nodes += exec_cost(task, cluster().node(id).spec());
    total += over_nodes / static_cast<double>(ids.size());
  }
  return total / static_cast<double>(stage.tasks.size());
}

void HeftScheduler::register_dag(const Application& app) {
  for (const Job& job : app.jobs) {
    // Edges point parent → child; rank flows from the sinks backwards.
    std::map<StageId, std::vector<StageId>> children;
    std::map<StageId, const Stage*> by_id;
    for (const Stage& stage : job.stages) {
      by_id[stage.id] = &stage;
      for (StageId parent : stage.parents) children[parent].push_back(stage.id);
    }
    // Stage ids within a job are acyclic by construction (parents precede
    // children); iterating highest-id-first guarantees every child's rank
    // exists before its parents ask for it.
    std::vector<const Stage*> order;
    order.reserve(job.stages.size());
    for (const Stage& stage : job.stages) order.push_back(&stage);
    std::sort(order.begin(), order.end(),
              [](const Stage* a, const Stage* b) { return a->id > b->id; });
    for (const Stage* stage : order) {
      double down = 0.0;
      auto kids = children.find(stage->id);
      if (kids != children.end()) {
        for (StageId child : kids->second) {
          auto it = rank_.find(child);
          if (it != rank_.end()) down = std::max(down, it->second);
        }
      }
      rank_[stage->id] = avg_stage_cost(*stage) + down;
    }
  }
}

double HeftScheduler::upward_rank(StageId stage) const {
  auto it = rank_.find(stage);
  return it != rank_.end() ? it->second : 0.0;
}

NodeId HeftScheduler::best_free_node(const TaskSpec& task, const TaskState* copy_of) {
  NodeId best = kInvalidNode;
  double best_cost = std::numeric_limits<double>::infinity();
  for_each_ready_node(0, [&](NodeId id, Executor& exec) {
    if (exec.free_slots() <= 0) return true;
    if (copy_of != nullptr && copy_of->has_attempt_on(id)) return true;
    double cost = exec_cost(task, cluster().node(id).spec());
    // Ring order visits ascending NodeId from 0, so strict < breaks cost
    // ties toward the lowest id — the same order the audit ranking uses.
    if (cost < best_cost) {
      best_cost = cost;
      best = id;
    }
    return true;
  });
  return best;
}

void HeftScheduler::try_dispatch() {
  if (stages_.empty()) return;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    // Pool policy picks which jobs are offered resources; within that
    // offer, HEFT's upward rank decides the stage order (equal-rank stages
    // keep the policy's order via the explicit position tie-break).
    const std::vector<StageState*>& ordered = schedulable_stages();
    order_scratch_.clear();
    for (std::size_t i = 0; i < ordered.size(); ++i) {
      order_scratch_.push_back(RankedStage{upward_rank(ordered[i]->set.stage), i, ordered[i]});
    }
    std::sort(order_scratch_.begin(), order_scratch_.end(),
              [](const RankedStage& a, const RankedStage& b) {
                if (a.rank != b.rank) return a.rank > b.rank;
                return a.pos < b.pos;
              });
    for (const RankedStage& rs : order_scratch_) {
      StageState& stage = *rs.stage;
      TaskState* next = next_launchable(stage);
      if (next == nullptr) continue;
      NodeId node = best_free_node(next->spec);
      if (node == kInvalidNode) continue;
      Explain e;
      if (audit_enabled()) {
        // Full EFT ranking over every schedulable node for the audit
        // trail; the winner matches best_free_node's (same cost table,
        // same lowest-id tie-break).
        std::vector<std::pair<double, NodeId>> scored;
        for (NodeId id : cluster().node_ids()) {
          if (!cluster().schedulable(id)) continue;
          scored.push_back({exec_cost(next->spec, cluster().node(id).spec()), id});
        }
        std::sort(scored.begin(), scored.end());
        e.reason = "heft_eft";
        e.detail = "rank_u=" + std::to_string(upward_rank(stage.set.stage));
        e.candidates = static_cast<int>(scored.size());
        e.candidate_nodes.reserve(scored.size());
        for (const auto& [cost, id] : scored) e.candidate_nodes.push_back(id);
      }
      if (launch_task(stage, *next, node, next->spec.gpu_accelerable, /*speculative=*/false,
                      ResourceKind::kCpu, audit_enabled() ? &e : nullptr)) {
        progressed = true;
      }
    }
  }
  // Stock speculative execution: copies go to the cheapest free node that
  // does not already run the task.
  for (auto [stage_id, task_index] : find_speculatable()) {
    auto it = stages_.find(stage_id);
    if (it == stages_.end()) continue;
    StageState& stage = it->second;
    TaskState& task = stage.tasks[task_index];
    NodeId node = best_free_node(task.spec, &task);
    if (node == kInvalidNode) continue;
    Explain e;
    if (audit_enabled()) {
      e.reason = "heft_speculative";
      e.candidates = 1;
      e.candidate_nodes = {node};
    }
    if (launch_task(stage, task, node, task.spec.gpu_accelerable, /*speculative=*/true,
                    ResourceKind::kCpu, audit_enabled() ? &e : nullptr)) {
      note_speculative_launch(task.spec.id);
    }
  }
}

}  // namespace rupam
