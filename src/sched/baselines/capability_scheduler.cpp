#include "sched/baselines/capability_scheduler.hpp"

#include <algorithm>
#include <functional>

namespace rupam {

namespace {

// Algorithm-1-style sensitivity of the stage-level classifier.
constexpr double kResFactor = 2.0;

}  // namespace

ResourceKind CapabilityScheduler::stage_bottleneck(const std::string& stage_name) const {
  auto it = profiles_.find(stage_name);
  if (it == profiles_.end() || it->second.samples == 0) {
    // No evidence yet: assume generic computation (the assumption the
    // paper's motivational study falsifies).
    return ResourceKind::kCpu;
  }
  const StageProfileEstimate& p = it->second;
  double n = static_cast<double>(p.samples);
  if (p.gpu) return ResourceKind::kGpu;
  double compute = p.compute / n;
  double read = p.shuffle_read / n;
  double write = p.shuffle_write / n;
  if (compute > kResFactor * std::max(read, write)) return ResourceKind::kCpu;
  if (read > kResFactor * write) return ResourceKind::kNetwork;
  return ResourceKind::kDisk;
}

void CapabilityScheduler::task_succeeded(StageState& stage, TaskState&,
                                         const TaskMetrics& metrics) {
  StageProfileEstimate& p = profiles_[stage.set.stage_name];
  ++p.samples;
  p.compute += metrics.compute_time;
  p.shuffle_read += metrics.shuffle_read_time;
  p.shuffle_write += metrics.shuffle_write_time;
  p.gpu = p.gpu || metrics.used_gpu;
}

double CapabilityScheduler::score(NodeId node, ResourceKind kind) const {
  // Capability first; break ties toward the emptier executor so the stage
  // spreads instead of serializing on the single best node.
  Executor* exec = executor(node);
  double load = exec != nullptr ? static_cast<double>(exec->running_tasks()) : 0.0;
  return -cluster().node(node).capability(kind) * 1000.0 + load;
}

std::vector<NodeId> CapabilityScheduler::ranked_nodes(ResourceKind kind) const {
  std::vector<NodeId> ids = cluster().node_ids();
  std::vector<std::pair<double, NodeId>> scored;
  scored.reserve(ids.size());
  for (NodeId id : ids) {
    if (!cluster().schedulable(id)) continue;  // draining/decommissioned
    scored.push_back({score(id, kind), id});
  }
  std::sort(scored.begin(), scored.end());
  std::vector<NodeId> out(scored.size());
  for (std::size_t i = 0; i < scored.size(); ++i) out[i] = scored[i].second;
  return out;
}

bool CapabilityScheduler::admissible(NodeId node, ResourceKind kind) const {
  Executor* exec = executor(node);
  if (exec == nullptr || exec->free_slots() <= 0 || !node_usable(node)) return false;
  return kind != ResourceKind::kGpu || cluster().node(node).gpus().idle() > 0;
}

NodeId CapabilityScheduler::best_free_node(ResourceKind kind) {
  ReadyHeap& heap = ready_[static_cast<std::size_t>(kind)];
  std::vector<Keyed>& entries = heap.entries;
  if (heap.round != dispatch_rounds()) {
    heap.round = dispatch_rounds();
    entries.clear();
    for_each_ready_node(0, [&](NodeId id, Executor&) {
      if (kind == ResourceKind::kGpu && cluster().node(id).gpus().idle() == 0) return true;
      entries.push_back({score(id, kind), id});
      return true;
    });
    std::make_heap(entries.begin(), entries.end(), std::greater<>());
  }
  // Only a node a launch landed on changes inside a round, and rekey()
  // pushed its current key, so an entry whose node is no longer admissible
  // or whose key is not the node's current one is stale.
  while (!entries.empty()) {
    auto [key, id] = entries.front();
    if (admissible(id, kind) && score(id, kind) == key) return id;
    std::pop_heap(entries.begin(), entries.end(), std::greater<>());
    entries.pop_back();
  }
  return kInvalidNode;
}

void CapabilityScheduler::rekey(NodeId node) {
  for (std::size_t k = 0; k < kNumResourceKinds; ++k) {
    ReadyHeap& heap = ready_[k];
    auto kind = static_cast<ResourceKind>(k);
    if (heap.round != dispatch_rounds() || !admissible(node, kind)) continue;
    heap.entries.push_back({score(node, kind), node});
    std::push_heap(heap.entries.begin(), heap.entries.end(), std::greater<>());
  }
}

const std::vector<NodeId>& CapabilityScheduler::ranked_free_nodes(ResourceKind kind) {
  scored_scratch_.clear();
  for_each_ready_node(0, [&](NodeId id, Executor&) {
    scored_scratch_.push_back({score(id, kind), id});
    return true;
  });
  std::sort(scored_scratch_.begin(), scored_scratch_.end());
  ranked_scratch_.clear();
  for (const auto& [score, id] : scored_scratch_) ranked_scratch_.push_back(id);
  return ranked_scratch_;
}

void CapabilityScheduler::try_dispatch() {
  if (stages_.empty()) return;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (StageState* sp : schedulable_stages()) {
      StageState& stage = *sp;
      // One placement per round: the best node with a free slot takes the
      // next pending task of this stage — locality is ignored entirely
      // ("nodes are ranked by capability, tasks are interchangeable").
      TaskState* next = next_launchable(stage);
      if (next == nullptr) continue;
      ResourceKind kind = stage_bottleneck(stage.set.stage_name);
      NodeId node = best_free_node(kind);
      if (node == kInvalidNode) continue;
      if (audit_enabled()) {
        // The audit exposes the rank index and the full candidate list.
        std::vector<NodeId> ranked = ranked_nodes(kind);
        auto rank = std::find(ranked.begin(), ranked.end(), node) - ranked.begin();
        Explain e;
        e.reason = "capability_rank";
        e.detail = "tag=" + std::string(to_string(kind)) + " rank=" + std::to_string(rank);
        e.candidates = static_cast<int>(ranked.size());
        e.candidate_nodes = std::move(ranked);
        explain_next_launch(std::move(e));
      }
      if (launch_task(stage, *next, node, next->spec.gpu_accelerable,
                      /*speculative=*/false, kind)) {
        rekey(next->live.back().node);
        progressed = true;
      }
    }
  }
  // Standard speculative execution, copies on the stage's best nodes.
  for (auto [stage_id, task_index] : find_speculatable()) {
    auto it = stages_.find(stage_id);
    if (it == stages_.end()) continue;
    StageState& stage = it->second;
    TaskState& task = stage.tasks[task_index];
    for (NodeId node : ranked_free_nodes(stage_bottleneck(stage.set.stage_name))) {
      Executor* exec = executor(node);
      if (exec == nullptr || exec->free_slots() <= 0 || !node_usable(node)) continue;
      if (task.has_attempt_on(node)) continue;
      if (audit_enabled()) {
        Explain e;
        e.reason = "capability_speculative";
        e.detail = "tag=" + std::string(to_string(stage_bottleneck(stage.set.stage_name)));
        e.candidates = 1;
        e.candidate_nodes = {node};
        explain_next_launch(std::move(e));
      }
      if (launch_task(stage, task, node, task.spec.gpu_accelerable, /*speculative=*/true)) {
        note_speculative_launch(task.spec.id);
        break;
      }
    }
  }
}

}  // namespace rupam
