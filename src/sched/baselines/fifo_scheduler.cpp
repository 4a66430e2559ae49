#include "sched/baselines/fifo_scheduler.hpp"

namespace rupam {

void FifoScheduler::try_dispatch() {
  if (stages_.empty()) return;
  std::size_t n = cluster().size();
  // Nothing waits for a slot: a pass would visit every ready node and
  // launch nothing, so skip it.
  bool progressed = pending_tasks() > 0;
  while (progressed) {
    progressed = false;
    bool drained = false;
    const std::vector<StageState*>& ordered = schedulable_stages();
    NodeId start = static_cast<NodeId>(rotation_ % n);
    for_each_ready_node(start, [&](NodeId node, Executor&) {
      for (StageState* sp : ordered) {
        StageState& stage = *sp;
        TaskState* next = next_launchable(stage);
        if (next == nullptr) continue;
        Explain e;
        if (audit_enabled()) {
          e.reason = "fifo_first_free_slot";
          e.detail = "rotation=" + std::to_string(rotation_ % n);
          e.candidates = 1;
          e.candidate_nodes = {node};
        }
        if (launch_task(stage, *next, node, next->spec.gpu_accelerable, /*speculative=*/false,
                        ResourceKind::kCpu, audit_enabled() ? &e : nullptr)) {
          progressed = true;
          drained = pending_tasks() == 0;
        }
        break;  // earliest taskset in policy order only
      }
      return !drained;  // one launch per node per pass
    });
    ++rotation_;
    // The pass after the one that empties the pending set would launch
    // nothing: skip it, but keep its rotation step so every later round
    // starts on the node it always did.
    if (drained) {
      ++rotation_;
      break;
    }
  }
  for (auto [stage_id, task_index] : find_speculatable()) {
    auto it = stages_.find(stage_id);
    if (it == stages_.end()) continue;
    StageState& stage = it->second;
    TaskState& task = stage.tasks[task_index];
    for_each_ready_node(0, [&](NodeId node, Executor&) {
      if (task.has_attempt_on(node)) return true;
      Explain e;
      if (audit_enabled()) {
        e.reason = "fifo_speculative";
        e.candidates = 1;
        e.candidate_nodes = {node};
      }
      if (launch_task(stage, task, node, task.spec.gpu_accelerable, /*speculative=*/true,
                      ResourceKind::kCpu, audit_enabled() ? &e : nullptr)) {
        note_speculative_launch(task.spec.id);
        return false;
      }
      return true;
    });
  }
}

}  // namespace rupam
