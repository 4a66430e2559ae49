// Stage-level heterogeneity-aware baseline.
//
// Represents the class of prior schedulers the paper positions RUPAM
// against (§I/§II: approaches that "often make the assumption that ...
// tasks in the same Map/Reduce stage would have same resource consumption
// patterns" and "optimize for a dominant resource bottleneck for tasks in
// a Map/Reduce stage"). It is heterogeneity-aware — it ranks nodes by
// capability for the stage's dominant resource — but characterizes at
// stage granularity, with no per-task history, no memory guard, no
// over-commit, and no GPU/CPU racing. The gap between this baseline and
// RUPAM isolates the value of RUPAM's per-task treatment.
//
// Placement cost: a node's score reads the one capability its kind needs
// (Node::capability, not a full metrics snapshot). Each round keeps, per
// kind, a min-heap of the ready nodes keyed by (score, id), built on the
// kind's first placement. Inside a round a launch changes only the node
// its attempt lands on (a replay interceptor may redirect it), so only
// that node is re-keyed; stale entries are dropped when they surface.
// The audited path places identically and only adds the full ranking to
// the audit record.
#pragma once

#include <array>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sched/rupam/task_manager.hpp"
#include "sched/scheduler.hpp"

namespace rupam {

class CapabilityScheduler : public SchedulerBase {
 public:
  explicit CapabilityScheduler(SchedulerEnv env) : SchedulerBase(std::move(env)) {}

  std::string name() const override { return "StageAware"; }

  /// Stage-level profile inferred from completed tasks of a stage name.
  struct StageProfileEstimate {
    int samples = 0;
    SimTime compute = 0.0;
    SimTime shuffle_read = 0.0;
    SimTime shuffle_write = 0.0;
    bool gpu = false;
  };
  /// The dominant resource this scheduler currently assumes for a stage
  /// (CPU until evidence arrives — the "generic computation" default).
  ResourceKind stage_bottleneck(const std::string& stage_name) const;

 protected:
  void try_dispatch() override;
  void task_succeeded(StageState& stage, TaskState& task, const TaskMetrics& metrics) override;

 private:
  using Keyed = std::pair<double, NodeId>;  // (score, id), lower is better
  /// One kind's ready nodes for the current round, a min-heap on (score,
  /// id) that may hold stale entries (see best_free_node).
  struct ReadyHeap {
    std::size_t round = 0;  // dispatch_rounds() when built (0: never)
    std::vector<Keyed> entries;
  };

  /// Ranking key of `node` for `kind`, lower is better: capability first,
  /// then the executor's load. Ties break on the node id.
  double score(NodeId node, ResourceKind kind) const;
  /// Can `node` take a task whose stage bottleneck is `kind` right now?
  bool admissible(NodeId node, ResourceKind kind) const;
  /// Every schedulable node ordered best-first for `kind` (the audited
  /// path: the audit records the rank and the full candidate list).
  std::vector<NodeId> ranked_nodes(ResourceKind kind) const;
  /// The admissible node with the minimum (score, id): the first
  /// admissible node of the full ranking. Pops the kind's heap until its
  /// top is admissible and keyed with its current score. kInvalidNode if
  /// no node qualifies.
  NodeId best_free_node(ResourceKind kind);
  /// A launch landed on `node`: push its new key into every heap built
  /// this round (its old entries go stale).
  void rekey(NodeId node);
  /// The ranking restricted to nodes with a free slot, for speculative
  /// copies, which fall through to the next node when a launch fails.
  /// Returns a reference into reused scratch, valid until the next call.
  const std::vector<NodeId>& ranked_free_nodes(ResourceKind kind);

  std::map<std::string, StageProfileEstimate> profiles_;
  // Dispatch-path scratch: capacity persists across rounds.
  std::array<ReadyHeap, kNumResourceKinds> ready_;
  std::vector<Keyed> scored_scratch_;
  std::vector<NodeId> ranked_scratch_;
};

}  // namespace rupam
