// Default Spark task scheduler (the paper's baseline).
//
// Semantics reproduced from Spark 2.2:
//  * one task per CPU core — a node is schedulable iff it has a free slot;
//  * purely locality-driven task choice with delay scheduling
//    (spark.locality.wait per level, only over levels the set can achieve);
//  * no awareness of memory, disk type, network speed, or GPUs;
//  * static executor sizing (the application sets one heap size that must
//    fit the weakest node — see SimulationConfig);
//  * speculative execution (spark.speculation) re-launches stragglers on
//    any node with a free slot.
//
// Dispatch is indexed: per stage, pending tasks are bucketed by preferred
// node and by live cache location (maintained from task-pending and
// block-cache change events), so an offer costs O(launches · log N)
// instead of rescanning every task per node.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "sched/scheduler.hpp"

namespace rupam {

class SparkScheduler : public SchedulerBase {
 public:
  explicit SparkScheduler(SchedulerEnv env) : SchedulerBase(std::move(env)) {}

  std::string name() const override { return "Spark"; }

 protected:
  void try_dispatch() override;
  void stage_submitted(StageState& stage) override;
  void stage_removed(StageState& stage) override;
  void task_pending_changed(StageState& stage, std::size_t index, bool pending) override;
  void cache_block_changed(NodeId node, const std::string& key, bool present) override;
  SimTime next_relaxation() const override;

 private:
  struct Candidate {
    StageState* stage = nullptr;
    TaskState* task = nullptr;
    Locality locality = Locality::kAny;
  };

  /// Per-stage locality index over *pending* task indices. The achievable
  /// locality levels (locality_levels) are over all tasks of the set, so
  /// the flags only ever widen.
  struct StageIdx {
    bool any_cached = false;
    bool any_preferred = false;
    std::vector<Locality> levels;
    /// node → pending indices with node in preferred_nodes.
    std::map<NodeId, std::set<std::size_t>> prefer;
    /// node → pending indices whose input block is cached there now.
    std::map<NodeId, std::set<std::size_t>> cached;
    /// input cache key → pending indices (cache-event fan-in).
    std::map<std::string, std::set<std::size_t>, std::less<>> by_key;
  };

  void index_task(StageState& stage, StageIdx& idx, std::size_t i);
  void deindex_task(StageState& stage, StageIdx& idx, std::size_t i);

  /// Best pending task for `node` across active stages (cross-job pool
  /// policy order), honoring each stage's currently allowed locality level.
  Candidate pick_task_for(NodeId node, const std::vector<StageState*>& ordered);
  /// Best pending task of one stage for `node` at `allowed` or better:
  /// cache-local bucket first, then preferred bucket, then any pending.
  Candidate indexed_pick(StageState& stage, StageIdx& idx, NodeId node, Locality allowed);
  /// Whole kLocalityWait periods `stage` has waited at `now` since its
  /// last launch (or its submission).
  static std::size_t level_hops(const StageState& stage, SimTime now);
  Locality allowed_level(const StageState& stage, const StageIdx& idx) const;
  bool launch_speculative_copies();

  std::size_t offer_rotation_ = 0;
  std::map<StageId, StageIdx> index_;
};

}  // namespace rupam
