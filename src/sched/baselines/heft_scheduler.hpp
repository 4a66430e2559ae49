// HEFT-style list scheduler — the classic heterogeneous workflow baseline
// (Topcuoglu et al., "Performance-Effective and Low-Complexity Task
// Scheduling for Heterogeneous Computing").
//
// Stages are prioritized by upward rank over the job's stage DAG:
//
//   rank_u(s) = avg_cost(s) + max over children c of rank_u(c)
//
// where avg_cost(s) is the stage's mean task execution cost averaged over
// the heterogeneous node cost table (per-node cpu_perf, NIC bandwidth and
// disk bandwidths from NodeSpec). Communication cost is folded into the
// child's avg_cost: in this simulator shuffle-fetch time is part of the
// child task's service time, so a separate edge term would double-count
// it (DESIGN.md §14 states the rank definition).
//
// Dispatch walks ready stages in descending rank and places each task on
// the free node with the earliest finish time — with only currently free
// slots admissible, EFT reduces to the minimum execution cost over free
// nodes (occupied nodes have unknowable ready times at dispatch instant).
//
// Like the other baselines it keeps the stock Spark mechanisms it does
// not replace: per-core slots, retry, speculative execution.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sched/scheduler.hpp"

namespace rupam {

class HeftScheduler : public SchedulerBase {
 public:
  explicit HeftScheduler(SchedulerEnv env);

  std::string name() const override { return "HEFT"; }

  /// Precompute upward ranks for every stage of `app` (Simulation calls
  /// this before the first stage is submitted).
  void register_dag(const Application& app) override;

  /// rank_u of a stage; 0 for stages never announced via register_dag
  /// (they fall back to submission order among themselves).
  double upward_rank(StageId stage) const;

  /// Estimated execution cost of `task` on `node` (seconds): compute at
  /// the node's measured per-core speed (GPU path when both sides have
  /// one) plus input/shuffle volumes over the node's disk and NIC
  /// bandwidths. This is the heterogeneous cost table behind both the
  /// ranks and the EFT choice.
  static double exec_cost(const TaskSpec& task, const NodeSpec& node);

 protected:
  void try_dispatch() override;

 private:
  double avg_stage_cost(const Stage& stage) const;
  /// Best free node for `task` by exec_cost, ties to the lowest NodeId,
  /// skipping the nodes that already run an attempt of `copy_of`;
  /// kInvalidNode when no such node has a free slot.
  NodeId best_free_node(const TaskSpec& task, const TaskState* copy_of = nullptr);

  std::map<StageId, double> rank_;
  /// Rank-order scratch: rank is resolved once per stage per round, and
  /// sorting (rank desc, policy position asc) with plain std::sort matches
  /// stable_sort's output without its temporary-buffer allocation.
  struct RankedStage {
    double rank = 0.0;
    std::size_t pos = 0;
    StageState* stage = nullptr;
  };
  std::vector<RankedStage> order_scratch_;
};

}  // namespace rupam
