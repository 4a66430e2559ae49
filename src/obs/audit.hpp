// Scheduler decision audit — one machine-readable record per dispatch,
// answering "why did THIS task land on THAT node?". SchedulerBase emits a
// record from its launch_task choke point; the concrete scheduler fills
// in the placement rationale (RUPAM bottleneck-tag match + heap rank,
// Spark delay-scheduling level taken vs. allowed, FAIR pool that won,
// fallback path) in the Explain it passes to launch_task. Exported behind
// `rupam_sim --explain` as CSV or JSON.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/symbol.hpp"
#include "common/types.hpp"

namespace rupam {

/// One dispatch decision. `reason` is a stable machine-readable token
/// (see DESIGN.md §8 for the vocabulary); `detail` carries scheduler-
/// specific key=value pairs (e.g. "tag=I/O queue=I/O rank=0").
struct DispatchDecision {
  SimTime time = 0.0;
  std::string scheduler;
  StageId stage = 0;
  TaskId task = 0;
  AttemptId attempt = 0;
  NodeId node = kInvalidNode;
  Locality locality = Locality::kAny;
  /// Interned pool id; resolved to the pool name at export time via the
  /// DecisionAudit's name table (see note_pool). Invalid prints as "".
  PoolId pool;
  bool speculative = false;
  /// Resource queue the attempt was served from (RUPAM; others kCpu).
  ResourceKind queue = ResourceKind::kCpu;
  std::string reason;
  /// How many nodes the scheduler weighed for this task.
  int candidates_considered = 0;
  /// The candidate nodes, in the order the scheduler ranked them.
  std::vector<NodeId> candidate_nodes;
  std::string detail;
};

class DecisionAudit {
 public:
  void record(DispatchDecision decision) { decisions_.push_back(std::move(decision)); }

  const std::vector<DispatchDecision>& decisions() const { return decisions_; }
  std::size_t size() const { return decisions_.size(); }

  /// Registers the name behind a PoolId so exports can resolve the pool
  /// column. SchedulerBase calls this from attach() (backfilling every
  /// pool interned so far) and again on each later intern — recording a
  /// decision itself never touches strings.
  void note_pool(PoolId id, std::string_view name);
  /// Name behind `id`; "" when invalid or never registered.
  const std::string& pool_name(PoolId id) const;

  /// RFC 4180 CSV with a header row; candidate_nodes joins with ';'.
  void write_csv(std::ostream& os) const;
  /// JSON array of record objects.
  void write_json(std::ostream& os) const;

 private:
  std::vector<DispatchDecision> decisions_;
  /// Dense PoolId → name, filled via note_pool.
  std::vector<std::string> pool_names_;
};

}  // namespace rupam
