// MapOutputTracker: which node holds each completed shuffle-map
// partition's output (Spark's MapOutputTrackerMaster, minus the
// per-reducer block sizes — the simulator only needs locations so a node
// crash can invalidate them and trigger recomputation).
//
// One tracker is shared by every job in flight; registrations are keyed by
// (job, stage) so concurrent jobs — possibly from different applications —
// never shadow each other's shuffle outputs. A job's entries are dropped
// with forget() as it completes.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace rupam {

class MapOutputTracker {
 public:
  using ShuffleKey = std::pair<JobId, StageId>;

  /// Record (or overwrite, on recompute) the location of one partition's
  /// map output.
  void record(JobId job, StageId stage, int partition, NodeId node);

  /// Every registered output on `node` is lost (node crash). Removes the
  /// registrations and returns (job, stage) → sorted lost partitions.
  std::map<ShuffleKey, std::vector<int>> invalidate_node(NodeId node);

  /// Drop one completed stage's registrations (nothing will fetch them
  /// again once the owning job has finished).
  void forget(JobId job, StageId stage);

 private:
  std::map<ShuffleKey, std::map<int, NodeId>> outputs_;
};

}  // namespace rupam
