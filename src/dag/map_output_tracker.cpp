#include "dag/map_output_tracker.hpp"

namespace rupam {

void MapOutputTracker::record(JobId job, StageId stage, int partition, NodeId node) {
  outputs_[{job, stage}][partition] = node;
}

std::map<MapOutputTracker::ShuffleKey, std::vector<int>> MapOutputTracker::invalidate_node(
    NodeId node) {
  std::map<ShuffleKey, std::vector<int>> lost;
  for (auto stage_it = outputs_.begin(); stage_it != outputs_.end();) {
    auto& parts = stage_it->second;
    for (auto it = parts.begin(); it != parts.end();) {
      if (it->second == node) {
        lost[stage_it->first].push_back(it->first);
        it = parts.erase(it);
      } else {
        ++it;
      }
    }
    stage_it = parts.empty() ? outputs_.erase(stage_it) : std::next(stage_it);
  }
  return lost;
}

void MapOutputTracker::forget(JobId job, StageId stage) { outputs_.erase({job, stage}); }

}  // namespace rupam
