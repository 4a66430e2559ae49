// Data-locality computation (Spark's PROCESS/NODE/RACK/ANY ladder).
#pragma once

#include <functional>
#include <vector>

#include "common/types.hpp"
#include "tasks/task.hpp"

namespace rupam {

/// Answers "does node N hold cached block K in its executor?"
using CacheProbe = std::function<bool(NodeId, const std::string&)>;

/// Locality of running `task` on `node`. PROCESS_LOCAL requires the input
/// RDD block cached in that node's executor; NODE_LOCAL requires the input
/// block on the node's storage. Single-rack cluster: RACK_LOCAL never
/// occurs (paper Table V note: "all workloads have zero RACK_LOCAL tasks").
Locality locality_of(const TaskSpec& task, NodeId node, const CacheProbe& cache_probe);

/// The levels a task set can achieve, best-first and always ending in ANY,
/// given whether any of its tasks reads a cached block (`any_cached`) or
/// prefers some node (`any_preferred`). Spark's delay scheduling only
/// waits on levels that exist: a set with no cached input never waits at
/// PROCESS_LOCAL.
std::vector<Locality> locality_levels(bool any_cached, bool any_preferred);

/// True when `a` is at least as good (as local) as `b`.
inline bool locality_at_least(Locality a, Locality b) {
  return static_cast<int>(a) <= static_cast<int>(b);
}

}  // namespace rupam
