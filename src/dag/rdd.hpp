// HDFS-style block placement: input partitions get stable block locations
// (data locality). The simulator executes no transformations.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace rupam {

/// Spread `partitions` blocks over `nodes` with `replication` replicas
/// each (deterministic given rng). `weights` biases placement the way
/// HDFS does — proportionally to each datanode's storage capacity (in the
/// paper's cluster the 1 TB HDD nodes hold ~2x the blocks of the 512 GB
/// SSD thor nodes, which is what pins cached partitions, and hence later
/// iterations under locality-only scheduling, onto the weak nodes).
/// Empty weights = uniform.
std::vector<std::vector<NodeId>> place_blocks(std::size_t partitions,
                                              const std::vector<NodeId>& nodes, int replication,
                                              Rng& rng, const std::vector<double>& weights = {});

}  // namespace rupam
