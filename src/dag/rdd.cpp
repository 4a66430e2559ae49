#include "dag/rdd.hpp"

#include <stdexcept>

namespace rupam {

std::vector<std::vector<NodeId>> place_blocks(std::size_t partitions,
                                              const std::vector<NodeId>& nodes, int replication,
                                              Rng& rng, const std::vector<double>& weights) {
  if (nodes.empty()) throw std::invalid_argument("place_blocks: no nodes");
  if (replication < 1) throw std::invalid_argument("place_blocks: replication < 1");
  if (!weights.empty() && weights.size() != nodes.size()) {
    throw std::invalid_argument("place_blocks: weights/nodes size mismatch");
  }
  auto n = nodes.size();
  auto reps = std::min<std::size_t>(static_cast<std::size_t>(replication), n);

  // Build a weighted round-robin ring: each node appears proportionally to
  // its weight, interleaved for even short-range spread.
  std::vector<std::size_t> ring;
  double min_w = 1e300;
  for (std::size_t i = 0; i < n; ++i) {
    double w = weights.empty() ? 1.0 : weights[i];
    if (w > 0.0) min_w = std::min(min_w, w);
  }
  for (std::size_t i = 0; i < n; ++i) {
    double w = weights.empty() ? 1.0 : weights[i];
    auto copies = static_cast<std::size_t>(w / min_w + 0.5);
    for (std::size_t c = 0; c < copies; ++c) ring.push_back(i);
  }
  // Deterministic shuffle so same-node copies do not clump.
  for (std::size_t i = ring.size(); i > 1; --i) {
    std::size_t j = rng.uniform_index(i);
    std::swap(ring[i - 1], ring[j]);
  }

  std::vector<std::vector<NodeId>> out(partitions);
  std::size_t cursor = rng.uniform_index(ring.size());
  for (std::size_t p = 0; p < partitions; ++p) {
    for (std::size_t r = 0; r < reps; ++r) {
      // Pick the next ring slot whose node is not already a replica.
      for (std::size_t probe = 0; probe < ring.size(); ++probe) {
        NodeId candidate = nodes[ring[(cursor + probe) % ring.size()]];
        bool dup = false;
        for (NodeId existing : out[p]) dup = dup || existing == candidate;
        if (!dup) {
          out[p].push_back(candidate);
          cursor = (cursor + probe + 1) % ring.size();
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace rupam
