#include "tasks/locality.hpp"

namespace rupam {

Locality locality_of(const TaskSpec& task, NodeId node, const CacheProbe& cache_probe) {
  if (!task.input_cache_key.empty() && cache_probe && cache_probe(node, task.input_cache_key)) {
    return Locality::kProcessLocal;
  }
  if (task.prefers(node)) return Locality::kNodeLocal;
  // Result tasks with no block preference read shuffle output from
  // everywhere: treat as ANY (matches Spark's no-pref semantics).
  return Locality::kAny;
}

std::vector<Locality> locality_levels(bool any_cached, bool any_preferred) {
  std::vector<Locality> levels;
  if (any_cached) levels.push_back(Locality::kProcessLocal);
  if (any_preferred) levels.push_back(Locality::kNodeLocal);
  levels.push_back(Locality::kAny);
  return levels;
}

}  // namespace rupam
