#include "sched/speculation.hpp"

#include <algorithm>

#include "common/stats.hpp"

namespace rupam {

void insert_finished_runtime(std::vector<double>& finished_runtimes, SimTime runtime) {
  finished_runtimes.insert(
      std::upper_bound(finished_runtimes.begin(), finished_runtimes.end(), runtime), runtime);
}

SimTime straggler_threshold(const std::vector<double>& finished_runtimes,
                            std::size_t total_tasks, const SpeculationRule& rule) {
  if (total_tasks == 0 || finished_runtimes.empty()) return -1.0;
  double finished = static_cast<double>(finished_runtimes.size());
  if (finished < rule.quantile * static_cast<double>(total_tasks)) return -1.0;
  double median = percentile_sorted(finished_runtimes, 50.0);
  return std::max(rule.multiplier * median, rule.min_threshold);
}

bool is_straggler(SimTime elapsed, SimTime threshold) {
  return threshold >= 0.0 && elapsed > threshold;
}

}  // namespace rupam
