// Pure straggler-detection logic (Spark's speculative execution rule,
// paper §III-C3): once `quantile` of a stage's tasks have finished, any
// task running longer than `multiplier` x the median finished runtime is a
// straggler. Kept as free functions so properties can be tested directly.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace rupam {

/// spark.speculation.quantile / .multiplier. The defaults are the rule
/// every run applies: SchedulerBase's straggler scan and RUPAM's dispatch
/// pre-check both read them from here.
struct SpeculationRule {
  double quantile = 0.75;
  double multiplier = 1.5;
  /// Floor so sub-100ms stages don't speculate on noise.
  SimTime min_threshold = 0.1;
};

/// Adds one finished task's runtime to a stage's list, keeping it in the
/// ascending order straggler_threshold reads.
void insert_finished_runtime(std::vector<double>& finished_runtimes, SimTime runtime);

/// Returns a straggler runtime threshold, or a negative value when the
/// stage has not yet finished enough tasks to judge. `finished_runtimes`
/// must be ascending (built by insert_finished_runtime), so the median is
/// an O(1) read.
SimTime straggler_threshold(const std::vector<double>& finished_runtimes,
                            std::size_t total_tasks, const SpeculationRule& rule);

bool is_straggler(SimTime elapsed, SimTime threshold);

}  // namespace rupam
