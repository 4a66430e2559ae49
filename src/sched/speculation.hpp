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

/// Returns a straggler runtime threshold, or a negative value when the
/// stage has not yet finished enough tasks to judge. The median is taken in
/// a caller-owned scratch buffer, so a hot caller (the per-round
/// speculation scan) allocates nothing once the scratch capacity has
/// warmed up. `scratch` is clobbered.
SimTime straggler_threshold(const std::vector<double>& finished_runtimes,
                            std::size_t total_tasks, const SpeculationRule& rule,
                            std::vector<double>& scratch);

bool is_straggler(SimTime elapsed, SimTime threshold);

}  // namespace rupam
