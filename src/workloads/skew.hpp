// Data-skew models for per-task demand variation (paper §II-B2: tasks in
// one stage differ by large factors due to data skew and shuffles).
#pragma once

#include "common/rng.hpp"

namespace rupam {

/// Multiplicative demand factor with mean ~1: lognormal with coefficient
/// of variation `cv`, plus a heavy tail — with probability `heavy_tail`
/// the task is a ~4x outlier (a hot partition).
double skew_factor(Rng& rng, double cv, double heavy_tail);

}  // namespace rupam
