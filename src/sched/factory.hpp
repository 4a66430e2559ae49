// Single construction point for every task scheduler. The rest of the
// code base (Simulation, CLI, benches, tests) names schedulers via
// SchedulerKind and calls make_scheduler — there are no per-call-site
// if/switch construction chains.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "sched/rupam/rupam_scheduler.hpp"
#include "sched/scheduler.hpp"

namespace rupam {

enum class SchedulerKind {
  kSpark,       // the paper's baseline: locality-only, per-core slots
  kRupam,       // the paper's contribution
  kStageAware,  // prior-work proxy: heterogeneity-aware, stage-granular
  kFifo,        // oblivious lower bound
  kHeft,        // classic workflow baseline: upward-rank list scheduling
};

std::string_view to_string(SchedulerKind kind);

/// Lower-case CLI/JSON name ("spark", "rupam", ...) — the round-trip
/// partner of scheduler_kind_from_name (to_string() is display-cased).
std::string_view scheduler_cli_name(SchedulerKind kind);

/// Map a CLI name (spark|rupam|stageaware|fifo|heft) to its kind; nullopt
/// for unknown names.
std::optional<SchedulerKind> scheduler_kind_from_name(const std::string& name);

/// Construct a scheduler of `kind` over `env`. Only RUPAM reads `rupam`;
/// no other scheduler has a setting a run can vary.
std::unique_ptr<SchedulerBase> make_scheduler(SchedulerKind kind, SchedulerEnv env,
                                              const RupamConfig& rupam = {});

}  // namespace rupam
