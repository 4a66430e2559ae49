#include "sched/factory.hpp"

#include <stdexcept>

#include "sched/baselines/capability_scheduler.hpp"
#include "sched/baselines/fifo_scheduler.hpp"
#include "sched/baselines/heft_scheduler.hpp"
#include "sched/spark/spark_scheduler.hpp"

namespace rupam {

std::string_view to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kSpark: return "Spark";
    case SchedulerKind::kRupam: return "RUPAM";
    case SchedulerKind::kStageAware: return "StageAware";
    case SchedulerKind::kFifo: return "FIFO";
    case SchedulerKind::kHeft: return "HEFT";
  }
  return "?";
}

std::string_view scheduler_cli_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kSpark: return "spark";
    case SchedulerKind::kRupam: return "rupam";
    case SchedulerKind::kStageAware: return "stageaware";
    case SchedulerKind::kFifo: return "fifo";
    case SchedulerKind::kHeft: return "heft";
  }
  return "?";
}

std::optional<SchedulerKind> scheduler_kind_from_name(const std::string& name) {
  for (SchedulerKind kind : {SchedulerKind::kSpark, SchedulerKind::kRupam,
                             SchedulerKind::kStageAware, SchedulerKind::kFifo,
                             SchedulerKind::kHeft}) {
    if (scheduler_cli_name(kind) == name) return kind;
  }
  return std::nullopt;
}

std::unique_ptr<SchedulerBase> make_scheduler(SchedulerKind kind, SchedulerEnv env,
                                              const RupamConfig& rupam) {
  switch (kind) {
    case SchedulerKind::kRupam:
      return std::make_unique<RupamScheduler>(std::move(env), rupam);
    case SchedulerKind::kStageAware:
      return std::make_unique<CapabilityScheduler>(std::move(env));
    case SchedulerKind::kFifo:
      return std::make_unique<FifoScheduler>(std::move(env));
    case SchedulerKind::kHeft:
      return std::make_unique<HeftScheduler>(std::move(env));
    case SchedulerKind::kSpark:
      return std::make_unique<SparkScheduler>(std::move(env));
  }
  throw std::invalid_argument("make_scheduler: unknown SchedulerKind");
}

}  // namespace rupam
