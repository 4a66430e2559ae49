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

std::optional<SchedulerKind> scheduler_kind_from_name(const std::string& name) {
  if (name == "spark") return SchedulerKind::kSpark;
  if (name == "rupam") return SchedulerKind::kRupam;
  if (name == "stageaware") return SchedulerKind::kStageAware;
  if (name == "fifo") return SchedulerKind::kFifo;
  if (name == "heft") return SchedulerKind::kHeft;
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
