// Post-run analysis engine — turns the raw observability exports (task-phase
// spans, dispatch-decision audit, scheduling-event trace, per-job JCT
// records) into a machine-readable diagnosis:
//
//   * per-job critical path: the chain of attempts that actually gated the
//     job's completion, reconstructed backwards from the finish instant over
//     span envelopes + DAG edges, with every second of the JCT attributed to
//     a phase category (queueing / input / shuffle read / compute / GC /
//     shuffle write / spill / output / driver). The attribution is exact:
//     PhaseAttribution::total() == jct within floating-point addition error.
//
//   * straggler attribution: tasks whose service time exceeds k x their
//     stage median, each joined against the audit and the cluster /
//     membership / fault events to a machine-readable cause (slow node
//     class, blacklist rebound, pool preemption, spot drain, GPU
//     contention, GC pressure, shuffle skew).
//
// The analyzer is a pure function of a RunArtifacts bundle — it never
// touches the simulator, so it can run on any recorded run (DESIGN.md §13).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "metrics/jct.hpp"
#include "obs/audit.hpp"
#include "obs/spans.hpp"

namespace rupam {

class EventTrace;

/// Machine-readable straggler cause vocabulary (DESIGN.md §13). Ordered by
/// attribution priority: event-driven causes (the task demonstrably lost an
/// attempt or a node) outrank capability causes, which outrank phase-shape
/// causes.
enum class StragglerCause : std::uint8_t {
  kPoolPreemption = 0,  // a FAIR reclaim killed an attempt of this task
  kSpotDrain,           // an attempt died to a spot revocation drain
  kNodeFault,           // an attempt died with its node (crash / lost executor)
  kBlacklistRebound,    // launched on a node fresh off the blacklist
  kGpuContention,       // raced for a GPU device (RUPAM gpu queue)
  kSlowNodeClass,       // landed on a node class well below the fleet's best
  kGcPressure,          // GC dominated the winning attempt
  kShuffleSkew,         // shuffle read dominated the winning attempt
  kUnknown,
};
inline constexpr int kNumStragglerCauses = 9;

std::string_view to_string(StragglerCause cause);

/// Disjoint time categories along a critical path (seconds). `driver` is
/// the remainder: inter-stage gaps the DAG driver owns plus any untraced
/// time, so the categories always sum exactly to the window they cover.
struct PhaseAttribution {
  double queueing = 0.0;
  double input_read = 0.0;
  double shuffle_read = 0.0;  // disk + net fetch
  double compute = 0.0;       // GC share excluded
  double gc = 0.0;            // compute-tail GC + cache-churn GC
  double shuffle_write = 0.0;  // spill share excluded
  double spill = 0.0;
  double output_send = 0.0;
  double driver = 0.0;

  double total() const {
    return queueing + input_read + shuffle_read + compute + gc + shuffle_write + spill +
           output_send + driver;
  }
  PhaseAttribution& operator+=(const PhaseAttribution& o);
};

/// One attempt's segment on a job's critical path (chronological order in
/// JobDiagnosis::path). `gap_after` is driver-attributed time between this
/// attempt's end and the next path segment (or the job finish).
struct CriticalPathStep {
  StageId stage = -1;
  TaskId task = -1;
  AttemptId attempt = 0;
  NodeId node = kInvalidNode;
  SimTime start = 0.0;  // segment start (clipped to the job window)
  SimTime end = 0.0;    // segment end
  SimTime gap_after = 0.0;
};

struct JobDiagnosis {
  JobId job = -1;
  std::string name;
  std::string pool;
  SimTime submitted = 0.0;
  SimTime finished = 0.0;
  double jct = 0.0;
  /// Sums to `jct` within 1e-9 (gated by bench/analyzer.cpp).
  PhaseAttribution critical_path;
  std::vector<CriticalPathStep> path;
};

struct StragglerReport {
  StageId stage = -1;
  TaskId task = -1;
  AttemptId attempt = 0;  // the completing attempt
  NodeId node = kInvalidNode;
  std::string node_class;
  double duration = 0.0;      // first launch -> last completion (seconds)
  double stage_median = 0.0;  // median task service time in the stage
  double ratio = 0.0;         // duration / stage_median
  StragglerCause cause = StragglerCause::kUnknown;
  /// Machine-readable key=value context for the cause (space-separated).
  std::string detail;
};

/// Static facts about one node the analyzer joins against (decommissioned
/// nodes included — dispatch decisions may reference them).
struct AnalyzerNodeInfo {
  NodeId id = kInvalidNode;
  std::string name;
  std::string node_class;
  double cpu_perf = 1.0;
  int gpus = 0;
};

/// Everything analyze_run consumes. `spans` and `jobs` are required; the
/// audit and event trace are optional joins (straggler causes degrade to
/// the capability/phase-shape vocabulary without them).
struct RunArtifacts {
  const SpanTrace* spans = nullptr;
  const DecisionAudit* audit = nullptr;
  const EventTrace* trace = nullptr;
  std::vector<JobCompletion> jobs;
  /// DAG facts: owning job and shuffle parents per stage.
  std::map<StageId, JobId> stage_job;
  std::map<StageId, std::vector<StageId>> stage_parents;
  std::vector<AnalyzerNodeInfo> nodes;
};

/// The cause thresholds are constants in analyzer.cpp (DESIGN.md §4).
struct AnalyzerConfig {
  /// Straggler threshold: task service time > k x stage median.
  double straggler_k = 1.5;
};

struct RunDiagnosis {
  std::vector<JobDiagnosis> jobs;
  std::vector<StragglerReport> stragglers;
  /// Critical-path attribution summed over every job.
  PhaseAttribution critical_path_total;
  std::array<std::size_t, kNumStragglerCauses> stragglers_by_cause{};
  std::size_t attempts = 0;  // attempts reconstructed from the span trace
  std::size_t tasks = 0;     // tasks with at least one completed attempt
};

/// Pure analysis: no side effects, deterministic for identical artifacts.
/// Throws std::invalid_argument when `artifacts.spans` is null.
RunDiagnosis analyze_run(const RunArtifacts& artifacts, const AnalyzerConfig& config = {});

/// Compact per-run rollup carried in sweep matrices (one per cell rep).
struct AnalyzerSummary {
  std::size_t stragglers = 0;
  std::array<std::size_t, kNumStragglerCauses> by_cause{};
  PhaseAttribution critical_path;  // summed over the run's jobs
};

AnalyzerSummary summarize_diagnosis(const RunDiagnosis& diagnosis);

class JsonWriter;

/// Emit a summary as one JSON object value on `w` (the sweep matrix embeds
/// these per run and per cell): {"stragglers", "by_cause", "critical_path"}.
void write_analyzer_summary_json(const AnalyzerSummary& summary, JsonWriter& w);

/// Machine-readable diagnosis document (schema in DESIGN.md §13).
void write_diagnosis_json(const RunDiagnosis& diagnosis, std::ostream& os);

/// Human-readable tables (common/table): per-job critical-path breakdown
/// and the straggler list with causes.
void print_diagnosis(const RunDiagnosis& diagnosis, std::ostream& os);

}  // namespace rupam
