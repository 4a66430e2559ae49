#include "obs/analyzer.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>
#include <tuple>

#include "common/json_writer.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "metrics/event_trace.hpp"

namespace rupam {
namespace {

constexpr double kEps = 1e-9;

// Straggler-cause thresholds (run constants, DESIGN.md §4). Stages with
// fewer tasks than this have no meaningful median.
constexpr std::size_t kMinStageTasks = 3;
// A node class is "slow" when its cpu_perf < margin x the best class.
constexpr double kSlowClassMargin = 0.9;
// GC-pressure straggler: GC wall share of the winning attempt above this.
constexpr double kGcShare = 0.25;
// Shuffle-skew straggler: shuffle-read share above this.
constexpr double kShuffleShare = 0.5;
// Blacklist rebound: launch within this window after un-blacklisting.
constexpr SimTime kBlacklistReboundWindow = 60.0;

struct AttemptKey {
  StageId stage = -1;
  TaskId task = -1;
  AttemptId attempt = 0;

  bool operator<(const AttemptKey& o) const {
    return std::tie(stage, task, attempt) < std::tie(o.stage, o.task, o.attempt);
  }
  bool operator==(const AttemptKey& o) const {
    return stage == o.stage && task == o.task && attempt == o.attempt;
  }
};

/// One attempt reconstructed from its spans: the envelope [env_start,
/// env_end] is gap-free (executor phases tile it), `launch` is the end of
/// the queued span (== env_start when the attempt had no queue wait). The
/// attempt's spans are the slice [first_span, first_span + num_spans) of
/// AttemptIndex::span_order — a flat layout, so indexing a trace allocates
/// one vector total instead of one per attempt.
struct AttemptRec {
  AttemptKey key;
  NodeId node = kInvalidNode;
  SimTime env_start = std::numeric_limits<double>::infinity();
  SimTime env_end = -std::numeric_limits<double>::infinity();
  SimTime launch = -1.0;
  bool truncated = false;
  std::size_t first_span = 0;
  std::size_t num_spans = 0;
};

struct AttemptIndex {
  std::vector<AttemptRec> attempts;     // sorted by key
  std::vector<std::size_t> span_order;  // span indices grouped per attempt
};

AttemptIndex build_attempts(const std::vector<PhaseSpan>& spans) {
  AttemptIndex idx;
  // Sort a compact (key, index) array instead of comparing PhaseSpans in
  // place: the comparator then reads contiguous memory, not three fields
  // scattered across a 60-byte struct per probe.
  struct Keyed {
    std::uint64_t stage_task;
    std::uint32_t attempt;
    std::uint32_t index;
  };
  std::vector<Keyed> keyed(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const PhaseSpan& s = spans[i];
    keyed[i] = {(static_cast<std::uint64_t>(static_cast<std::uint32_t>(s.stage)) << 32) |
                    static_cast<std::uint32_t>(s.task),
                static_cast<std::uint32_t>(s.attempt), static_cast<std::uint32_t>(i)};
  }
  std::stable_sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    return std::tie(a.stage_task, a.attempt) < std::tie(b.stage_task, b.attempt);
  });
  idx.span_order.resize(spans.size());
  for (std::size_t i = 0; i < keyed.size(); ++i) idx.span_order[i] = keyed[i].index;
  for (std::size_t i = 0; i < idx.span_order.size(); ++i) {
    const PhaseSpan& s = spans[idx.span_order[i]];
    AttemptKey key{s.stage, s.task, s.attempt};
    if (idx.attempts.empty() || !(idx.attempts.back().key == key)) {
      AttemptRec rec;
      rec.key = key;
      rec.first_span = i;
      idx.attempts.push_back(rec);
    }
    AttemptRec& rec = idx.attempts.back();
    rec.node = s.node;
    rec.env_start = std::min(rec.env_start, s.start);
    rec.env_end = std::max(rec.env_end, s.end);
    if (s.phase == TaskPhase::kQueued) rec.launch = std::max(rec.launch, s.end);
    rec.truncated = rec.truncated || s.truncated;
    ++rec.num_spans;
  }
  for (AttemptRec& rec : idx.attempts) {
    if (rec.launch < 0.0) rec.launch = rec.env_start;
  }
  return idx;
}

double clipped_len(const PhaseSpan& s, double lo, double hi) {
  return std::max(0.0, std::min(s.end, hi) - std::max(s.start, lo));
}

double clipped_overlap(const PhaseSpan& a, const PhaseSpan& b, double lo, double hi) {
  double start = std::max({a.start, b.start, lo});
  double end = std::min({a.end, b.end, hi});
  return std::max(0.0, end - start);
}

/// Attribute the window [lo, hi] of one attempt to phase categories. GC is
/// recorded nested at the tail of compute and spill at the tail of the
/// shuffle write, so their overlap is subtracted from the enclosing phase;
/// whatever the spans do not cover falls to `driver` — the categories sum
/// to exactly (hi - lo) by construction.
void attribute_window(const std::vector<PhaseSpan>& spans, const AttemptIndex& idx,
                      const AttemptRec& rec, double lo, double hi, PhaseAttribution& out) {
  double queued = 0, input = 0, shuffle_read = 0, compute = 0, gc = 0;
  double write = 0, spill = 0, output = 0;
  const std::size_t* begin = idx.span_order.data() + rec.first_span;
  const std::size_t* end = begin + rec.num_spans;
  for (const std::size_t* p = begin; p != end; ++p) {
    const PhaseSpan& s = spans[*p];
    double len = clipped_len(s, lo, hi);
    if (len <= 0.0) continue;
    switch (s.phase) {
      case TaskPhase::kQueued: queued += len; break;
      case TaskPhase::kInputRead: input += len; break;
      case TaskPhase::kShuffleDiskRead:
      case TaskPhase::kShuffleNetRead: shuffle_read += len; break;
      case TaskPhase::kCompute: compute += len; break;
      case TaskPhase::kGc: gc += len; break;
      case TaskPhase::kShuffleWrite: write += len; break;
      case TaskPhase::kSpill: spill += len; break;
      case TaskPhase::kOutputSend: output += len; break;
    }
  }
  // Un-double-count the nested phases.
  for (const std::size_t* p = begin; p != end; ++p) {
    const PhaseSpan& a = spans[*p];
    if (a.phase != TaskPhase::kGc && a.phase != TaskPhase::kSpill) continue;
    for (const std::size_t* q = begin; q != end; ++q) {
      const PhaseSpan& b = spans[*q];
      if (a.phase == TaskPhase::kGc && b.phase == TaskPhase::kCompute) {
        compute -= clipped_overlap(a, b, lo, hi);
      } else if (a.phase == TaskPhase::kSpill && b.phase == TaskPhase::kShuffleWrite) {
        write -= clipped_overlap(a, b, lo, hi);
      }
    }
  }
  double covered = queued + input + shuffle_read + compute + gc + write + spill + output;
  out.queueing += queued;
  out.input_read += input;
  out.shuffle_read += shuffle_read;
  out.compute += compute;
  out.gc += gc;
  out.shuffle_write += write;
  out.spill += spill;
  out.output_send += output;
  out.driver += (hi - lo) - covered;
}

/// Backward critical-path walk for one job: from the finish instant, pick
/// the latest-ending attempt (preferring the current stage's shuffle
/// parents / retries), attribute its window, hop to its submit instant,
/// repeat. Every inter-attempt gap goes to `driver`, so the attribution
/// telescopes to exactly finished - submitted.
JobDiagnosis diagnose_job(const JobCompletion& jc, std::vector<const AttemptRec*>& attempts,
                          const std::map<StageId, std::vector<StageId>>& stage_parents,
                          const AttemptIndex& idx, const std::vector<PhaseSpan>& spans) {
  JobDiagnosis d;
  d.job = jc.job;
  d.name = jc.name;
  d.pool = jc.pool;
  d.submitted = jc.submitted;
  d.finished = jc.finished;
  d.jct = jc.jct();

  // Sorted by envelope end, the "latest attempt finishing by the cursor" is
  // a binary search plus (when stage-filtered) a short backward scan.
  std::stable_sort(attempts.begin(), attempts.end(),
                   [](const AttemptRec* a, const AttemptRec* b) {
                     return a->env_end < b->env_end;
                   });
  auto pick = [&](double cursor, const std::set<StageId>* stages) -> const AttemptRec* {
    auto it = std::upper_bound(attempts.begin(), attempts.end(), cursor + kEps,
                               [](double t, const AttemptRec* a) { return t < a->env_end; });
    while (it != attempts.begin()) {
      const AttemptRec* a = *--it;
      if (stages == nullptr || stages->count(a->key.stage) != 0) return a;
    }
    return nullptr;
  };

  double cursor = jc.finished;
  bool have_stage = false;
  std::set<StageId> candidates;
  std::vector<CriticalPathStep> rev_path;
  for (std::size_t iter = 0; iter <= attempts.size() + 1; ++iter) {
    if (cursor <= jc.submitted + kEps) break;
    const AttemptRec* a = nullptr;
    if (have_stage) a = pick(cursor, &candidates);
    if (a == nullptr) a = pick(cursor, nullptr);
    if (a == nullptr) {
      d.critical_path.driver += cursor - jc.submitted;
      cursor = jc.submitted;
      break;
    }
    double hi = std::min(cursor, a->env_end);
    double gap = cursor - hi;
    d.critical_path.driver += gap;
    double lo = std::max(a->env_start, jc.submitted);
    if (lo >= hi) {  // no forward progress: close out the remainder
      d.critical_path.driver += hi - jc.submitted;
      cursor = jc.submitted;
      break;
    }
    attribute_window(spans, idx, *a, lo, hi, d.critical_path);
    rev_path.push_back({a->key.stage, a->key.task, a->key.attempt, a->node, lo, hi, gap});
    cursor = lo;
    have_stage = true;
    candidates.clear();
    candidates.insert(a->key.stage);  // a retry / earlier attempt of the same stage
    auto it = stage_parents.find(a->key.stage);
    if (it != stage_parents.end()) candidates.insert(it->second.begin(), it->second.end());
  }
  d.critical_path.driver += std::max(0.0, cursor - jc.submitted);
  d.path.assign(rev_path.rbegin(), rev_path.rend());
  return d;
}

/// Per-node time-sorted index of the trace events the cause join consults.
struct EventIndex {
  std::map<std::pair<StageId, TaskId>, std::vector<const TraceEvent*>> preemptions;
  std::map<NodeId, std::vector<const TraceEvent*>> drains;         // draining + decommissioned
  std::map<NodeId, std::vector<const TraceEvent*>> faults;         // lost / dead / injected
  std::map<NodeId, std::vector<const TraceEvent*>> unblacklists;
};

EventIndex index_events(const EventTrace* trace) {
  EventIndex idx;
  if (trace == nullptr) return idx;
  for (const TraceEvent& e : trace->events()) {
    switch (e.type) {
      case TraceEventType::kTaskPreempted:
        idx.preemptions[{e.stage, e.task}].push_back(&e);
        break;
      case TraceEventType::kNodeDraining:
      case TraceEventType::kNodeDecommissioned:
        idx.drains[e.node].push_back(&e);
        break;
      case TraceEventType::kExecutorLost:
      case TraceEventType::kNodeDead:
      case TraceEventType::kFaultInjected:
        idx.faults[e.node].push_back(&e);
        break;
      case TraceEventType::kNodeUnblacklisted:
        idx.unblacklists[e.node].push_back(&e);
        break;
      default: break;
    }
  }
  return idx;
}

const TraceEvent* find_in_window(const std::map<NodeId, std::vector<const TraceEvent*>>& by_node,
                                 NodeId node, double lo, double hi) {
  auto it = by_node.find(node);
  if (it == by_node.end()) return nullptr;
  for (const TraceEvent* e : it->second) {
    if (e->time >= lo - kEps && e->time <= hi + kEps) return e;
  }
  return nullptr;
}

std::string two(double v) { return format_fixed(v, 2); }
std::string secs(double v) { return format_fixed(v, 3); }

}  // namespace

std::string_view to_string(StragglerCause cause) {
  switch (cause) {
    case StragglerCause::kPoolPreemption: return "pool_preemption";
    case StragglerCause::kSpotDrain: return "spot_drain";
    case StragglerCause::kNodeFault: return "node_fault";
    case StragglerCause::kBlacklistRebound: return "blacklist_rebound";
    case StragglerCause::kGpuContention: return "gpu_contention";
    case StragglerCause::kSlowNodeClass: return "slow_node_class";
    case StragglerCause::kGcPressure: return "gc_pressure";
    case StragglerCause::kShuffleSkew: return "shuffle_skew";
    case StragglerCause::kUnknown: return "unknown";
  }
  return "?";
}

PhaseAttribution& PhaseAttribution::operator+=(const PhaseAttribution& o) {
  queueing += o.queueing;
  input_read += o.input_read;
  shuffle_read += o.shuffle_read;
  compute += o.compute;
  gc += o.gc;
  shuffle_write += o.shuffle_write;
  spill += o.spill;
  output_send += o.output_send;
  driver += o.driver;
  return *this;
}

RunDiagnosis analyze_run(const RunArtifacts& artifacts, const AnalyzerConfig& config) {
  if (artifacts.spans == nullptr) {
    throw std::invalid_argument("analyze_run: a span trace is required");
  }
  const std::vector<PhaseSpan>& spans = artifacts.spans->spans();
  AttemptIndex index = build_attempts(spans);
  const std::vector<AttemptRec>& attempts = index.attempts;

  RunDiagnosis diag;
  diag.attempts = attempts.size();

  // --- Per-job critical paths -------------------------------------------
  auto job_of_stage = [&](StageId stage) -> JobId {
    auto it = artifacts.stage_job.find(stage);
    if (it != artifacts.stage_job.end()) return it->second;
    // Single-job artifacts may omit the map: everything belongs to it.
    return artifacts.jobs.size() == 1 ? artifacts.jobs.front().job : -1;
  };
  std::map<JobId, std::vector<const AttemptRec*>> by_job;
  for (const AttemptRec& rec : attempts) by_job[job_of_stage(rec.key.stage)].push_back(&rec);

  std::vector<JobCompletion> jobs = artifacts.jobs;
  std::sort(jobs.begin(), jobs.end(), [](const JobCompletion& a, const JobCompletion& b) {
    return std::tie(a.submitted, a.job) < std::tie(b.submitted, b.job);
  });
  std::vector<const AttemptRec*> no_attempts;
  for (const JobCompletion& jc : jobs) {
    auto it = by_job.find(jc.job);
    auto& job_attempts = it != by_job.end() ? it->second : no_attempts;
    diag.jobs.push_back(diagnose_job(jc, job_attempts, artifacts.stage_parents, index, spans));
    diag.critical_path_total += diag.jobs.back().critical_path;
  }

  // --- Straggler detection ----------------------------------------------
  // Task service time = first attempt's launch → last completed attempt's
  // finish, so retry + relaunch cost counts against the task.
  // `attempts` is sorted by (stage, task, attempt), so a task is a
  // contiguous run of attempts and a stage a contiguous run of tasks — the
  // grouping below is flat passes, no per-task containers.
  struct TaskRec {
    StageId stage = -1;
    TaskId task = -1;
    const AttemptRec* completing = nullptr;
    SimTime first_launch = 0.0;
    std::size_t first_attempt = 0;  // run [first_attempt, +num_attempts)
    std::size_t num_attempts = 0;
    double duration = 0.0;
  };
  std::vector<TaskRec> tasks;
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    const AttemptRec& rec = attempts[i];
    if (tasks.empty() || tasks.back().stage != rec.key.stage ||
        tasks.back().task != rec.key.task) {
      TaskRec t;
      t.stage = rec.key.stage;
      t.task = rec.key.task;
      t.first_launch = rec.launch;
      t.first_attempt = i;
      tasks.push_back(t);
    }
    TaskRec& t = tasks.back();
    t.first_launch = std::min(t.first_launch, rec.launch);
    ++t.num_attempts;
    if (!rec.truncated && (t.completing == nullptr || rec.env_end > t.completing->env_end)) {
      t.completing = &rec;
    }
  }
  std::map<StageId, double> stage_median;
  {
    std::vector<double> durations;  // reused per stage run
    std::size_t i = 0;
    while (i < tasks.size()) {
      StageId stage = tasks[i].stage;
      durations.clear();
      for (; i < tasks.size() && tasks[i].stage == stage; ++i) {
        TaskRec& t = tasks[i];
        if (t.completing == nullptr) continue;
        t.duration = t.completing->env_end - t.first_launch;
        durations.push_back(t.duration);
        ++diag.tasks;
      }
      if (durations.size() >= kMinStageTasks) {
        stage_median[stage] = percentile_inplace(durations, 50.0);
      }
    }
  }

  // --- Cause joins -------------------------------------------------------
  EventIndex events = index_events(artifacts.trace);
  std::map<NodeId, const AnalyzerNodeInfo*> node_info;
  double best_perf = 0.0;
  for (const AnalyzerNodeInfo& n : artifacts.nodes) {
    node_info[n.id] = &n;
    best_perf = std::max(best_perf, n.cpu_perf);
  }
  // Sorted (key, decision) pairs; stable sort + backward scan preserves the
  // old map's last-write-wins semantics for duplicate keys.
  std::vector<std::pair<AttemptKey, const DispatchDecision*>> decisions;
  if (artifacts.audit != nullptr) {
    decisions.reserve(artifacts.audit->decisions().size());
    for (const DispatchDecision& d : artifacts.audit->decisions()) {
      decisions.push_back({{d.stage, d.task, d.attempt}, &d});
    }
    std::stable_sort(decisions.begin(), decisions.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  auto find_decision = [&decisions](const AttemptKey& key) -> const DispatchDecision* {
    auto it = std::upper_bound(
        decisions.begin(), decisions.end(), key,
        [](const AttemptKey& k, const auto& p) { return k < p.first; });
    if (it == decisions.begin()) return nullptr;
    --it;
    return it->first == key ? it->second : nullptr;
  };

  for (const TaskRec& t : tasks) {
    if (t.completing == nullptr) continue;
    auto med_it = stage_median.find(t.stage);
    if (med_it == stage_median.end() || med_it->second <= 0.0) continue;
    double median = med_it->second;
    if (t.duration <= config.straggler_k * median) continue;

    const AttemptRec& win = *t.completing;
    StragglerReport r;
    r.stage = t.stage;
    r.task = t.task;
    r.attempt = win.key.attempt;
    r.node = win.node;
    r.duration = t.duration;
    r.stage_median = median;
    r.ratio = t.duration / median;
    const AnalyzerNodeInfo* info = nullptr;
    if (auto nit = node_info.find(win.node); nit != node_info.end()) info = nit->second;
    if (info != nullptr) r.node_class = info->node_class;

    // Priority: event-driven causes, then capability, then phase shape.
    const TraceEvent* evt = nullptr;
    const AttemptRec* lost = nullptr;  // earlier attempt killed mid-flight
    for (std::size_t ai = t.first_attempt; ai < t.first_attempt + t.num_attempts; ++ai) {
      const AttemptRec* a = &attempts[ai];
      if (a->truncated && a != &win) { lost = a; break; }
    }
    if (auto pit = events.preemptions.find({t.stage, t.task});
        pit != events.preemptions.end() && !pit->second.empty()) {
      const TraceEvent* p = pit->second.front();
      r.cause = StragglerCause::kPoolPreemption;
      r.detail = "preempted_at=" + secs(p->time) + " node=" + std::to_string(p->node);
    } else if (lost != nullptr &&
               (evt = find_in_window(events.drains, lost->node, lost->env_start,
                                     lost->env_end)) != nullptr) {
      r.cause = StragglerCause::kSpotDrain;
      r.detail = "drained_node=" + std::to_string(lost->node) + " " +
                 std::string(to_string(evt->type)) + "_at=" + secs(evt->time);
    } else if (lost != nullptr &&
               (evt = find_in_window(events.faults, lost->node, lost->env_start,
                                     lost->env_end)) != nullptr) {
      r.cause = StragglerCause::kNodeFault;
      r.detail = "failed_node=" + std::to_string(lost->node) + " " +
                 std::string(to_string(evt->type)) + "_at=" + secs(evt->time);
    } else if ((evt = find_in_window(events.unblacklists, win.node,
                                     win.launch - kBlacklistReboundWindow,
                                     win.launch)) != nullptr) {
      r.cause = StragglerCause::kBlacklistRebound;
      r.detail = "unblacklisted_at=" + secs(evt->time) + " launch=" + secs(win.launch);
    } else {
      const DispatchDecision* dec = find_decision(win.key);
      PhaseAttribution ph;
      attribute_window(spans, index, win, win.env_start, win.env_end, ph);
      double service = win.env_end - win.launch;
      if (dec != nullptr && dec->reason == "rupam_gpu_race") {
        r.cause = StragglerCause::kGpuContention;
        r.detail = "queue=" + std::string(to_string(dec->queue)) + " reason=" + dec->reason;
      } else if (info != nullptr && best_perf > 0.0 &&
                 info->cpu_perf < kSlowClassMargin * best_perf) {
        r.cause = StragglerCause::kSlowNodeClass;
        r.detail = "class=" + info->node_class + " cpu_perf=" + two(info->cpu_perf) +
                   " best=" + two(best_perf);
      } else if (service > 0.0 && ph.gc / service > kGcShare) {
        r.cause = StragglerCause::kGcPressure;
        r.detail = "gc_s=" + secs(ph.gc) + " share=" + two(ph.gc / service);
      } else if (service > 0.0 && ph.shuffle_read / service > kShuffleShare) {
        r.cause = StragglerCause::kShuffleSkew;
        r.detail = "shuffle_read_s=" + secs(ph.shuffle_read) +
                   " share=" + two(ph.shuffle_read / service);
      } else {
        r.cause = StragglerCause::kUnknown;
        r.detail = "ratio=" + two(r.ratio);
      }
    }
    ++diag.stragglers_by_cause[static_cast<std::size_t>(r.cause)];
    diag.stragglers.push_back(std::move(r));
  }
  return diag;
}

AnalyzerSummary summarize_diagnosis(const RunDiagnosis& diagnosis) {
  AnalyzerSummary s;
  s.stragglers = diagnosis.stragglers.size();
  s.by_cause = diagnosis.stragglers_by_cause;
  s.critical_path = diagnosis.critical_path_total;
  return s;
}

namespace {

void write_attribution(JsonWriter& w, const PhaseAttribution& a) {
  w.begin_object();
  w.key("queueing").number(a.queueing, 9);
  w.key("input_read").number(a.input_read, 9);
  w.key("shuffle_read").number(a.shuffle_read, 9);
  w.key("compute").number(a.compute, 9);
  w.key("gc").number(a.gc, 9);
  w.key("shuffle_write").number(a.shuffle_write, 9);
  w.key("spill").number(a.spill, 9);
  w.key("output_send").number(a.output_send, 9);
  w.key("driver").number(a.driver, 9);
  w.key("total").number(a.total(), 9);
  w.end_object();
}

void write_by_cause(JsonWriter& w, const std::array<std::size_t, kNumStragglerCauses>& counts) {
  w.begin_object();
  for (int c = 0; c < kNumStragglerCauses; ++c) {
    w.key(to_string(static_cast<StragglerCause>(c)))
        .value(static_cast<unsigned long long>(counts[static_cast<std::size_t>(c)]));
  }
  w.end_object();
}

}  // namespace

void write_analyzer_summary_json(const AnalyzerSummary& summary, JsonWriter& w) {
  w.begin_object();
  w.key("stragglers").value(static_cast<unsigned long long>(summary.stragglers));
  w.key("by_cause");
  write_by_cause(w, summary.by_cause);
  w.key("critical_path");
  write_attribution(w, summary.critical_path);
  w.end_object();
}

void write_diagnosis_json(const RunDiagnosis& diagnosis, std::ostream& os) {
  JsonWriter w(os);
  w.begin_object();
  w.key("summary").begin_object();
  w.key("jobs").value(static_cast<unsigned long long>(diagnosis.jobs.size()));
  w.key("tasks").value(static_cast<unsigned long long>(diagnosis.tasks));
  w.key("attempts").value(static_cast<unsigned long long>(diagnosis.attempts));
  w.key("stragglers").value(static_cast<unsigned long long>(diagnosis.stragglers.size()));
  w.key("stragglers_by_cause");
  write_by_cause(w, diagnosis.stragglers_by_cause);
  w.key("critical_path_total");
  write_attribution(w, diagnosis.critical_path_total);
  w.end_object();

  w.key("jobs").begin_array();
  for (const JobDiagnosis& j : diagnosis.jobs) {
    w.begin_object();
    w.key("job").value(static_cast<long long>(j.job));
    w.key("name").value(j.name);
    w.key("pool").value(j.pool);
    w.key("submitted").number(j.submitted, 9);
    w.key("finished").number(j.finished, 9);
    w.key("jct").number(j.jct, 9);
    w.key("critical_path");
    write_attribution(w, j.critical_path);
    w.key("path").begin_array();
    for (const CriticalPathStep& s : j.path) {
      w.begin_object();
      w.key("stage").value(static_cast<long long>(s.stage));
      w.key("task").value(static_cast<long long>(s.task));
      w.key("attempt").value(static_cast<long long>(s.attempt));
      w.key("node").value(static_cast<long long>(s.node));
      w.key("start").number(s.start, 9);
      w.key("end").number(s.end, 9);
      w.key("gap_after").number(s.gap_after, 9);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("stragglers").begin_array();
  for (const StragglerReport& r : diagnosis.stragglers) {
    w.begin_object();
    w.key("stage").value(static_cast<long long>(r.stage));
    w.key("task").value(static_cast<long long>(r.task));
    w.key("attempt").value(static_cast<long long>(r.attempt));
    w.key("node").value(static_cast<long long>(r.node));
    w.key("node_class").value(r.node_class);
    w.key("duration").number(r.duration, 9);
    w.key("stage_median").number(r.stage_median, 9);
    w.key("ratio").number(r.ratio, 9);
    w.key("cause").value(to_string(r.cause));
    w.key("detail").value(r.detail);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

void print_diagnosis(const RunDiagnosis& diagnosis, std::ostream& os) {
  os << "Critical-path attribution (seconds on each job's critical path):\n";
  TextTable jobs({"job", "name", "jct", "queue", "input", "shuf-rd", "compute", "gc", "shuf-wr",
                  "spill", "output", "driver"});
  for (const JobDiagnosis& j : diagnosis.jobs) {
    const PhaseAttribution& a = j.critical_path;
    jobs.add_row({std::to_string(j.job), j.name, secs(j.jct), secs(a.queueing),
                  secs(a.input_read), secs(a.shuffle_read), secs(a.compute), secs(a.gc),
                  secs(a.shuffle_write), secs(a.spill), secs(a.output_send), secs(a.driver)});
  }
  jobs.print(os);

  os << "\nStragglers (service time > k x stage median):\n";
  if (diagnosis.stragglers.empty()) {
    os << "  none\n";
    return;
  }
  TextTable table({"stage", "task", "node", "class", "duration", "median", "ratio", "cause",
                   "detail"});
  for (const StragglerReport& r : diagnosis.stragglers) {
    table.add_row({std::to_string(r.stage), std::to_string(r.task), std::to_string(r.node),
                   r.node_class, secs(r.duration), secs(r.stage_median), two(r.ratio),
                   std::string(to_string(r.cause)), r.detail});
  }
  table.print(os);
}

}  // namespace rupam
