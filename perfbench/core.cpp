// Benchmark plumbing: allocation counter, host speed probe, spans,
// per-layer counters and operation accounting.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <map>
#include <new>

#include "bench.hpp"
#include "sweep/sweep_spec.hpp"

// ---------------------------------------------------------------------------
// Replaced global allocation functions. Counting is off unless a traced
// pass switches it on; the counter is per thread, so OverheadProfiler's
// per-round deltas (read on the simulation's own thread) stay exact while
// sweep workers run concurrently.
namespace {
std::atomic<bool> g_counting{false};
thread_local std::uint64_t t_allocs = 0;

void* counted_malloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) ++t_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) ++t_allocs;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace perfbench {

namespace {
volatile std::uint64_t g_probe_sink = 0;
}

void SpeedProbe::sample() {
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::map<std::uint32_t, std::uint64_t> tree;
  std::vector<std::uint64_t> heap;
  std::vector<std::unique_ptr<std::uint64_t>> boxes;
  std::uint64_t acc = 0;
  for (int i = 0; i < 20000; ++i) {
    tree[static_cast<std::uint32_t>(next() % 65536)] += static_cast<std::uint64_t>(i);
    heap.push_back(next());
    std::push_heap(heap.begin(), heap.end());
    boxes.push_back(std::make_unique<std::uint64_t>(next()));
  }
  for (int i = 0; i < 40000; ++i) {
    auto it = tree.lower_bound(static_cast<std::uint32_t>(next() % 65536));
    if (it != tree.end()) {
      acc += it->second;
      tree.erase(it);
    }
    tree.emplace(static_cast<std::uint32_t>(next() % 65536), static_cast<std::uint64_t>(i));
    std::pop_heap(heap.begin(), heap.end());
    acc += heap.back();
    heap.back() = next();
    std::push_heap(heap.begin(), heap.end());
    boxes[next() % boxes.size()] = std::make_unique<std::uint64_t>(acc);
  }
  std::vector<double> values(50000);
  for (double& v : values) v = static_cast<double>(next() % 1000003);
  std::sort(values.begin(), values.end());
  g_probe_sink = acc + static_cast<std::uint64_t>(values[values.size() / 2]);
  last_ns_ = now_ns();
  samples_.push_back(static_cast<double>(last_ns_ - t0) / 1e6);
}

void SpeedProbe::maybe_sample() {
  if (now_ns() - last_ns_ >= 500'000'000) sample();
}

void set_alloc_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }
std::uint64_t thread_allocs() { return t_allocs; }

int SpanLog::open(std::string_view name, int run) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.run = run;
  span.start_ns = now_ns();
  spans_.push_back(span);
  int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  stack_.pop_back();
}

LayerStats& LayerStats::operator+=(const LayerStats& o) {
  events += o.events;
  scheduled += o.scheduled;
  cancelled += o.cancelled;
  arena_allocs += o.arena_allocs;
  callback_heap_allocs += o.callback_heap_allocs;
  peak_queue = std::max(peak_queue, o.peak_queue);
  loop_ns += o.loop_ns;
  loop_allocs += o.loop_allocs;
  dispatch_rounds += o.dispatch_rounds;
  launch_rounds += o.launch_rounds;
  alloc_rounds += o.alloc_rounds;
  node_visits += o.node_visits;
  task_checks += o.task_checks;
  launches += o.launches;
  tasksets += o.tasksets;
  launch_allocs += o.launch_allocs;
  scan_allocs += o.scan_allocs;
  scan_rounds += o.scan_rounds;
  dispatch_ns += o.dispatch_ns;
  heap_ns += o.heap_ns;
  enqueue_ns += o.enqueue_ns;
  heartbeat_ns += o.heartbeat_ns;
  heartbeats += o.heartbeats;
  heartbeat_queue_entries = std::max(heartbeat_queue_entries, o.heartbeat_queue_entries);
  oom_kills += o.oom_kills;
  executor_losses += o.executor_losses;
  completed_attempts += o.completed_attempts;
  scale_ups += o.scale_ups;
  scale_downs += o.scale_downs;
  faults_injected += o.faults_injected;
  partitions_resubmitted += o.partitions_resubmitted;
  jobs_completed += o.jobs_completed;
  recomputed_partitions += o.recomputed_partitions;
  records += o.records;
  return *this;
}

void LayerStats::scale_time(double factor) {
  loop_ns *= factor;
  dispatch_ns *= factor;
  heap_ns *= factor;
  enqueue_ns *= factor;
  heartbeat_ns *= factor;
}

LayerStats collect_layers(rupam::Simulation& sim, const rupam::OverheadProfiler* profiler,
                          double loop_ns, std::uint64_t loop_allocs) {
  using rupam::ProfileSection;
  LayerStats s;
  const rupam::KernelStats& k = sim.sim().stats();
  s.events = k.events_executed;
  s.scheduled = k.events_scheduled;
  s.cancelled = k.events_cancelled;
  s.arena_allocs = k.arena_slot_allocs;
  s.callback_heap_allocs = k.callback_heap_allocs;
  s.peak_queue = sim.sim().peak_pending_events();
  s.loop_ns = loop_ns;
  s.loop_allocs = loop_allocs;

  const rupam::SchedulerBase& sched = sim.scheduler();
  s.dispatch_rounds = sched.dispatch_rounds();
  s.node_visits = sched.dispatch_work().node_visits;
  s.task_checks = sched.dispatch_work().task_checks;
  s.launches = sched.launches();
  s.completed_attempts = sched.completed().size();
  s.oom_kills = sim.total_oom_kills();
  s.executor_losses = sim.total_executor_losses();
  if (const rupam::Autoscaler* a = sim.autoscaler()) {
    s.scale_ups = a->scale_ups();
    s.scale_downs = a->scale_downs();
  }
  if (const rupam::FaultInjector* f = sim.injector()) {
    s.faults_injected = f->injected();
    s.partitions_resubmitted = f->partitions_resubmitted();
  }
  s.jobs_completed = sim.dag().jobs_completed();
  s.recomputed_partitions = sim.dag().recomputed_partitions();
  if (sim.trace() != nullptr) s.records += sim.trace()->events().size();
  if (sim.spans() != nullptr) s.records += sim.spans()->spans().size();
  if (sim.audit() != nullptr) s.records += sim.audit()->size();

  if (profiler != nullptr) {
    const auto& dispatch = profiler->section(ProfileSection::kDispatch);
    const auto& heartbeat = profiler->section(ProfileSection::kHeartbeat);
    const auto& enqueue = profiler->section(ProfileSection::kEnqueue);
    s.dispatch_ns = static_cast<double>(dispatch.total_ns);
    s.heap_ns = static_cast<double>(profiler->section(ProfileSection::kHeapMaintenance).total_ns);
    s.enqueue_ns = static_cast<double>(enqueue.total_ns);
    s.tasksets = enqueue.count;
    s.heartbeat_ns = static_cast<double>(heartbeat.total_ns);
    s.heartbeats = heartbeat.count;
    const rupam::AllocStats& allocs = profiler->alloc_stats();
    s.alloc_rounds = allocs.rounds();
    s.launch_rounds = allocs.launch_rounds;
    s.launch_allocs = allocs.launch_allocs;
    s.scan_rounds = allocs.scan_rounds;
    s.scan_allocs = allocs.scan_allocs;
  }
  return s;
}

void attach_profiler(rupam::Simulation& sim, rupam::OverheadProfiler& profiler) {
  profiler.set_alloc_counter(&thread_allocs);
  sim.set_profiler(&profiler);
}

void Pass::fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu);
  if (errors.size() < 20) errors.push_back(what);
}

Operation::Operation(Pass& pass, std::string_view name)
    : pass_(pass), run_(static_cast<int>(pass.attempted)) {
  if (pass_.probe != nullptr) pass_.probe->maybe_sample();
  start_ns_ = now_ns();
  ++pass_.attempted;
  span_ = pass_.spans != nullptr ? pass_.spans->open(name, run_) : -1;
}

Operation::~Operation() {
  if (pass_.spans != nullptr) pass_.spans->close(span_);
  pass_.op_ms.push_back(static_cast<double>(now_ns() - start_ns_) / 1e6);
}

void Operation::fail(const std::string& what) {
  if (failed_) return;
  failed_ = true;
  ++pass_.failed;
  pass_.fail(what);
}

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  const std::uint64_t z = rupam::sweep_mix64(rupam::sweep_mix64(seed) + salt);
  // Kept well below 2^53: run and sweep specs carry seeds as JSON numbers
  // (doubles), and a checkpoint or spec file must round-trip them exactly.
  return 1 + (z >> 34);
}

std::string exact(double v) {
  char buf[32];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace perfbench
