// Host wall-clock AND heap-allocation cost of each scheduler's decision
// machinery, measured with the obs/ OverheadProfiler while a full
// transitive-closure run executes on all five schedulers (FIFO, Spark,
// StageAware, HEFT, RUPAM). TC rather than PR because HEFT's
// memory-oblivious EFT placement livelocks on PR's cache-heavy iterations
// (pre-existing, tracked in ROADMAP.md); every scheduler completes TC.
//
// Rounds run only when a task or slot changes, so most of them launch and
// per-round means shift with what a round does; dispatch ns per launched
// attempt is reported beside them.
//
// Each scheduler runs the workload twice in separate Simulations: a pilot
// run counts dispatch rounds, then an identical measured run gates heap
// allocations over the second half of those rounds — by then every scratch
// buffer, symbol table and queue has reached its high-water capacity, so
// those rounds are the steady state. Two regression gates (nonzero exit on
// failure):
//
//  * steady-state dispatch rounds that launch nothing must perform ZERO
//    heap allocations with observers (trace/audit) disabled — the
//    interned-symbol/flat-index dispatch path holds no per-round strings
//    or maps;
//  * RUPAM's mean per-dispatch wall cost must stay within 10x FIFO's
//    (supports the paper's claim that the extra bookkeeping keeps
//    scheduler delay "moderate").
#include <array>
#include <cstdlib>
#include <new>

#include "app/simulation.hpp"
#include "bench_common.hpp"
#include "obs/overhead.hpp"
#include "workloads/presets.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: every operator new in this process bumps it, so
// "allocations per dispatch round" measures the whole hot path, not just the
// places we remembered to instrument. Single-threaded, so a plain counter.
// ---------------------------------------------------------------------------
namespace {
std::uint64_t g_heap_allocs = 0;
std::uint64_t read_heap_allocs() { return g_heap_allocs; }
}  // namespace

void* operator new(std::size_t size) {
  ++g_heap_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_heap_allocs;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

constexpr double kMaxRupamOverFifo = 10.0;

struct SchedulerProfile {
  explicit SchedulerProfile(rupam::SchedulerKind k) : kind(k) {}

  rupam::SchedulerKind kind;
  rupam::OverheadProfiler profiler;
  std::size_t launches = 0;
  double makespan = 0.0;
  rupam::KernelStats kernel{};
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rupam;
  const char* workload = argc > 1 ? argv[1] : "TC";
  bench::print_header("SchedOverhead",
                      "host-side cost per scheduling decision, all five schedulers");

  std::array<SchedulerProfile, 5> profiles = {
      SchedulerProfile(SchedulerKind::kFifo), SchedulerProfile(SchedulerKind::kSpark),
      SchedulerProfile(SchedulerKind::kStageAware), SchedulerProfile(SchedulerKind::kHeft),
      SchedulerProfile(SchedulerKind::kRupam)};
  for (SchedulerProfile& p : profiles) {
    SimulationConfig cfg;
    cfg.scheduler = p.kind;
    // Pilot: how many dispatch rounds does this workload drive? The
    // measured run replays the identical event sequence, so half of this
    // count marks the start of its steady state.
    std::uint64_t pilot_rounds = 0;
    {
      Simulation pilot(cfg);
      OverheadProfiler pilot_profiler;
      pilot.set_profiler(&pilot_profiler);
      Application app = build_workload(workload_preset(workload), pilot.cluster().node_ids(),
                                       /*seed=*/1, /*iterations_override=*/0,
                                       hdfs_placement_weights(pilot.cluster()));
      pilot.run(app);
      pilot_rounds = pilot_profiler.section(ProfileSection::kDispatch).count;
    }
    // Measured run: wall-clock sections over every round, allocation
    // accounting (sampled around each try_dispatch by the scheduler base)
    // over the post-warm-up half only.
    Simulation sim(cfg);
    sim.set_profiler(&p.profiler);
    Application app = build_workload(workload_preset(workload), sim.cluster().node_ids(),
                                     /*seed=*/1, /*iterations_override=*/0,
                                     hdfs_placement_weights(sim.cluster()));
    p.profiler.set_alloc_counter(&read_heap_allocs);
    p.profiler.set_alloc_warmup(pilot_rounds / 2);
    p.makespan = sim.run(app);
    p.profiler.set_alloc_counter(nullptr);
    p.launches = sim.scheduler().launches();
    p.kernel = sim.sim().stats();
  }

  bench::JsonReport json("sched_overhead");
  TextTable table({"Scheduler", "Dispatch rounds", "Launches", "Dispatch mean (ns)",
                   "Dispatch ns/launch", "Scan allocs", "Launch allocs/round",
                   "Heap maint (ns/round)", "Heartbeat (ns)"});
  bool scan_alloc_free = true;
  for (SchedulerProfile& p : profiles) {
    json.record_kernel(p.kernel);
    const SectionStats& dispatch = p.profiler.section(ProfileSection::kDispatch);
    const SectionStats& heap = p.profiler.section(ProfileSection::kHeapMaintenance);
    const SectionStats& hb = p.profiler.section(ProfileSection::kHeartbeat);
    const SectionStats& enq = p.profiler.section(ProfileSection::kEnqueue);
    const AllocStats& allocs = p.profiler.alloc_stats();
    // Heap upkeep per dispatch round, as perfbench's sched.heap_ns_per_round.
    double heap_per_round = dispatch.count == 0 ? 0.0
                                                : static_cast<double>(heap.total_ns) /
                                                      static_cast<double>(dispatch.count);
    double per_launch = p.launches == 0 ? 0.0
                                        : static_cast<double>(dispatch.total_ns) /
                                              static_cast<double>(p.launches);
    table.add_row({std::string(to_string(p.kind)), std::to_string(dispatch.count),
                   std::to_string(p.launches), format_fixed(dispatch.mean_ns(), 0),
                   format_fixed(per_launch, 0), std::to_string(allocs.scan_allocs),
                   format_fixed(allocs.launch_allocs_per_round(), 2),
                   format_fixed(heap_per_round, 0), format_fixed(hb.mean_ns(), 0)});
    std::string prefix(to_string(p.kind));
    json.add(prefix + "_dispatch_mean_ns", dispatch.mean_ns());
    json.add(prefix + "_dispatch_ns_per_launch", per_launch);
    json.add(prefix + "_dispatch_rounds", static_cast<double>(dispatch.count));
    json.add(prefix + "_dispatch_total_ms", static_cast<double>(dispatch.total_ns) / 1e6);
    json.add(prefix + "_heap_maintenance_ns_per_round", heap_per_round);
    json.add(prefix + "_heartbeat_mean_ns", hb.mean_ns());
    json.add(prefix + "_enqueue_mean_ns", enq.mean_ns());
    json.add(prefix + "_makespan_s", p.makespan);
    json.add(prefix + "_scan_rounds", static_cast<double>(allocs.scan_rounds));
    json.add(prefix + "_scan_allocs", static_cast<double>(allocs.scan_allocs));
    json.add(prefix + "_allocs_per_dispatch", allocs.scan_allocs_per_round());
    json.add(prefix + "_launch_allocs_per_round", allocs.launch_allocs_per_round());
    if (allocs.scan_allocs != 0) {
      scan_alloc_free = false;
      std::cerr << "FAIL: " << to_string(p.kind) << " allocated " << allocs.scan_allocs
                << " times across " << allocs.scan_rounds
                << " steady-state scan rounds (expected 0 with observers off)\n";
    }
  }
  table.print(std::cout);

  double fifo_mean = profiles[0].profiler.section(ProfileSection::kDispatch).mean_ns();
  double rupam_mean = profiles[4].profiler.section(ProfileSection::kDispatch).mean_ns();
  double ratio = fifo_mean > 0.0 ? rupam_mean / fifo_mean : 0.0;
  json.add("rupam_over_fifo_dispatch_ratio", ratio);
  json.add("steady_scan_allocs_total",
           static_cast<double>(profiles[0].profiler.alloc_stats().scan_allocs +
                               profiles[1].profiler.alloc_stats().scan_allocs +
                               profiles[2].profiler.alloc_stats().scan_allocs +
                               profiles[3].profiler.alloc_stats().scan_allocs +
                               profiles[4].profiler.alloc_stats().scan_allocs));
  json.add("workload", workload);
  json.write();

  std::cout << "\nRUPAM/FIFO mean dispatch cost: " << format_fixed(ratio, 2)
            << "x (budget " << format_fixed(kMaxRupamOverFifo, 0) << "x)\n";
  if (!scan_alloc_free) return 1;
  if (ratio > kMaxRupamOverFifo) {
    std::cerr << "FAIL: RUPAM per-dispatch cost exceeds " << kMaxRupamOverFifo
              << "x FIFO — decision-path regression\n";
    return 1;
  }
  std::cout << "Reading: steady-state dispatch is allocation-free for every scheduler\n"
               "(interned pool/stage symbols + flat indexes + reused scratch), and\n"
               "RUPAM's per-task characterization and heap upkeep stay within an order\n"
               "of magnitude of an oblivious FIFO pop.\n";
  return 0;
}
