// Simulation-kernel microbenchmark + regression gates.
//
// Sections:
//  * churn    — a fair-share-like cancel/repush workload run on BOTH the
//               live kernel and `LegacySimulator`, a faithful copy of the
//               pre-overhaul kernel (std::priority_queue of events, one
//               shared_ptr handle state + std::function per event, cancel
//               via tombstones). Gate: live kernel >= kMinSpeedup x the
//               legacy events/sec.
//  * steady   — the same churn after warmup with allocation counters reset;
//               gate: near-zero heap allocations per executed event (event
//               arena reuses slots, callbacks stay in the SBO buffer).
//  * e2e      — an end-to-end generated-fleet TeraSort run (scale_fleet's
//               config) pinning kernel wall time and events/sec at fleet
//               scale in BENCH_sim_kernel.json.
//
// usage: sim_kernel [fleet_nodes] [churn_ticks]
//   CI smoke runs `sim_kernel 100 50000`; defaults are 1000 / 400000.
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <new>
#include <queue>
#include <string>
#include <vector>

#include "app/simulation.hpp"
#include "bench_common.hpp"
#include "cluster/fleet.hpp"
#include "simcore/kernel_stats.hpp"
#include "simcore/simulator.hpp"
#include "workloads/presets.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: every operator new in this process bumps it, so
// "allocations per executed event" measures the whole hot path, not just the
// places we remembered to instrument. Single-threaded, so a plain counter.
// ---------------------------------------------------------------------------
namespace {
std::uint64_t g_heap_allocs = 0;
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

using rupam::SimTime;

constexpr double kMinSpeedup = 2.0;
constexpr double kMaxSteadyAllocsPerEvent = 0.02;

// ---------------------------------------------------------------------------
// LegacySimulator: the pre-overhaul kernel, verbatim except for the names
// and a queue-size probe. Kept here (not in src/) so the shipped kernel has
// exactly one implementation; this copy exists only as the bench baseline.
// ---------------------------------------------------------------------------
class LegacySimulator;

class LegacyHandle {
 public:
  LegacyHandle() = default;

  void cancel() {
    if (state_) state_->cancelled = true;
  }
  bool pending() const { return state_ && !state_->cancelled && !state_->fired; }

 private:
  friend class LegacySimulator;
  struct State {
    bool cancelled = false;
    bool fired = false;
  };
  explicit LegacyHandle(std::shared_ptr<State> state) : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

class LegacySimulator {
 public:
  using Callback = std::function<void()>;

  SimTime now() const { return now_; }

  LegacyHandle schedule_at(SimTime when, Callback fn) {
    auto state = std::make_shared<LegacyHandle::State>();
    queue_.push(Event{when, next_seq_++, std::move(fn), state});
    if (queue_.size() > peak_queue_) peak_queue_ = queue_.size();
    return LegacyHandle(std::move(state));
  }
  LegacyHandle schedule_after(SimTime delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  bool step() {
    while (!queue_.empty()) {
      Event ev = queue_.top();
      queue_.pop();
      if (ev.state->cancelled) continue;
      now_ = ev.time;
      ev.state->fired = true;
      ++executed_;
      ev.fn();
      return true;
    }
    return false;
  }

  std::size_t run() {
    std::size_t count = 0;
    while (step()) ++count;
    return count;
  }

  std::size_t executed_events() const { return executed_; }
  std::size_t peak_queue() const { return peak_queue_; }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    Callback fn;
    std::shared_ptr<LegacyHandle::State> state;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t executed_ = 0;
  std::size_t peak_queue_ = 0;
};

// ---------------------------------------------------------------------------
// Churn workload: R contended "resources", each with one pending completion
// event. Every tick is a dispatch round that hits several resources, and a
// fair-share transition cancels the resource's (typically far-future)
// completion and re-pushes it. A completion therefore gets rescheduled many
// times before it ever fires — exactly the pattern FairShareResource
// inflicts on the queue at fleet scale, and the pattern that makes the
// legacy kernel accumulate tombstones (a cancelled far-future event squats
// in the priority_queue until its time arrives). Identical deterministic
// sequence on both kernels.
// ---------------------------------------------------------------------------
constexpr std::size_t kTransitionsPerTick = 8;

template <typename Sim, typename Handle>
class Churn {
 public:
  Churn(Sim& sim, std::size_t resources, std::size_t ticks)
      : sim_(sim), completion_(resources), ticks_left_(ticks) {}

  void seed(std::size_t chains) {
    for (std::size_t r = 0; r < completion_.size(); ++r) arm_completion(r);
    for (std::size_t c = 0; c < chains; ++c) {
      sim_.schedule_after(0.25 + 0.01 * static_cast<double>(c), [this] { tick(); });
    }
  }

 private:
  std::uint64_t rnd() {
    rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
    return rng_ >> 33;
  }

  void arm_completion(std::size_t r) {
    // Completions land far out: contended resources drain slowly, and every
    // transition pushes the ETA around long before it is reached.
    double eta = 20.0 + 0.1 * static_cast<double>(rnd() % 1000);
    completion_[r] = sim_.schedule_after(eta, [this, r] {
      if (ticks_left_ > 0) arm_completion(r);
    });
  }

  void tick() {
    if (ticks_left_ == 0) return;
    --ticks_left_;
    for (std::size_t i = 0; i < kTransitionsPerTick; ++i) {
      std::size_t r = rnd() % completion_.size();
      completion_[r].cancel();  // legacy: tombstone; live: true removal
      arm_completion(r);
    }
    sim_.schedule_after(0.05 + 0.001 * static_cast<double>(rnd() % 100), [this] { tick(); });
  }

  Sim& sim_;
  std::vector<Handle> completion_;
  std::uint64_t rng_ = 0x243F6A8885A308D3ull;
  std::size_t ticks_left_;
};

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rupam;
  int fleet_nodes = argc > 1 ? std::atoi(argv[1]) : 1000;
  std::size_t churn_ticks = argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 400000;
  if (fleet_nodes < 12 || churn_ticks < 1000) {
    std::cerr << "usage: sim_kernel [fleet_nodes>=12] [churn_ticks>=1000]\n";
    return 2;
  }
  bench::print_header("SimKernel", "event-queue throughput, allocations/event and fleet-scale "
                                   "kernel wall time");
  bench::JsonReport json("sim_kernel");
  constexpr std::size_t kResources = 256;
  constexpr std::size_t kChains = 64;
  int failures = 0;

  // --- churn: legacy vs live kernel -------------------------------------
  double legacy_eps = 0.0;
  double live_eps = 0.0;
  std::size_t legacy_peak = 0;
  std::size_t live_peak = 0;
  {
    LegacySimulator sim;
    Churn<LegacySimulator, LegacyHandle> churn(sim, kResources, churn_ticks);
    churn.seed(kChains);
    auto t0 = std::chrono::steady_clock::now();
    sim.run();
    double ms = wall_ms_since(t0);
    legacy_eps = static_cast<double>(sim.executed_events()) / (ms / 1000.0);
    legacy_peak = sim.peak_queue();
    json.add("churn_legacy_wall_ms", ms);
    json.add("churn_legacy_events", static_cast<double>(sim.executed_events()));
    json.add("churn_legacy_events_per_s", legacy_eps);
    json.add("churn_legacy_peak_queue", static_cast<double>(legacy_peak));
  }
  {
    Simulator sim;
    Churn<Simulator, EventHandle> churn(sim, kResources, churn_ticks);
    churn.seed(kChains);
    auto t0 = std::chrono::steady_clock::now();
    sim.run();
    double ms = wall_ms_since(t0);
    live_eps = static_cast<double>(sim.executed_events()) / (ms / 1000.0);
    live_peak = sim.peak_pending_events();
    json.record_kernel(sim.stats());
    json.add("churn_wall_ms", ms);
    json.add("churn_events", static_cast<double>(sim.executed_events()));
    json.add("churn_events_per_s", live_eps);
    json.add("churn_peak_queue", static_cast<double>(live_peak));
  }
  double speedup = legacy_eps > 0.0 ? live_eps / legacy_eps : 0.0;
  json.add("churn_ticks", static_cast<double>(churn_ticks));
  json.add("churn_speedup_vs_legacy", speedup);
  std::cout << "churn: live " << format_fixed(live_eps / 1e6, 2) << "M ev/s vs legacy "
            << format_fixed(legacy_eps / 1e6, 2) << "M ev/s (" << format_fixed(speedup, 2)
            << "x), peak queue " << live_peak << " vs " << legacy_peak << " (tombstones)\n";
  if (speedup < kMinSpeedup) {
    std::cerr << "FAIL: churn speedup " << format_fixed(speedup, 2) << "x < "
              << format_fixed(kMinSpeedup, 1) << "x vs the pre-overhaul kernel\n";
    ++failures;
  }

  // --- steady state: allocations per executed event ---------------------
  {
    Simulator sim;
    // Warmup grows the arena to the workload's high-watermark...
    Churn<Simulator, EventHandle> warmup(sim, kResources, churn_ticks / 4);
    warmup.seed(kChains);
    sim.run();
    // ...after which the same churn must run allocation-free.
    Churn<Simulator, EventHandle> measured(sim, kResources, churn_ticks / 4);
    measured.seed(kChains);
    std::size_t before_events = sim.executed_events();
    std::uint64_t before_allocs = g_heap_allocs;
    sim.run();
    std::uint64_t allocs = g_heap_allocs - before_allocs;
    std::size_t events = sim.executed_events() - before_events;
    double per_event = events > 0 ? static_cast<double>(allocs) / static_cast<double>(events) : 0.0;
    json.record_kernel(sim.stats());
    json.add("steady_events", static_cast<double>(events));
    json.add("steady_heap_allocs", static_cast<double>(allocs));
    json.add("steady_allocs_per_event", per_event);
    std::cout << "steady: " << allocs << " heap allocations over " << events << " events ("
              << format_fixed(per_event, 4) << "/event)\n";
    if (per_event > kMaxSteadyAllocsPerEvent) {
      std::cerr << "FAIL: steady-state " << format_fixed(per_event, 4)
                << " allocations/event > " << format_fixed(kMaxSteadyAllocsPerEvent, 2)
                << " — the event hot path is touching the allocator again\n";
      ++failures;
    }
  }

  // --- e2e: generated fleet, kernel wall time ---------------------------
  {
    FleetSpec spec = fleet_nodes == 12 ? hydra_fleet_spec()
                                       : scaled_hydra_fleet(fleet_nodes, /*seed=*/1);
    WorkloadPreset preset = workload_preset("TeraSort");
    preset.input_gb = 0.5 * static_cast<double>(fleet_nodes);
    SimulationConfig cfg;
    cfg.scheduler = SchedulerKind::kRupam;
    cfg.nodes = generate_fleet(spec);
    if (spec.switch_bandwidth > 0.0) cfg.switch_bandwidth = spec.switch_bandwidth;
    cfg.speculation.enabled = false;
    Simulation sim(cfg);
    Application app = build_workload(preset, sim.cluster().node_ids(), /*seed=*/1,
                                     /*iterations_override=*/0,
                                     hdfs_placement_weights(sim.cluster()));
    std::cerr << "[sim_kernel] e2e fleet N=" << fleet_nodes << " ...\n";
    auto t0 = std::chrono::steady_clock::now();
    double makespan = sim.run(app);
    double ms = wall_ms_since(t0);
    std::size_t events = sim.sim().executed_events();
    double eps = ms > 0.0 ? static_cast<double>(events) / (ms / 1000.0) : 0.0;
    json.record_kernel(sim.sim().stats());
    json.add("e2e_nodes", static_cast<double>(fleet_nodes));
    json.add("e2e_makespan_s", makespan);
    json.add("e2e_kernel_wall_ms", ms);
    json.add("e2e_events", static_cast<double>(events));
    json.add("e2e_events_per_s", eps);
    json.add("e2e_peak_queue", static_cast<double>(sim.sim().peak_pending_events()));
    std::cout << "e2e: N=" << fleet_nodes << " finished in " << format_fixed(ms, 1) << " ms ("
              << format_fixed(eps / 1e6, 2) << "M ev/s, peak queue "
              << sim.sim().peak_pending_events() << ")\n";
  }

  json.write();
  if (failures > 0) return 1;
  std::cout << "\nReading: true cancel keeps the heap free of tombstones under churn, and\n"
               "the arena + inline callbacks keep steady state allocation-free —\n"
               "events/sec is the throughput metric that bounds every fleet-scale\n"
               "experiment above this layer.\n";
  return 0;
}
