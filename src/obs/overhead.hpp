// Overhead profiler — host wall-clock (steady_clock) timing of the
// scheduler's own decision path, separate from simulated time. Reproduces
// the paper's "negligible scheduling overhead" claim: bench/sched_overhead
// runs every scheduler under the same workload and reports nanoseconds per
// dispatch round, RUPAM's heap maintenance per dispatch round, and the
// heartbeat and enqueue means from these stats.
//
// Scopes are null-safe RAII: with no profiler attached the hot path pays
// a single pointer test and no clock reads.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>

namespace rupam {

enum class ProfileSection : std::uint8_t {
  kDispatch = 0,      // one try_dispatch round (the decision path)
  kHeapMaintenance,   // RUPAM's per-round RM refresh and per-kind queue sorts
  kHeartbeat,         // scheduler-side heartbeat processing
  kEnqueue,           // taskset submission / characterization
};
inline constexpr int kNumProfileSections = 4;

std::string_view to_string(ProfileSection section);

struct SectionStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;

  double mean_ns() const { return count == 0 ? 0.0 : static_cast<double>(total_ns) / count; }
};

/// Heap-allocation accounting for try_dispatch rounds, split by outcome.
/// Scan rounds (no task launched) are the steady state the zero-allocation
/// gate covers; launch rounds legitimately allocate (the attempt's
/// TaskExecution and completion callbacks outlive the round).
struct AllocStats {
  std::uint64_t scan_rounds = 0;
  std::uint64_t scan_allocs = 0;
  std::uint64_t launch_rounds = 0;
  std::uint64_t launch_allocs = 0;

  std::uint64_t rounds() const { return scan_rounds + launch_rounds; }
  double scan_allocs_per_round() const {
    return scan_rounds == 0 ? 0.0 : static_cast<double>(scan_allocs) / scan_rounds;
  }
  double launch_allocs_per_round() const {
    return launch_rounds == 0 ? 0.0 : static_cast<double>(launch_allocs) / launch_rounds;
  }
};

class OverheadProfiler {
 public:
  /// RAII timing scope. Null profiler → no clock reads.
  class Scope {
   public:
    Scope(OverheadProfiler* profiler, ProfileSection section)
        : profiler_(profiler), section_(section) {
      if (profiler_ != nullptr) start_ = std::chrono::steady_clock::now();
    }
    ~Scope() {
      if (profiler_ == nullptr) return;
      auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
      profiler_->add(section_, static_cast<std::uint64_t>(ns < 0 ? 0 : ns));
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    OverheadProfiler* profiler_;
    ProfileSection section_;
    std::chrono::steady_clock::time_point start_;
  };

  void add(ProfileSection section, std::uint64_t ns) {
    SectionStats& s = sections_[static_cast<std::size_t>(section)];
    s.count += 1;
    s.total_ns += ns;
    if (ns > s.max_ns) s.max_ns = ns;
  }

  const SectionStats& section(ProfileSection section) const {
    return sections_[static_cast<std::size_t>(section)];
  }

  /// Process-wide allocation counter hook (bench-provided: a replaced
  /// operator new bumping a counter). Unset in normal runs — the dispatch
  /// path then skips allocation accounting entirely.
  using AllocCounterFn = std::uint64_t (*)();
  void set_alloc_counter(AllocCounterFn fn) { alloc_counter_ = fn; }
  bool counting_allocs() const { return alloc_counter_ != nullptr; }
  std::uint64_t read_allocs() const { return alloc_counter_(); }

  /// Rounds to exclude from allocation accounting before stats accumulate.
  /// Scratch buffers grow to their high-water capacity over a run's early
  /// rounds; the zero-allocation gate covers the steady state after them.
  void set_alloc_warmup(std::uint64_t rounds) { alloc_warmup_remaining_ = rounds; }

  /// One try_dispatch round's allocation delta, classified by whether the
  /// round launched anything.
  void note_dispatch_allocs(bool launched, std::uint64_t allocs) {
    if (alloc_warmup_remaining_ > 0) {
      --alloc_warmup_remaining_;
      return;
    }
    if (launched) {
      allocs_.launch_rounds += 1;
      allocs_.launch_allocs += allocs;
    } else {
      allocs_.scan_rounds += 1;
      allocs_.scan_allocs += allocs;
    }
  }
  const AllocStats& alloc_stats() const { return allocs_; }

  void reset() {
    sections_ = {};
    allocs_ = {};
  }

 private:
  std::array<SectionStats, kNumProfileSections> sections_{};
  AllocStats allocs_{};
  AllocCounterFn alloc_counter_ = nullptr;
  std::uint64_t alloc_warmup_remaining_ = 0;
};

}  // namespace rupam
