// Shared helpers for bench/paper and bench/perf.
#pragma once

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "simcore/kernel_stats.hpp"

namespace rupam::bench {

/// Standard banner: which paper artifact this binary regenerates.
void print_header(const std::string& artifact, const std::string& description);

std::string pct(double fraction);

/// Peak resident set size of this process in MiB (getrusage), 0 if
/// unavailable.
double peak_rss_mib();

/// Host speed, for wall-clock budgets that mean the same on every host:
/// time a fixed probe kernel (map, heap, sort and allocation work that no
/// simulator change touches) between the measured operations, never beside
/// them, and scale each host time by kReferenceMs / the 10th-percentile
/// probe time. The low percentile ignores bursts of contention and follows
/// slow drift. perfbench's SpeedProbe uses the same kernel and reference.
class SpeedProbe {
 public:
  static constexpr double kReferenceMs = 20.0;
  /// Time one run of the probe kernel.
  void sample();
  /// 10th-percentile probe time so far, in ms.
  double speed_ms() const;
  /// Multiply a raw host time by this to get it at reference speed.
  double factor() const { return samples_.empty() ? 1.0 : kReferenceMs / speed_ms(); }

 private:
  std::vector<double> samples_;
};

/// Machine-readable sidecar next to a bench's stdout tables: a flat
/// key→value JSON object written to BENCH_<name>.json in the working
/// directory, so CI and plotting scripts don't have to scrape tables.
class JsonReport {
 public:
  explicit JsonReport(std::string name);

  /// Written as the shortest text that reads back as the same double, so a
  /// count copied into a checked-in baseline compares exactly.
  void add(const std::string& key, double value);
  void add(const std::string& key, const std::string& value);
  /// Accumulate the kernel counters of a measured Simulation into the
  /// report footer. KernelStats is per-Simulator, so benches record each
  /// run they measure; the footer sums exactly those runs (not unrelated
  /// activity elsewhere in the process).
  void record_kernel(const KernelStats& stats);

  /// Returns false (and prints to stderr) when the file cannot be written.
  /// Every report is stamped with standard memory fields — peak RSS and the
  /// kernel's event-queue allocation counters — so the BENCH_*.json perf
  /// trajectory captures memory behaviour, not just wall time.
  bool write() const;

 private:
  std::string path_;
  std::vector<std::pair<std::string, std::string>> entries_;  // key → rendered value
  KernelStats kernel_{};  // summed counters of every recorded run
};

}  // namespace rupam::bench
