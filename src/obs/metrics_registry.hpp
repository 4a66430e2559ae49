// MetricsRegistry — labeled counters, gauges and histograms with
// Prometheus-text and JSON exposition (DESIGN.md §8 lists the full metric
// catalog). The simulator's equivalent of a /metrics endpoint, filled as
// a projection: at every finish() Simulation::snapshot_metrics rebuilds it
// from the counters the task scheduler, DAG scheduler, fault injector,
// executors and nodes keep anyway, and `rupam_sim --metrics-out` dumps
// the exposition. No component holds a series, so nothing on the
// simulated hot path touches the registry.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace rupam {

/// A label set, e.g. {{"locality", "NODE_LOCAL"}}. Order is preserved in
/// the exposition; keep it consistent per metric family.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(double delta = 1.0) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class Gauge {
 public:
  void set(double value) { value_ = value; }
  void add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class Histogram {
 public:
  /// `bounds` are upper bucket bounds, ascending; an implicit +Inf bucket
  /// is always present.
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);
  const std::vector<double>& bounds() const { return bounds_; }
  /// Cumulative count of observations <= bounds()[i].
  std::vector<std::uint64_t> cumulative_counts() const;
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> per_bucket_;  // bounds_.size() + 1 (+Inf last)
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

class MetricsRegistry {
 public:
  /// Get-or-create a series. `help` is recorded on first use of the family
  /// name. Returned references are stable for the registry's lifetime.
  /// Throws std::invalid_argument on a malformed metric/label name.
  Counter& counter(const std::string& name, const MetricLabels& labels = {},
                   const std::string& help = "");
  Gauge& gauge(const std::string& name, const MetricLabels& labels = {},
               const std::string& help = "");
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const MetricLabels& labels = {}, const std::string& help = "");

  /// Series registered so far (families x label sets).
  std::size_t series_count() const;

  /// Prometheus text exposition format v0.0.4: # HELP / # TYPE headers,
  /// one sample line per series, histograms expanded into _bucket/_sum/
  /// _count. Families and label sets are emitted in lexicographic order,
  /// so the output is deterministic.
  void write_prometheus(std::ostream& os) const;

  /// The same data as a JSON object keyed by family name: each family has
  /// "type", "help", and "series" (label object + value / histogram data).
  void write_json(std::ostream& os) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Series {
    MetricLabels labels;
    Counter counter;
    Gauge gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    /// Keyed by the rendered label string for cheap get-or-create.
    std::map<std::string, Series> series;
  };

  Family& family(const std::string& name, Kind kind, const std::string& help);
  static std::string render_labels(const MetricLabels& labels);

  std::map<std::string, Family> families_;
};

}  // namespace rupam
