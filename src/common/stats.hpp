// Statistics helpers used by the metrics/reporting layer: running moments,
// percentiles, and small-sample 95% confidence intervals (the paper reports
// the average of 5 runs with a 95% CI, Fig 5).
#pragma once

#include <cstddef>
#include <vector>

namespace rupam {

/// Numerically stable (Welford) running mean/variance accumulator.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Half-width of the two-sided 95% confidence interval of the mean for n
/// samples with sample stddev s, using the Student-t quantile.
double confidence_interval_95(double stddev, std::size_t n);

/// Percentile (linear interpolation) of an unsorted sample; p in [0, 100].
/// Copies the sample — prefer percentile_inplace when the caller owns a
/// scratch vector it no longer needs ordered.
double percentile(std::vector<double> values, double p);

/// Same statistic, computed in place with nth_element (O(n) instead of a
/// copy + O(n log n) sort). Reorders `values` arbitrarily.
double percentile_inplace(std::vector<double>& values, double p);

/// Same statistic over a sample already in ascending order, in O(1): it
/// reads the one or two ranks it interpolates. Equal bit for bit to
/// percentile_inplace over any ordering of the same values.
double percentile_sorted(const std::vector<double>& sorted, double p);

double mean_of(const std::vector<double>& values);
double stddev_of(const std::vector<double>& values);

}  // namespace rupam
