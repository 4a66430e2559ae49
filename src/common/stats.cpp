#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rupam {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  double delta = other.mean_ - mean_;
  std::size_t total = n_ + other.n_;
  double na = static_cast<double>(n_);
  double nb = static_cast<double>(other.n_);
  m2_ += other.m2_ + delta * delta * na * nb / static_cast<double>(total);
  mean_ = (na * mean_ + nb * other.mean_) / static_cast<double>(total);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ = total;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double confidence_interval_95(double stddev, std::size_t n) {
  if (n < 2) return 0.0;
  // Two-sided 97.5% Student-t quantiles for small df; converges to 1.96.
  static constexpr double kT[] = {0.0,   12.706, 4.303, 3.182, 2.776, 2.571,
                                  2.447, 2.365,  2.306, 2.262, 2.228};
  std::size_t df = n - 1;
  double t = df < std::size(kT) ? kT[df] : 1.96 + 2.6 / static_cast<double>(df);
  return t * stddev / std::sqrt(static_cast<double>(n));
}

namespace {

// The p-th percentile of n values sits between rank `lo` and rank lo + 1,
// `frac` of the way up; `interpolate` is false when it is rank lo itself.
struct PercentileRank {
  std::size_t lo;
  double frac;
  bool interpolate;
};

PercentileRank percentile_rank(std::size_t n, double p) {
  if (n == 0) throw std::invalid_argument("percentile: empty sample");
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile: p out of range");
  double rank = p / 100.0 * static_cast<double>(n - 1);
  auto lo = static_cast<std::size_t>(rank);
  double frac = rank - static_cast<double>(lo);
  return {lo, frac, lo + 1 < n && frac != 0.0};
}

double interpolate(double lo_val, double hi_val, double frac) {
  return lo_val * (1.0 - frac) + hi_val * frac;
}

}  // namespace

double percentile(std::vector<double> values, double p) { return percentile_inplace(values, p); }

double percentile_inplace(std::vector<double>& values, double p) {
  PercentileRank r = percentile_rank(values.size(), p);
  auto lo_it = values.begin() + static_cast<std::ptrdiff_t>(r.lo);
  std::nth_element(values.begin(), lo_it, values.end());
  if (!r.interpolate) return *lo_it;
  // The hi rank is the minimum of the suffix nth_element left above lo.
  return interpolate(*lo_it, *std::min_element(lo_it + 1, values.end()), r.frac);
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  PercentileRank r = percentile_rank(sorted.size(), p);
  if (!r.interpolate) return sorted[r.lo];
  return interpolate(sorted[r.lo], sorted[r.lo + 1], r.frac);
}

double mean_of(const std::vector<double>& values) {
  RunningStats s;
  for (double v : values) s.add(v);
  return s.mean();
}

double stddev_of(const std::vector<double>& values) {
  RunningStats s;
  for (double v : values) s.add(v);
  return s.stddev();
}

}  // namespace rupam
