#include "workloads/skew.hpp"

#include <cmath>
#include <stdexcept>

namespace rupam {

double skew_factor(Rng& rng, double cv, double heavy_tail) {
  if (cv < 0.0) throw std::invalid_argument("skew_factor: negative cv");
  double factor = 1.0;
  if (cv > 0.0) {
    // Lognormal with E[X] = 1: mu = -sigma^2 / 2.
    double sigma = std::sqrt(std::log(1.0 + cv * cv));
    factor = rng.lognormal(-0.5 * sigma * sigma, sigma);
  }
  if (heavy_tail > 0.0 && rng.uniform() < heavy_tail) factor *= 4.0;
  return factor;
}

}  // namespace rupam
