#include "common/rng.hpp"

#include <charconv>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <type_traits>

namespace rupam {

std::optional<std::uint64_t> parse_seed(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    if (value > kMaxSeed) return std::nullopt;  // also stops before overflow
  }
  return value;
}

template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

template std::optional<int> parse_number<int>(std::string_view);
template std::optional<long long> parse_number<long long>(std::string_view);
template std::optional<double> parse_number<double>(std::string_view);

Rng::Rng(std::uint64_t seed, std::uint64_t stream) : state_(0), inc_((stream << 1u) | 1u) {
  next_u32();
  state_ += seed;
  next_u32();
}

std::uint32_t Rng::next_u32() {
  std::uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  std::uint32_t xorshifted = static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
  std::uint32_t rot = static_cast<std::uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

std::uint64_t Rng::next_u64() {
  return (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
}

double Rng::uniform() {
  // 53-bit mantissa from a 64-bit draw; result in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("uniform_index: n must be > 0");
  // Rejection-free multiply-shift (Lemire); tiny modulo bias is irrelevant
  // for simulation workload synthesis but determinism is preserved exactly.
  return static_cast<std::uint64_t>(uniform() * static_cast<double>(n)) % n;
}

double Rng::normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 1e-300);
  double u2 = uniform();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * std::numbers::pi * u2;
  spare_normal_ = r * std::sin(theta);
  has_spare_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::exponential(double rate) {
  if (rate <= 0.0) throw std::invalid_argument("exponential: rate must be > 0");
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 1e-300);
  return -std::log(u) / rate;
}

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

Rng Rng::split() { return Rng(next_u64(), next_u64()); }

}  // namespace rupam
