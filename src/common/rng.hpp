// Deterministic random number generation for the simulator.
//
// All stochastic behaviour in the simulation flows from one Rng seeded per
// run, so a (seed, configuration) pair fully determines every result.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace rupam {

/// Largest seed any input accepts: 2^53, the last integer a JSON number
/// (an IEEE double) holds exactly, so every seed survives run specs, sweep
/// specs and checkpoints unchanged.
inline constexpr std::uint64_t kMaxSeed = std::uint64_t{1} << 53;

/// The one seed parser for flags and JSON number text: decimal digits only,
/// value in [0, kMaxSeed]. Signs, fractions, exponents, blanks and larger
/// values give nullopt.
std::optional<std::uint64_t> parse_seed(std::string_view text);

/// The one parser for every other number read from text (numeric flags,
/// the fault and branch grammars): the whole text must be one decimal
/// number whose value is finite and fits in T. "abc", "2x", "+1", " 1",
/// "nan", "inf", "1e999" and, for int, "1.5" or "3000000000" give nullopt.
/// Defined for int, long long and double.
template <typename T>
std::optional<T> parse_number(std::string_view text);

/// PCG32: small, fast, statistically solid, fully deterministic across
/// platforms (unlike std::mt19937 paired with std:: distributions, whose
/// outputs are implementation-defined).
class Rng {
 public:
  using result_type = std::uint32_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
               std::uint64_t stream = 0xda3e39cb94b95bdbULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return 0xffffffffu; }

  result_type operator()() { return next_u32(); }
  std::uint32_t next_u32();
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n).
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box-Muller (deterministic; caches the spare).
  double normal();
  double normal(double mean, double stddev);

  double exponential(double rate);
  double lognormal(double mu, double sigma);

  /// Derive an independent child generator (for per-component streams).
  Rng split();

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace rupam
