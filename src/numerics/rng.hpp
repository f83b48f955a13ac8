#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace pfm::num {

/// Seedable random number generator used throughout the library.
///
/// All stochastic components receive an Rng by reference (no global state),
/// which keeps simulations and training runs reproducible: the same seed
/// yields the same traces, datasets and fitted models.
///
/// Every draw is a fixed formula over a specified engine, so a stream is a
/// function of the seed alone and not of the standard library:
///   - engine: xoshiro256** (Blackman & Vigna), its four state words filled
///     by four successive splitmix64 outputs from the seed;
///   - uniform(): the top 53 bits of one engine output, scaled by 2^-53;
///   - uniform_int(): Lemire's multiply-and-reject, unbiased;
///   - normal(): Marsaglia polar, the second variate of each pair kept;
///   - exponential()/weibull(): -log1p(-u); lognormal(): exp of a normal;
///   - gamma(): Marsaglia-Tsang, with the u^(1/shape) boost below shape 1;
///   - poisson(): sequential-search inversion below mean 10, Hormann's
///     PTRS transformed rejection at 10 and above;
///   - bernoulli(): u < p.
/// Invalid parameters throw std::invalid_argument.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  /// Next raw 64-bit engine output (xoshiro256**).
  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] inclusive. Throws when lo > hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal draw.
  double normal();

  /// Normal draw with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Exponential draw with the given rate (mean 1/rate). Throws unless
  /// rate > 0.
  double exponential(double rate);

  /// Weibull draw with shape k and scale lambda. Throws unless both > 0.
  double weibull(double shape, double scale);

  /// Lognormal draw with the given log-space mean/stddev. Throws unless
  /// sigma > 0.
  double lognormal(double mu, double sigma);

  /// Poisson draw with the given mean. A mean of 0 returns 0; a negative,
  /// NaN or infinite mean throws.
  std::int64_t poisson(double mean);

  /// Bernoulli draw. Throws unless p is in [0, 1].
  bool bernoulli(double p) {
    if (!(p >= 0.0 && p <= 1.0)) {
      throw std::invalid_argument("Rng::bernoulli: p must be in [0, 1]");
    }
    return uniform() < p;
  }

  /// Gamma draw with shape and scale. Throws unless both > 0.
  double gamma(double shape, double scale);

  /// Index draw from unnormalized nonnegative weights.
  /// Throws std::invalid_argument when weights are empty or all zero.
  std::size_t categorical(std::span<const double> weights);

  /// Fisher-Yates shuffle of an index set {0..n-1}.
  std::vector<std::size_t> permutation(std::size_t n);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::int64_t poisson_ptrs(double mean);

  std::array<std::uint64_t, 4> s_;
  double spare_ = 0.0;  // second variate of the last polar pair
  bool has_spare_ = false;
};

}  // namespace pfm::num
