#include "numerics/rng.hpp"

#include <cmath>
#include <numeric>

namespace pfm::num {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// ln(k!) for k < 16, correctly rounded.
constexpr std::array<double, 16> kLogFactorial = {
    0.0,
    0.0,
    0.6931471805599453,
    1.791759469228055,
    3.1780538303479458,
    4.787491742782046,
    6.579251212010101,
    8.525161361065415,
    10.60460290274525,
    12.801827480081469,
    15.104412573075516,
    17.502307845873887,
    19.987214495661885,
    22.552163853123425,
    25.19122118273868,
    27.89927138384089,
};

/// ln(k!) for k >= 0: the table below 16, Stirling's series through the
/// k^-9 term above it (truncation error about 1e-16 at k = 16, far below
/// the 3.6e-15 spacing of doubles near ln 16! = 30.7).
double log_factorial(double k) noexcept {
  if (k < 16.0) return kLogFactorial[static_cast<std::size_t>(k)];
  const double r = 1.0 / k;
  const double r2 = r * r;
  constexpr double kHalfLog2Pi = 0.9189385332046728;
  return (k + 0.5) * std::log(k) - k + kHalfLog2Pi +
         r * (1.0 / 12.0 -
              r2 * (1.0 / 360.0 -
                    r2 * (1.0 / 1260.0 - r2 * (1.0 / 1680.0 - r2 / 1188.0))));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  // splitmix64 outputs of successive counters are distinct, so the state is
  // never all zero.
  for (auto& word : s_) word = splitmix64(seed);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
  const std::uint64_t range =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  std::uint64_t x = next();
  if (range == 0) return static_cast<std::int64_t>(x);  // the full 2^64 span
  // Lemire (2019): the high word of x * range is uniform on [0, range) once
  // the low words below 2^64 mod range are rejected.
  __uint128_t m = static_cast<__uint128_t>(x) * range;
  auto low = static_cast<std::uint64_t>(m);
  if (low < range) {
    const std::uint64_t threshold = (0 - range) % range;
    while (low < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * range;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   static_cast<std::uint64_t>(m >> 64));
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u, v, s;
  do {
    u = 2.0 * uniform() - 1.0;
    v = 2.0 * uniform() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double f = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * f;
  has_spare_ = true;
  return u * f;
}

double Rng::exponential(double rate) {
  if (!(rate > 0.0)) {
    throw std::invalid_argument("Rng::exponential: rate must be > 0");
  }
  return -std::log1p(-uniform()) / rate;
}

double Rng::weibull(double shape, double scale) {
  if (!(shape > 0.0) || !(scale > 0.0)) {
    throw std::invalid_argument("Rng::weibull: shape and scale must be > 0");
  }
  return scale * std::pow(-std::log1p(-uniform()), 1.0 / shape);
}

double Rng::lognormal(double mu, double sigma) {
  if (!(sigma > 0.0)) {
    throw std::invalid_argument("Rng::lognormal: sigma must be > 0");
  }
  return std::exp(mu + sigma * normal());
}

double Rng::gamma(double shape, double scale) {
  if (!(shape > 0.0) || !(scale > 0.0)) {
    throw std::invalid_argument("Rng::gamma: shape and scale must be > 0");
  }
  // Marsaglia & Tsang (2000). Below shape 1, draw at shape + 1 and boost by
  // u^(1/shape).
  double boost = 1.0;
  if (shape < 1.0) {
    boost = std::pow(uniform(), 1.0 / shape);
    shape += 1.0;
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x, v;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    const double x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2 ||
        std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) {
      return d * v * scale * boost;
    }
  }
}

std::int64_t Rng::poisson(double mean) {
  if (!(mean >= 0.0) || !std::isfinite(mean)) {
    throw std::invalid_argument("Rng::poisson: mean must be finite and >= 0");
  }
  if (mean >= 10.0) return poisson_ptrs(mean);
  if (mean == 0.0) return 0;
  // Sequential-search inversion: walk the CDF until it passes u. Stop once
  // the partial sum stops growing: u then lies above every value the sum
  // reaches in floating point.
  const double u = uniform();
  double p = std::exp(-mean);
  double cdf = p;
  std::int64_t k = 0;
  while (u > cdf) {
    ++k;
    p *= mean / static_cast<double>(k);
    const double next_cdf = cdf + p;
    if (next_cdf == cdf) break;
    cdf = next_cdf;
  }
  return k;
}

std::int64_t Rng::poisson_ptrs(double mean) {
  // Hormann (1993), "The transformed rejection method for generating
  // Poisson random variables", algorithm PTRS.
  const double slam = std::sqrt(mean);
  const double loglam = std::log(mean);
  const double b = 0.931 + 2.53 * slam;
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double vr = 0.9277 - 3.6224 / (b - 2.0);
  for (;;) {
    const double u = uniform() - 0.5;
    const double v = uniform();
    const double us = 0.5 - std::fabs(u);
    const double k = std::floor((2.0 * a / us + b) * u + mean + 0.43);
    if (us >= 0.07 && v <= vr) return static_cast<std::int64_t>(k);
    if (k < 0.0 || (us < 0.013 && v > us)) continue;
    if (std::log(v * inv_alpha / (a / (us * us) + b)) <=
        -mean + k * loglam - log_factorial(k)) {
      return static_cast<std::int64_t>(k);
    }
  }
}

std::size_t Rng::categorical(std::span<const double> weights) {
  if (weights.empty()) throw std::invalid_argument("categorical: empty");
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("categorical: negative weight");
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument("categorical: zero mass");
  double u = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) return i;
  }
  return weights.size() - 1;  // round-off fallback
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

}  // namespace pfm::num
