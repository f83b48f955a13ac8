#include "telecom/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace pfm::telecom {

namespace {

/// Standard normal upper tail probability.
double normal_tail(double z) noexcept { return 0.5 * std::erfc(z / M_SQRT2); }

// The tail table's grid: kTailSteps points per unit of z over
// [0, kTailTop]. A power-of-two step makes z · kTailSteps exact, so the
// floor never lands above z; the tail underflows to 0 near z = 38.5.
constexpr double kTailSteps = 64.0;
constexpr std::size_t kTailPoints = 64 * 40 + 1;

/// The normal tail at every grid point, computed once and shared by every
/// sampler of the process.
const std::array<double, kTailPoints>& tail_table() {
  static const std::array<double, kTailPoints> table = [] {
    std::array<double, kTailPoints> t{};
    for (std::size_t k = 0; k < kTailPoints; ++k) {
      t[k] = normal_tail(static_cast<double>(k) / kTailSteps);
    }
    return t;
  }();
  return table;
}

/// A unit whose violation bound exceeds this is drawn pair by pair: the
/// shared thinned draw would place, and mostly reject, a number of
/// candidates that grows with the bound, while a pairwise draw costs the
/// same at any probability.
constexpr double kDegradedBound = 1e-4;

}  // namespace

TrafficSampler::TrafficSampler(const SimConfig& config)
    : config_(&config),
      slowest_ms_(*std::max_element(std::begin(config.base_response_ms),
                                    std::end(config.base_response_ms))) {}

double TrafficSampler::z_score(double mean_ms) const noexcept {
  // Response time ~ LogNormal(mu, sigma) with E[RT] = mean_ms:
  // mu = ln(mean) - sigma^2/2; P(RT > L) = Phi_c((ln L - mu)/sigma).
  const double sigma = config_->response_sigma;
  return (std::log(config_->response_limit_ms / mean_ms) +
          0.5 * sigma * sigma) /
         sigma;
}

double TrafficSampler::violation_probability(double mean_ms) const noexcept {
  return normal_tail(z_score(mean_ms));
}

double TrafficSampler::violation_bound(double slowdown) const noexcept {
  // The slowest class has the largest mean and so the smallest z.
  const double z = z_score(slowest_ms_ * slowdown);
  if (!(z > 0.0)) return 1.0;
  const double k = std::min(std::floor(z * kTailSteps),
                            static_cast<double>(kTailPoints - 1));
  return tail_table()[static_cast<std::size_t>(k)];
}

TickTraffic TrafficSampler::draw(double rate, double dt,
                                 std::span<const double> slowdown,
                                 num::Rng& rng) {
  thin_slowdown_.clear();
  thin_bound_.clear();
  degraded_slowdown_.clear();
  double bound_sum = 0.0;
  // Healthy units share one slowdown, so the bound is memoized on it.
  double memo_slowdown = std::numeric_limits<double>::quiet_NaN();
  double memo_bound = 0.0;
  for (const double s : slowdown) {
    if (s != memo_slowdown) {
      memo_slowdown = s;
      memo_bound = violation_bound(s);
    }
    if (memo_bound > kDegradedBound) {
      degraded_slowdown_.push_back(s);
    } else if (memo_bound > 0.0) {
      thin_slowdown_.push_back(s);
      thin_bound_.push_back(memo_bound);
      bound_sum += memo_bound;
    }
  }

  TickTraffic out;
  const auto n = static_cast<double>(slowdown.size());
  std::array<std::int64_t, kNumRequestClasses> arrivals{};
  // A pair's count is capped at one more than its unit's share of the
  // class arrivals.
  auto clamped = [&](std::int64_t count, std::size_t c) {
    const double share = static_cast<double>(arrivals[c]) / n;
    return std::min<std::int64_t>(count, static_cast<std::int64_t>(share) + 1);
  };
  const bool split = !degraded_slowdown_.empty();
  if (split) {
    for (std::size_t c = 0; c < kNumRequestClasses; ++c) {
      arrivals[c] = rng.poisson(rate * kClassMix[c] * dt);
      out.requests += arrivals[c];
    }
    for (const double s : degraded_slowdown_) {
      for (std::size_t c = 0; c < kNumRequestClasses; ++c) {
        if (arrivals[c] == 0) continue;
        const double share = static_cast<double>(arrivals[c]) / n;
        const double p =
            violation_probability(config_->base_response_ms[c] * s);
        out.violations += clamped(rng.poisson(share * p), c);
      }
    }
  } else {
    out.requests = rng.poisson(rate * dt);
  }
  if (out.requests == 0 || bound_sum <= 0.0) return out;

  const std::int64_t candidates =
      rng.poisson(static_cast<double>(out.requests) / n * bound_sum);
  if (candidates == 0) return out;
  if (!split) {
    // Given their total, the per-class counts are multinomial.
    for (std::int64_t r = 0; r < out.requests; ++r) {
      ++arrivals[rng.categorical(kClassMix)];
    }
  }
  std::array<double, kNumRequestClasses> class_weight{};
  for (std::size_t c = 0; c < kNumRequestClasses; ++c) {
    class_weight[c] = static_cast<double>(arrivals[c]);
  }
  thin_hits_.assign(thin_bound_.size(), {});
  for (std::int64_t k = 0; k < candidates; ++k) {
    const std::size_t i = rng.categorical(thin_bound_);
    const std::size_t c = rng.categorical(class_weight);
    const double p = violation_probability(config_->base_response_ms[c] *
                                           thin_slowdown_[i]);
    if (rng.uniform() * thin_bound_[i] < p) ++thin_hits_[i][c];
  }
  for (const auto& hits : thin_hits_) {
    for (std::size_t c = 0; c < kNumRequestClasses; ++c) {
      if (hits[c] > 0 && arrivals[c] > 0) out.violations += clamped(hits[c], c);
    }
  }
  return out;
}

}  // namespace pfm::telecom
