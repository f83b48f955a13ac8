#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "numerics/rng.hpp"
#include "telecom/config.hpp"

namespace pfm::telecom {

/// Requests and Eq. 2 violations (calls slower than the response limit)
/// of one tick.
struct TickTraffic {
  std::int64_t requests = 0;
  std::int64_t violations = 0;
};

/// Draws one simulator tick of request traffic over the serving units.
///
/// The law: class c receives a_c ~ Poisson(rate · dt · kClassMix[c])
/// requests, spread evenly over the n serving units. A class-c call on
/// unit i is slow with probability p_ic = P(RT > response_limit_ms) for a
/// lognormal RT with mean base_response_ms[c] · slowdown[i] and log-space
/// sigma response_sigma, and the unit's class-c violation count is
/// min(Poisson(a_c/n · p_ic), floor(a_c/n) + 1), independently over
/// (unit, class) given the arrivals.
///
/// The draw is exact in that law but cheap where p_ic is tiny, by Poisson
/// superposition and thinning (Lewis & Shedler 1979). Each unit gets a
/// bound p̄_i ≥ p_ic for every class, read from a shared table of the
/// normal tail. A unit whose bound exceeds kDegradedBound is drawn pair by
/// pair as the law reads, on per-class arrivals. All other units share
/// one draw of K ~ Poisson(N/n · Σ p̄_i) candidate slow calls, N the
/// tick's requests: a_c ≤ N, so the candidates cover every pair's rate.
/// Only when K > 0 are the N requests split into classes and each
/// candidate placed on a unit ∝ p̄_i and a class ∝ a_c, then kept with
/// probability p_ic / p̄_i, which leaves a Poisson(a_c/n · p_ic) count on
/// each pair before the clamp. A tick with no degraded unit thus costs one
/// arrival draw and one tiny-mean draw.
class TrafficSampler {
 public:
  explicit TrafficSampler(const SimConfig& config);

  /// Draws the tick's requests and violations. `slowdown[i]` multiplies
  /// every class's nominal mean response time on serving unit i
  /// (queueing times degradation); with no serving unit no violation is
  /// drawn.
  TickTraffic draw(double rate, double dt, std::span<const double> slowdown,
                   num::Rng& rng);

  /// P(response time > limit) for a lognormal response with mean `mean_ms`.
  double violation_probability(double mean_ms) const noexcept;

  /// p̄ ≥ violation_probability(base_response_ms[c] · slowdown) for every
  /// class c: the normal tail at the table's grid point at or below the
  /// slowest class's z, and 1 for z ≤ 0.
  double violation_bound(double slowdown) const noexcept;

 private:
  /// Standardized log distance of the limit above a response mean.
  double z_score(double mean_ms) const noexcept;

  const SimConfig* config_;
  double slowest_ms_;  // the largest nominal mean response over the classes

  // Per-tick scratch, reused so a warm sampler allocates nothing. Units in
  // the shared thinned draw, with their bounds, and their candidates kept
  // per class; the slowdowns of degraded units.
  std::vector<double> thin_slowdown_;
  std::vector<double> thin_bound_;
  std::vector<std::array<std::int64_t, kNumRequestClasses>> thin_hits_;
  std::vector<double> degraded_slowdown_;
};

}  // namespace pfm::telecom
