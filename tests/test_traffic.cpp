// The tick sampler against a test-local reference of the simulator's
// per-(unit, class) traffic law: per-class Poisson arrivals, then one
// clamped Poisson violation draw per serving unit and class. The sampler
// may draw differently, but over many ticks its request and violation
// counts must follow the same distribution, in every regime the simulator
// passes through.

#include "telecom/traffic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pfm::telecom {
namespace {

/// The law, drawn pair by pair: a_c ~ Poisson(rate·dt·mix_c), then for
/// every serving unit i and class c with a_c > 0,
/// min(Poisson(a_c/n · p_ic), floor(a_c/n) + 1).
TickTraffic reference_draw(const SimConfig& cfg, double rate, double dt,
                           const std::vector<double>& slowdown,
                           num::Rng& rng) {
  TickTraffic out;
  std::array<std::int64_t, kNumRequestClasses> a{};
  for (std::size_t c = 0; c < kNumRequestClasses; ++c) {
    a[c] = rng.poisson(rate * kClassMix[c] * dt);
    out.requests += a[c];
  }
  const double sigma = cfg.response_sigma;
  for (const double s : slowdown) {
    for (std::size_t c = 0; c < kNumRequestClasses; ++c) {
      const double share =
          static_cast<double>(a[c]) / static_cast<double>(slowdown.size());
      if (share <= 0.0) continue;
      const double mean_ms = cfg.base_response_ms[c] * s;
      const double z =
          (std::log(cfg.response_limit_ms / mean_ms) + 0.5 * sigma * sigma) /
          sigma;
      const double p = 0.5 * std::erfc(z / std::sqrt(2.0));
      if (p <= 0.0) continue;
      out.violations += std::min<std::int64_t>(
          rng.poisson(share * p), static_cast<std::int64_t>(share) + 1);
    }
  }
  return out;
}

/// Upper quantile of the chi-square law with `df` degrees of freedom at
/// tail mass 1e-4 (z = 3.719), by the Wilson-Hilferty cube approximation.
double chi_square_critical(std::size_t df) {
  const double k = static_cast<double>(df);
  const double c = 2.0 / (9.0 * k);
  return k * std::pow(1.0 - c + 3.719 * std::sqrt(c), 3.0);
}

/// Two-sample chi-square homogeneity statistic of two equally sized
/// samples' histograms, after merging neighbouring values until each bin
/// holds at least ten draws of the two together. Returns
/// {statistic, degrees of freedom}.
std::pair<double, std::size_t> chi_square_two_sample(
    const std::vector<double>& x, const std::vector<double>& y) {
  const std::size_t top = std::max(x.size(), y.size());
  auto at = [](const std::vector<double>& h, std::size_t k) {
    return k < h.size() ? h[k] : 0.0;
  };
  std::vector<std::pair<double, double>> bins;
  double bx = 0.0, by = 0.0;
  for (std::size_t k = 0; k < top; ++k) {
    bx += at(x, k);
    by += at(y, k);
    if (bx + by >= 10.0) {
      bins.emplace_back(bx, by);
      bx = by = 0.0;
    }
  }
  if (bins.empty()) return {0.0, 0};
  bins.back().first += bx;  // fold the short tail into the last bin
  bins.back().second += by;
  double stat = 0.0;
  for (const auto& [o1, o2] : bins) stat += (o1 - o2) * (o1 - o2) / (o1 + o2);
  return {stat, bins.size() - 1};
}

void count(std::vector<double>& hist, std::int64_t value) {
  const auto k = static_cast<std::size_t>(value);
  if (k >= hist.size()) hist.resize(k + 1, 0.0);
  hist[k] += 1.0;
}

struct Scenario {
  std::string name;
  double rate;                  // mean offered rate, requests/s
  std::vector<double> slowdown;  // per serving unit
  int ticks;
};

void PrintTo(const Scenario& s, std::ostream* os) { *os << s.name; }

class TrafficLaw : public ::testing::TestWithParam<Scenario> {};

TEST_P(TrafficLaw, MatchesThePerPairReference) {
  const Scenario& sc = GetParam();
  const SimConfig cfg;
  TrafficSampler sampler(cfg);
  num::Rng rng(0x7A11C0DEULL);
  num::Rng ref_rng(0x5EEDF00DULL);
  std::vector<double> req, ref_req, vio, ref_vio;
  double vio_sum = 0.0, ref_vio_sum = 0.0;
  for (int t = 0; t < sc.ticks; ++t) {
    const TickTraffic a = sampler.draw(sc.rate, 1.0, sc.slowdown, rng);
    const TickTraffic b = reference_draw(cfg, sc.rate, 1.0, sc.slowdown,
                                         ref_rng);
    ASSERT_GE(a.violations, 0);
    count(req, a.requests);
    count(ref_req, b.requests);
    count(vio, a.violations);
    count(ref_vio, b.violations);
    vio_sum += static_cast<double>(a.violations);
    ref_vio_sum += static_cast<double>(b.violations);
  }
  const auto [req_stat, req_df] = chi_square_two_sample(req, ref_req);
  EXPECT_LT(req_stat, chi_square_critical(req_df)) << "requests, df " << req_df;
  const auto [vio_stat, vio_df] = chi_square_two_sample(vio, ref_vio);
  if (vio_df > 0) {
    EXPECT_LT(vio_stat, chi_square_critical(vio_df))
        << "violations, df " << vio_df << ", totals " << vio_sum << " vs "
        << ref_vio_sum;
  } else {
    // Too few violating ticks to bin: both totals must be that small.
    EXPECT_LT(vio_sum + ref_vio_sum, 10.0);
  }
}

// Slowdowns are queueing multiplier times degradation: 1.25 is the
// queueing of a 4-unit SCP at the diurnal mean (60 req/s, utilization
// 0.5), 2.6 at utilization 0.8; a degradation of 3 is a unit deep into a
// memory leak, 8 a collapsed one.
INSTANTIATE_TEST_SUITE_P(
    Regimes, TrafficLaw,
    ::testing::Values(
        // p ~ 1e-12 on every unit: one arrival and one thinned draw.
        Scenario{"healthy_at_the_diurnal_mean", 60.0, {1.25, 1.25, 1.25, 1.25},
                 200000},
        // p ~ 1e-5 on the slowest class, below the degraded bound.
        Scenario{"peak_load", 96.0, {2.6, 2.6, 2.6, 2.6}, 1000000},
        // Units below the bound at different slowdowns, so the thinned
        // draw weighs units by unequal bounds.
        Scenario{"uneven_units_below_the_bound", 96.0, {2.0, 2.0, 2.0, 2.8},
                 1000000},
        Scenario{"one_unit_degraded", 60.0, {1.25, 1.25, 1.25, 3.75}, 400000},
        // Every class slow on every unit: the clamp binds.
        Scenario{"all_units_collapsed", 60.0, {8.0, 8.0, 8.0, 8.0}, 200000},
        Scenario{"one_unit_down", 72.0, {2.6, 2.6, 2.6}, 1000000},
        // Under one request per unit and class: the clamp allows one.
        Scenario{"share_below_one", 2.0, {6.0, 2.6, 2.6, 2.6}, 400000}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return info.param.name;
    });

TEST(TrafficSampler, NoServingUnitDrawsRequestsOnly) {
  const SimConfig cfg;
  TrafficSampler sampler(cfg);
  num::Rng rng(9);
  double total = 0.0;
  for (int t = 0; t < 2000; ++t) {
    const TickTraffic a = sampler.draw(60.0, 1.0, {}, rng);
    EXPECT_EQ(a.violations, 0);
    total += static_cast<double>(a.requests);
  }
  EXPECT_NEAR(total / (60.0 * 2000.0), 1.0, 0.05);
}

TEST(TrafficSampler, ViolationProbabilityIsTheLognormalTail) {
  const SimConfig cfg;
  TrafficSampler sampler(cfg);
  // E[RT] = limit · exp(sigma²/2) puts the limit at the log-space mean.
  const double sigma = cfg.response_sigma;
  EXPECT_NEAR(sampler.violation_probability(cfg.response_limit_ms *
                                            std::exp(0.5 * sigma * sigma)),
              0.5, 1e-12);
  EXPECT_LT(sampler.violation_probability(35.0), 1e-12);
  EXPECT_GT(sampler.violation_probability(400.0), 0.9);
}

TEST(TrafficSampler, BoundCoversEveryClassAndIsTightOnTheSlowest) {
  const SimConfig cfg;
  TrafficSampler sampler(cfg);
  const double slowest = *std::max_element(std::begin(cfg.base_response_ms),
                                           std::end(cfg.base_response_ms));
  for (double s = 0.5; s < 40.0; s *= 1.01) {
    const double bound = sampler.violation_bound(s);
    ASSERT_LE(bound, 1.0);
    for (const double base : cfg.base_response_ms) {
      EXPECT_GE(bound, sampler.violation_probability(base * s)) << s;
    }
    // The bound is the tail at most one grid step (1/64) below the slowest
    // class's z; the sweep keeps z under 11, where that step costs a
    // factor of at most about exp(11/64) < 1.2.
    const double p = sampler.violation_probability(slowest * s);
    if (bound < 1.0) {
      EXPECT_LT(bound / p, 1.2) << s;
    }
  }
  // At or beyond the limit's log-space mean the bound is 1.
  EXPECT_EQ(sampler.violation_bound(250.0 / slowest * 1.1), 1.0);
}

}  // namespace
}  // namespace pfm::telecom
