#include "probes.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <vector>

#include "ctmc/pfm_model.hpp"
#include "numerics/rng.hpp"

namespace pfm::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kBatches = 7;

/// Median over kBatches of the per-call nanoseconds of `calls` calls of
/// `body`; `sink` keeps results observable so nothing is optimized away.
template <typename Body>
double median_ns(std::size_t calls, Body&& body) {
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) body(i);
    const auto t1 = Clock::now();
    per_call.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                       static_cast<double>(calls));
  }
  std::nth_element(per_call.begin(), per_call.begin() + kBatches / 2,
                   per_call.end());
  return per_call[kBatches / 2];
}

volatile double g_sink = 0.0;  // defeats dead-code elimination of probes

}  // namespace

RngProbe probe_rng() {
  constexpr std::array<double, 3> kMeans = {30.0, 18.0, 12.0};
  num::Rng rng(12345);
  RngProbe out;
  double acc = 0.0;
  out.poisson_ns = median_ns(200000, [&](std::size_t i) {
    acc += static_cast<double>(rng.poisson(kMeans[i % kMeans.size()]));
  });
  out.normal_ns = median_ns(400000, [&](std::size_t) { acc += rng.normal(); });
  g_sink = acc;
  return out;
}

MonitoringProbe probe_monitoring(const core::ManagedSystem& node,
                                 const core::MeaConfig& mea) {
  MonitoringProbe out;
  double acc = 0.0;
  out.context_us = median_ns(2000, [&](std::size_t) {
                     acc += node.symptom_context(mea.context_samples).now();
                   }) * 1e-3;
  out.sequence_us = median_ns(2000, [&](std::size_t) {
                      acc += static_cast<double>(
                          node.error_sequence(mea.windows.data_window)
                              .events.size());
                    }) * 1e-3;
  g_sink = acc;
  return out;
}

double probe_eq8_us() {
  ctmc::PfmModelParams params;
  double acc = 0.0;
  const double ns = median_ns(20000, [&](std::size_t i) {
    // Vary the quality so each solve sees fresh inputs.
    const double p = 0.3 + 0.4 * static_cast<double>(i % 97) / 97.0;
    params.quality = ctmc::clamped_quality(p, 0.6, 0.01);
    acc += ctmc::PfmAvailabilityModel(params).availability_closed_form();
  });
  g_sink = acc;
  return ns * 1e-3;
}

}  // namespace pfm::perfbench
