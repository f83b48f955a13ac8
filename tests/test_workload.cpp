#include "telecom/workload.hpp"

#include <gtest/gtest.h>

#include "telecom/traffic.hpp"

#include <stdexcept>

namespace pfm::telecom {
namespace {

SimConfig quiet_config() {
  SimConfig cfg;
  cfg.spike_mtbf = 1e12;  // effectively no spikes
  return cfg;
}

TEST(Workload, DiurnalTroughAtFourAm) {
  const SimConfig cfg = quiet_config();
  num::Rng rng(1);
  WorkloadGenerator wl(cfg, rng);
  const double at_4am = wl.mean_rate(4.0 * 3600.0);
  const double at_4pm = wl.mean_rate(16.0 * 3600.0);
  EXPECT_LT(at_4am, at_4pm);
  EXPECT_NEAR(at_4am, cfg.arrival_rate * (1.0 - cfg.diurnal_amplitude), 1e-6);
  EXPECT_NEAR(at_4pm, cfg.arrival_rate * (1.0 + cfg.diurnal_amplitude), 1e-6);
}

TEST(Workload, MeanRateIsPeriodic) {
  const SimConfig cfg = quiet_config();
  num::Rng rng(1);
  WorkloadGenerator wl(cfg, rng);
  EXPECT_NEAR(wl.mean_rate(7.0 * 3600.0), wl.mean_rate(7.0 * 3600.0 + 86400.0),
              1e-9);
}

TEST(Workload, ArrivalsMatchRateOnAverage) {
  const SimConfig cfg = quiet_config();
  num::Rng rng(3);
  WorkloadGenerator wl(cfg, rng);
  TrafficSampler traffic(cfg);
  const double t0 = 12.0 * 3600.0;
  double total = 0.0;
  const int ticks = 2000;
  for (int i = 0; i < ticks; ++i) {
    const double rate = wl.advance(t0 + i, 1.0);
    total += static_cast<double>(traffic.draw(rate, 1.0, {}, rng).requests);
  }
  const double expected = wl.mean_rate(t0) * ticks;
  EXPECT_NEAR(total / expected, 1.0, 0.05);
}

TEST(Workload, SpikeRaisesRate) {
  SimConfig cfg;
  cfg.spike_mtbf = 1.0;  // a spike almost immediately
  cfg.spike_min_factor = 3.0;
  cfg.spike_max_factor = 3.0;
  cfg.spike_min_duration = 1000.0;
  cfg.spike_max_duration = 1000.0;
  num::Rng rng(7);
  WorkloadGenerator wl(cfg, rng);
  // Trigger spike scheduling by advancing past the first onset.
  (void)wl.advance(50.0, 1.0);
  // Find a time inside the spike, past the ramp.
  double t_spiked = -1.0;
  for (double t = 0.0; t < 5000.0; t += 10.0) {
    (void)wl.advance(t, 1.0);
    if (wl.spike_active(t)) t_spiked = t;
  }
  ASSERT_GT(t_spiked, 0.0) << "no spike observed";
}

TEST(Workload, ShedReducesRateAndCountsRejects) {
  const SimConfig cfg = quiet_config();
  num::Rng rng(5);
  WorkloadGenerator wl(cfg, rng);
  const double t = 12.0 * 3600.0;
  num::Rng unshed_rng(5);
  const WorkloadGenerator unshed(cfg, unshed_rng);
  wl.shed(0.5, t + 100.0);
  EXPECT_NEAR(wl.mean_rate(t), 0.5 * unshed.mean_rate(t), 1e-9);
  // After the shed window the rate recovers.
  EXPECT_NEAR(wl.mean_rate(t + 200.0), unshed.mean_rate(t + 200.0), 1e-12);
  for (int i = 0; i < 100; ++i) (void)wl.advance(t + i, 1.0);
  EXPECT_GT(wl.shed_count(), 0);
}

TEST(Workload, ShedValidatesFraction) {
  const SimConfig cfg = quiet_config();
  num::Rng rng(5);
  WorkloadGenerator wl(cfg, rng);
  EXPECT_THROW(wl.shed(-0.1, 10.0), std::invalid_argument);
  EXPECT_THROW(wl.shed(1.1, 10.0), std::invalid_argument);
}

}  // namespace
}  // namespace pfm::telecom
