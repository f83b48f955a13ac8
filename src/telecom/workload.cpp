#include "telecom/workload.hpp"

#include <cmath>

namespace pfm::telecom {

WorkloadGenerator::WorkloadGenerator(const SimConfig& config, num::Rng& rng)
    : config_(&config), rng_(&rng) {
  next_spike_ = rng_->exponential(1.0 / config_->spike_mtbf);
}

void WorkloadGenerator::maybe_schedule_spike(double t) {
  while (t >= next_spike_) {
    spike_start_ = next_spike_;
    spike_end_ = spike_start_ + rng_->uniform(config_->spike_min_duration,
                                              config_->spike_max_duration);
    spike_factor_ =
        rng_->uniform(config_->spike_min_factor, config_->spike_max_factor);
    next_spike_ = spike_end_ + rng_->exponential(1.0 / config_->spike_mtbf);
  }
}

double WorkloadGenerator::unshed_rate(double t) const noexcept {
  // Diurnal modulation with a 24h period, trough at 04:00.
  const double phase = 2.0 * M_PI * (t / 86400.0 - 4.0 / 24.0);
  double rate = config_->arrival_rate *
                (1.0 - config_->diurnal_amplitude * std::cos(phase));
  if (spike_active(t)) {
    // Linear ramp toward the full spike factor.
    const double ramp =
        std::min(1.0, (t - spike_start_) / std::max(config_->spike_ramp, 1.0));
    rate *= 1.0 + (spike_factor_ - 1.0) * ramp;
  }
  return rate;
}

double WorkloadGenerator::mean_rate(double t) const noexcept {
  double rate = unshed_rate(t);
  if (t < shed_until_) rate *= 1.0 - shed_fraction_;
  return rate;
}

double WorkloadGenerator::advance(double t, double dt) {
  maybe_schedule_spike(t);
  const double before_shed = unshed_rate(t);
  if (t >= shed_until_) return before_shed;
  const double rate = before_shed * (1.0 - shed_fraction_);
  if (before_shed > rate) {
    shed_count_ += rng_->poisson((before_shed - rate) * dt);
  }
  return rate;
}

void WorkloadGenerator::shed(double fraction, double until) {
  if (fraction < 0.0 || fraction > 1.0) {
    throw std::invalid_argument("WorkloadGenerator::shed: fraction in [0,1]");
  }
  shed_fraction_ = fraction;
  shed_until_ = until;
}

}  // namespace pfm::telecom
