#pragma once

#include "numerics/rng.hpp"
#include "telecom/config.hpp"

namespace pfm::telecom {

/// Generates the mean of the aggregate request arrival process: a diurnally
/// modulated rate with occasional load spikes that ramp up over
/// `spike_ramp` seconds, thinned by load shedding. TrafficSampler draws
/// the Poisson counts at that rate, split across the MOC/SMS/GPRS classes.
class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(const SimConfig& config, num::Rng& rng);

  /// Deterministic mean arrival rate at time `t` (requests/second),
  /// including diurnal modulation and any active spike, but before the
  /// Poisson draw. Also the value exposed to monitoring.
  double mean_rate(double t) const noexcept;

  /// Advances the spike state to time `t`, draws the requests load
  /// shedding rejects in the tick [t, t + dt), and returns the tick's mean
  /// offered rate after shedding (the value of mean_rate(t)), computed once.
  double advance(double t, double dt);

  /// True while a spike is in progress at time `t`.
  bool spike_active(double t) const noexcept {
    return t >= spike_start_ && t < spike_end_;
  }

  /// External load shedding: forthcoming arrivals are thinned by
  /// `fraction` (0 = none, 1 = all) until `until`.
  void shed(double fraction, double until);

  /// Requests rejected by load shedding so far.
  std::int64_t shed_count() const noexcept { return shed_count_; }

 private:
  void maybe_schedule_spike(double t);

  /// Mean rate ignoring load shedding (for accounting rejected requests).
  double unshed_rate(double t) const noexcept;

  const SimConfig* config_;
  num::Rng* rng_;
  double next_spike_ = 0.0;
  double spike_start_ = -1.0;
  double spike_end_ = -1.0;
  double spike_factor_ = 1.0;
  double shed_fraction_ = 0.0;
  double shed_until_ = -1.0;
  std::int64_t shed_count_ = 0;
};

}  // namespace pfm::telecom
