#pragma once

// Small probes for the layers the decorators cannot reach: RNG draws
// inside the simulator, symptom-context and error-sequence cutting inside
// the fleet loop, and the Eq. 8 solve behind the live availability gauge.
// Each reports the median of several timed batches.

#include "core/managed_system.hpp"
#include "core/mea.hpp"

namespace pfm::perfbench {

struct RngProbe {
  double poisson_ns = 0.0;  ///< per num::Rng::poisson draw
  double normal_ns = 0.0;   ///< per num::Rng::normal draw
};

/// Poisson draws at the simulator's per-tick class means (the default
/// 60 req/s arrival rate split 0.5/0.3/0.2 over a 1 s tick) and standard
/// normal draws.
RngProbe probe_rng();

struct MonitoringProbe {
  double context_us = 0.0;   ///< per ManagedSystem::symptom_context
  double sequence_us = 0.0;  ///< per ManagedSystem::error_sequence
};

/// Cuts the evaluation inputs the fleet cuts each visit, on `node` as it
/// stands (an end-of-run node holds a full-horizon trace).
MonitoringProbe probe_monitoring(const core::ManagedSystem& node,
                                 const core::MeaConfig& mea);

/// Microseconds per closed-form Eq. 8 availability solve.
double probe_eq8_us();

}  // namespace pfm::perfbench
