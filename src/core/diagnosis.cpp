#include "core/diagnosis.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace pfm::core {

Diagnoser::Diagnoser(Config config) : config_(config) {
  if (config_.evidence_window <= 0.0) {
    throw std::invalid_argument("Diagnoser: evidence_window > 0");
  }
}

std::vector<Suspicion> Diagnoser::diagnose(
    const ManagedSystem& system) const {
  const double now = system.now();
  const auto& trace = system.trace();
  const std::size_t n = system.num_units();

  // Channel 1: severity-weighted error-report intensity per component.
  std::vector<double> report_weight(n, 0.0);
  for (const auto& e :
       trace.events_in(now - config_.evidence_window, now)) {
    if (e.component < 0 || static_cast<std::size_t>(e.component) >= n) {
      continue;
    }
    // A restart or repair cleared whatever the unit reported before it.
    const auto unit = static_cast<std::size_t>(e.component);
    if (e.time < system.unit_health(unit).up_since) continue;
    report_weight[unit] +=
        static_cast<double>(e.severity);
  }
  const double max_report =
      std::max(*std::max_element(report_weight.begin(), report_weight.end()),
               1.0);

  std::vector<Suspicion> out;
  for (std::size_t i = 0; i < n; ++i) {
    const auto unit = system.unit_health(i);
    double score = 0.45 * report_weight[i] / max_report;
    std::ostringstream evidence;
    if (report_weight[i] > 0.0) {
      evidence << "error reports (weight " << report_weight[i] << ")";
    }
    // Channel 2: resource-state anomaly, suspicious on its own.
    const bool pressured = unit.memory_pressure > config_.pressure_threshold;
    if (pressured) {
      score += 0.3 * std::min(
                         (unit.memory_pressure - config_.pressure_threshold) /
                             (1.0 - config_.pressure_threshold),
                         1.0);
      if (evidence.tellp() > 0) evidence << "; ";
      evidence << "memory pressure " << unit.memory_pressure;
    }
    // Channel 3: active degradation (cascade in progress).
    if (unit.cascade_stage >= 1) {
      score += 0.25 * static_cast<double>(std::min(unit.cascade_stage, 3)) /
               3.0;
      if (evidence.tellp() > 0) evidence << "; ";
      evidence << "error cascade stage " << unit.cascade_stage;
    }
    if (score > 0.05 || pressured || unit.cascade_stage >= 1) {
      out.push_back({static_cast<std::int32_t>(i), std::min(score, 1.0),
                     evidence.str()});
    }
  }

  // System-wide suspicion: offered load beyond capacity is a workload
  // problem, not a component fault.
  std::size_t alive = 0;
  for (std::size_t i = 0; i < n; ++i) {
    alive += system.unit_health(i).available ? 1 : 0;
  }
  if (alive > 0) {
    const double per_node =
        system.offered_load() / static_cast<double>(alive);
    const double util = per_node / system.unit_capacity();
    if (util > config_.overload_threshold) {
      std::ostringstream evidence;
      evidence << "offered load " << util << " of capacity";
      out.push_back(
          {-1, std::min(0.3 + (util - config_.overload_threshold), 1.0),
           evidence.str()});
    }
  }

  std::sort(out.begin(), out.end(), [](const Suspicion& a, const Suspicion& b) {
    return a.score > b.score;
  });
  return out;
}

std::int32_t Diagnoser::prime_suspect(
    const ManagedSystem& system) const {
  const auto suspects = diagnose(system);
  return suspects.empty() ? -1 : suspects.front().component;
}

}  // namespace pfm::core
