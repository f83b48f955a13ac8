#pragma once

// The benchmark's three fleet workloads, the predictor ensemble they share,
// and one fleet run with its sim-time fingerprint. Everything here goes
// through the library's public API (runtime::FleetController and the
// injection/membership front ends); the benchmark never reaches into the
// runtime's internals.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "actions/action.hpp"
#include "injection/fault_plan.hpp"
#include "membership/membership_plan.hpp"
#include "prediction/predictor.hpp"
#include "runtime/fleet.hpp"
#include "telecom/config.hpp"
#include "tracing.hpp"

namespace pfm::perfbench {

/// The paper's ensemble (UBF + HSMM) plus the Threshold/Trend/DFT
/// baselines, trained once on a fixed-seed trace and shared read-only by
/// every fleet run of the process.
struct Ensemble {
  std::shared_ptr<const pred::SymptomPredictor> ubf, threshold, trend;
  std::shared_ptr<const pred::EventPredictor> hsmm, dft;
};

/// Registration order of the ensemble (symptom predictors first, as the
/// fleet numbers them); the metric names use these labels.
inline const std::vector<std::string>& predictor_labels() {
  static const std::vector<std::string> labels = {"ubf", "threshold", "trend",
                                                  "hsmm", "dft"};
  return labels;
}

/// Wall seconds of each setup phase.
struct SetupTimes {
  double trace_s = 0.0;
  double ubf_train_s = 0.0;
  double hsmm_train_s = 0.0;
  double baselines_train_s = 0.0;
};

/// Generates the training trace (fixed seed, independent of the workload
/// seed) and trains the five predictors.
Ensemble train_ensemble(SetupTimes* times);

/// One workload: the fleet it builds and how the run advances.
struct Workload {
  std::string name;
  std::size_t nodes = 0;
  telecom::SimConfig node;  ///< base config; per-node seeds derive from it
  runtime::FleetConfig fleet;
  /// Advance with run_until one evaluation interval at a time instead of a
  /// single run() (results-neutral only under a dense schedule).
  bool stepped = false;
  /// Fault plan applied through inj::FaultInjector (empty when none).
  bool inject = false;
  inj::FaultPlan faults;
  /// Flight-recorder ring per scope (0 = off).
  std::size_t flight_capacity = 0;
};

/// Builds a named workload for `seed`. A full-size workload runs at least
/// 1000 rounds, so the p99 of its round times rests on ten rounds beyond
/// it. `shortened` cuts the horizon (and the churn plan with it) for the
/// tests. Throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool shortened = false);

/// Sim-time outcome of a run; identical for any thread count and with or
/// without tracing.
struct Fingerprint {
  std::uint64_t rounds = 0, epochs = 0, node_steps = 0, scores_computed = 0,
                warnings = 0, actions = 0, failures = 0;
  double availability = 0.0;

  bool operator==(const Fingerprint&) const = default;
  std::string to_json() const;
};

/// Per-layer readings of a traced run (empty tallies when untraced).
struct LayerReadings {
  LayerTally step, hooks, act, factory;
  std::vector<LayerTally> predictors;  ///< predictor_labels() order
};

/// Monitoring footprint at the end of a run, averaged over the nodes.
struct MonitoringFootprint {
  double samples_per_node = 0.0;
  double events_per_node = 0.0;
  double trace_bytes_per_node = 0.0;
};

struct RunResult {
  bool complete = false;
  std::string error;  ///< why the run is not complete ("" when complete)
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time of the run (see RoundClock)
  std::size_t threads = 0;
  bool traced = false;
  Fingerprint fingerprint;
  runtime::FleetTelemetry telemetry;
  std::vector<double> round_ms;
  LayerReadings layers;
  MonitoringFootprint footprint;
  std::size_t scratch_bytes = 0;
  std::uint64_t faults_injected = 0;
  double precision = 0.0, recall = 0.0, auc = 0.0, availability_drift = 0.0;
  /// Median of the monitoring probe on an end-of-run node (traced runs).
  double context_us = 0.0, sequence_us = 0.0;
};

/// Builds the workload's fleet, runs it to its horizon and checks that it
/// completed: the run must not throw, and every node that is neither
/// quarantined nor departed must have reached its horizon.
RunResult run_workload(const Workload& w, const Ensemble& ensemble,
                       std::size_t threads, bool traced);

/// Builds the workload's fleet (systems, controller, registrations) and
/// discards it without running it: the setup's share of the fleet.
void build_fleet(const Workload& w, const Ensemble& ensemble);

}  // namespace pfm::perfbench
