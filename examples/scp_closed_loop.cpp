// The full proactive-fault-management story on the simulated Service
// Control Point: train UBF (symptoms) and HSMM (error events) offline,
// then run the Monitor-Evaluate-Act loop online with the Fig. 7
// countermeasures and compare against the unmanaged system.
//
//   $ ./examples/scp_closed_loop

#include <cstdio>
#include <memory>
#include <vector>

#include "prediction/calibration.hpp"
#include "prediction/evaluate.hpp"
#include "prediction/hsmm.hpp"
#include "prediction/ubf.hpp"
#include "runtime/fleet.hpp"
#include "runtime/scp_system.hpp"

int main() {
  using namespace pfm;
  const pred::WindowGeometry windows{600.0, 300.0, 300.0};

  // ---- offline: learn the failure patterns of the platform ---------------
  std::printf("training predictors on a 14-day trace...\n");
  telecom::SimConfig train_cfg;
  train_cfg.seed = 5;
  telecom::ScpSimulator trainer(train_cfg);
  trainer.run();
  auto trace = trainer.take_trace();
  const auto [train, validation] = trace.split_at(0.7 * train_cfg.duration);

  pred::UbfConfig ubf_cfg;
  ubf_cfg.windows = windows;
  auto ubf = std::make_shared<pred::UbfPredictor>(ubf_cfg);
  ubf->train(train);

  pred::HsmmPredictorConfig hsmm_cfg;
  hsmm_cfg.windows = windows;
  auto hsmm = std::make_shared<pred::HsmmPredictor>(hsmm_cfg);
  hsmm->train(train.failure_sequences(windows.data_window, windows.lead_time),
              train.nonfailure_sequences(windows.data_window,
                                         windows.lead_time,
                                         windows.prediction_window, 300.0));

  // Calibrate each predictor to its max-F threshold on validation data so
  // both share the controller's 0.5 warning threshold.
  pred::EvalOptions eo;
  eo.windows = windows;
  const auto ubf_report =
      pred::make_report("UBF", pred::score_on_grid(*ubf, validation, eo));
  const auto hsmm_report =
      pred::make_report("HSMM", pred::score_on_grid(*hsmm, validation, eo));
  std::printf("  %s\n  %s\n", pred::to_string(ubf_report).c_str(),
              pred::to_string(hsmm_report).c_str());

  // ---- online: the MEA loop against a fresh 14 days of operation ----------
  telecom::SimConfig run_cfg;
  run_cfg.seed = 1234;  // unseen future

  telecom::ScpSimulator unmanaged(run_cfg);
  unmanaged.run();

  // The MEA loop over one system is a one-node fleet; the node borrows
  // `managed`, so the simulator's own statistics stay readable.
  telecom::ScpSimulator managed(run_cfg);
  std::vector<std::unique_ptr<core::ManagedSystem>> nodes;
  nodes.push_back(std::make_unique<runtime::ScpManagedSystem>(managed));
  runtime::FleetConfig fleet_cfg;
  fleet_cfg.mea.windows = windows;
  fleet_cfg.mea.warning_threshold = 0.5;
  runtime::FleetController mea(std::move(nodes), fleet_cfg);
  mea.add_symptom_predictor(
      std::make_shared<pred::CalibratedSymptomPredictor>(
          ubf, ubf_report.threshold));
  mea.add_event_predictor(std::make_shared<pred::CalibratedEventPredictor>(
      hsmm, hsmm_report.threshold));
  mea.add_action([] { return std::make_unique<act::StateCleanupAction>(); });
  mea.add_action(
      [] { return std::make_unique<act::PreventiveFailoverAction>(); });
  mea.add_action([] { return std::make_unique<act::LoadLoweringAction>(); });
  mea.add_action(
      [] { return std::make_unique<act::PreparedRepairAction>(900.0); });
  std::printf("\nrunning the managed system (MEA loop, evaluation every "
              "%.0f s)...\n",
              fleet_cfg.mea.evaluation_interval);
  mea.run();

  // ---- compare -------------------------------------------------------------
  auto print_stats = [](const char* name, const telecom::SimStats& s) {
    std::printf("  %-10s availability %.6f  failures %3lld  downtime %6.0f s"
                "  shed %lld\n",
                name, s.availability(), static_cast<long long>(s.failures),
                s.downtime, static_cast<long long>(s.shed_requests));
  };
  std::printf("\nresults over %.0f days:\n", run_cfg.duration / 86400.0);
  print_stats("unmanaged", unmanaged.stats());
  print_stats("managed", managed.stats());
  const auto& activity = mea.node_mea_stats(0);
  std::printf("\nMEA activity: %zu evaluations, %zu warnings; actions:\n",
              activity.evaluations, activity.warnings);
  for (std::size_t k = 0; k < act::kNumActionKinds; ++k) {
    if (activity.actions_by_kind[k] == 0) continue;
    std::printf("  %-20s %zu\n",
                act::to_string(static_cast<act::ActionKind>(k)).c_str(),
                activity.actions_by_kind[k]);
  }
  const double u_managed = 1.0 - managed.stats().availability();
  const double u_plain = 1.0 - unmanaged.stats().availability();
  if (u_plain > 0.0) {
    std::printf("\nunavailability ratio (managed/unmanaged) = %.3f "
                "(the paper's CTMC model predicts ~0.49 for its Table 2 "
                "operating point)\n",
                u_managed / u_plain);
  }
  return 0;
}
