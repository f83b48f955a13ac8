// E9 — Table 1 end-to-end: the MEA loop (a one-node fleet) on the
// simulated SCP under the four countermeasure strategies (nothing /
// downtime minimization only / downtime avoidance only / both), with
// UBF + HSMM predictors trained on a separate trace. The measured
// availability ordering realizes the paper's Table 1 behavior matrix.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "prediction/calibration.hpp"
#include "prediction/hsmm.hpp"
#include "prediction/ubf.hpp"
#include "runtime/fleet.hpp"
#include "runtime/scp_system.hpp"

namespace {

using namespace pfm;

struct TrainedPredictors {
  std::shared_ptr<pred::SymptomPredictor> symptom;
  std::shared_ptr<pred::EventPredictor> event;
};

/// Trains UBF and HSMM on one trace and calibrates each to its max-F
/// threshold measured on the tail of that trace.
TrainedPredictors train_predictors(std::uint64_t seed) {
  const auto [train, validation] = bench::make_case_study(seed);
  const auto g = bench::case_study_windows();
  pred::EvalOptions eo;
  eo.windows = g;

  auto ubf = std::make_shared<pred::UbfPredictor>([&] {
    pred::UbfConfig cfg;
    cfg.windows = g;
    return cfg;
  }());
  ubf->train(train);
  const auto ubf_report =
      pred::make_report("UBF", pred::score_on_grid(*ubf, validation, eo));

  auto hsmm = std::make_shared<pred::HsmmPredictor>([&] {
    pred::HsmmPredictorConfig cfg;
    cfg.windows = g;
    return cfg;
  }());
  hsmm->train(train.failure_sequences(g.data_window, g.lead_time),
              train.nonfailure_sequences(g.data_window, g.lead_time,
                                         g.prediction_window, 300.0));
  const auto hsmm_report =
      pred::make_report("HSMM", pred::score_on_grid(*hsmm, validation, eo));

  std::printf("trained predictors (validation): UBF AUC %.3f thr %.3f, "
              "HSMM AUC %.3f thr %.3f\n",
              ubf_report.auc, ubf_report.threshold, hsmm_report.auc,
              hsmm_report.threshold);

  TrainedPredictors out;
  out.symptom = std::make_shared<pred::CalibratedSymptomPredictor>(
      ubf, ubf_report.threshold);
  out.event = std::make_shared<pred::CalibratedEventPredictor>(
      hsmm, hsmm_report.threshold);
  return out;
}

struct StrategyResult {
  const char* name;
  telecom::SimStats stats;
  core::MeaStats mea;
};

StrategyResult run_strategy(const char* name, const TrainedPredictors& preds,
                            bool avoidance, bool minimization,
                            std::uint64_t seed) {
  telecom::SimConfig cfg;
  cfg.seed = seed;
  cfg.duration = 14.0 * 86400.0;
  telecom::ScpSimulator sim(cfg);
  std::vector<std::unique_ptr<core::ManagedSystem>> nodes;
  nodes.push_back(std::make_unique<runtime::ScpManagedSystem>(sim));

  runtime::FleetConfig fc;
  fc.mea.windows = bench::case_study_windows();
  fc.mea.evaluation_interval = 60.0;
  fc.mea.warning_threshold = 0.5;  // calibrated predictors: 0.5 = max-F
  fc.mea.enable_avoidance = avoidance;
  fc.mea.enable_minimization = minimization;

  runtime::FleetController mea(std::move(nodes), fc);
  if (avoidance || minimization) {
    mea.add_symptom_predictor(preds.symptom);
    mea.add_event_predictor(preds.event);
    mea.add_action([] { return std::make_unique<act::StateCleanupAction>(); });
    mea.add_action(
        [] { return std::make_unique<act::PreventiveFailoverAction>(); });
    mea.add_action([] { return std::make_unique<act::LoadLoweringAction>(); });
    mea.add_action(
        [] { return std::make_unique<act::PreparedRepairAction>(900.0); });
  }
  mea.run();
  return {name, sim.stats(), mea.node_mea_stats(0)};
}

void print_experiment() {
  std::printf("== E9: Table 1 closed-loop MEA strategies ==\n");
  const auto preds = train_predictors(5);
  std::printf("\n  %-22s %-10s %-9s %-9s %-9s %-9s %-9s\n", "strategy",
              "avail", "failures", "downtime", "warnings", "actions",
              "prepared");
  // The managed system runs with a different seed than training.
  const std::uint64_t run_seed = 31;
  for (const auto& r :
       {run_strategy("none (reactive only)", preds, false, false, run_seed),
        run_strategy("minimization only", preds, false, true, run_seed),
        run_strategy("avoidance only", preds, true, false, run_seed),
        run_strategy("avoidance+minimization", preds, true, true, run_seed)}) {
    std::printf("  %-22s %-10.6f %-9lld %-9.0f %-9zu %-9zu %-9lld\n", r.name,
                r.stats.availability(),
                static_cast<long long>(r.stats.failures), r.stats.downtime,
                r.mea.warnings, r.mea.total_actions(),
                static_cast<long long>(r.stats.prepared_repairs));
  }
  std::printf("\n(Table 1: positive predictions trigger avoidance and/or "
              "preparation; expected availability ordering: both >= single "
              "strategy >= none.)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  // No microbenchmarks here — the strategies are whole-run experiments —
  // so google-benchmark is initialized only to honour its standard flags.
  benchmark::Initialize(&argc, argv);
  print_experiment();
  return 0;
}
