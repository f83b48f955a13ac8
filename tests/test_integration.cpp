// Integration tests: the whole pipeline wired together — simulator trace,
// trained predictors, evaluation harness and the closed MEA loop — on a
// shortened configuration so the suite stays fast.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "prediction/baselines.hpp"
#include "prediction/calibration.hpp"
#include "prediction/evaluate.hpp"
#include "prediction/hsmm.hpp"
#include "prediction/ubf.hpp"
#include "runtime/fleet.hpp"
#include "runtime/scp_system.hpp"

namespace pfm {
namespace {

/// Shared 7-day trace so the expensive simulation runs once.
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    telecom::SimConfig cfg;
    cfg.seed = 101;
    cfg.duration = 7.0 * 86400.0;
    telecom::ScpSimulator sim(cfg);
    sim.run();
    auto trace = sim.take_trace();
    auto [train, test] = trace.split_at(0.7 * cfg.duration);
    train_ = new mon::MonitoringDataset(std::move(train));
    test_ = new mon::MonitoringDataset(std::move(test));
  }
  static void TearDownTestSuite() {
    delete train_;
    delete test_;
    train_ = nullptr;
    test_ = nullptr;
  }

  static pred::WindowGeometry windows() { return {600.0, 300.0, 300.0}; }

  static mon::MonitoringDataset* train_;
  static mon::MonitoringDataset* test_;
};

mon::MonitoringDataset* PipelineTest::train_ = nullptr;
mon::MonitoringDataset* PipelineTest::test_ = nullptr;

TEST_F(PipelineTest, TraceIsWellFormed) {
  ASSERT_GT(train_->failures().size(), 3u);
  ASSERT_GT(test_->failures().size(), 0u);
  ASSERT_GT(train_->events().size(), 100u);
  ASSERT_GT(train_->samples().size(), 1000u);
  // Split preserves ordering and boundaries.
  EXPECT_LT(train_->end_time(), test_->start_time() + 1e-6);
}

TEST_F(PipelineTest, UbfEndToEndBeatsChance) {
  pred::UbfConfig cfg;
  cfg.windows = windows();
  cfg.pwa_iterations = 30;       // reduced budget keeps the test quick
  cfg.shape_evaluations = 150;
  pred::UbfPredictor ubf(cfg);
  ubf.train(*train_);
  pred::EvalOptions eo;
  eo.windows = windows();
  const auto report =
      pred::make_report("UBF", pred::score_on_grid(ubf, *test_, eo));
  EXPECT_GT(report.auc, 0.6);
  EXPECT_GT(report.f_measure(), 0.1);
  EXPECT_FALSE(ubf.selected_variables().empty());
}

TEST_F(PipelineTest, HsmmEndToEndBeatsChance) {
  const auto g = windows();
  pred::HsmmPredictorConfig cfg;
  cfg.windows = g;
  pred::HsmmPredictor hsmm(cfg);
  hsmm.train(train_->failure_sequences(g.data_window, g.lead_time),
             train_->nonfailure_sequences(g.data_window, g.lead_time,
                                          g.prediction_window, 300.0));
  pred::EvalOptions eo;
  eo.windows = g;
  const auto report =
      pred::make_report("HSMM", pred::score_on_grid(hsmm, *test_, eo));
  EXPECT_GT(report.auc, 0.6);
}

TEST_F(PipelineTest, LearnedPredictorsBeatFailureTracking) {
  // The paper's core argument for runtime monitoring: models that see the
  // system's current state beat models that only know the failure history.
  const auto g = windows();
  pred::EvalOptions eo;
  eo.windows = g;

  pred::HsmmPredictorConfig hcfg;
  hcfg.windows = g;
  pred::HsmmPredictor hsmm(hcfg);
  hsmm.train(train_->failure_sequences(g.data_window, g.lead_time),
             train_->nonfailure_sequences(g.data_window, g.lead_time,
                                          g.prediction_window, 300.0));
  const auto hsmm_auc =
      pred::make_report("h", pred::score_on_grid(hsmm, *test_, eo)).auc;

  pred::FailureTrackingPredictor ft(g);
  ft.train(*train_);
  const auto ft_auc =
      pred::make_report("ft", pred::score_on_grid(ft, *test_, eo)).auc;
  EXPECT_GT(hsmm_auc, ft_auc);
}

TEST_F(PipelineTest, ClosedLoopWithTrainedPredictorImprovesAvailability) {
  // Train a cheap symptom predictor, then drive a fresh simulator run of
  // the same platform (different seed) through the MEA loop.
  const auto g = windows();
  auto trend = std::make_shared<pred::TrendPredictor>(g);
  trend->train(*train_);
  pred::EvalOptions eo;
  eo.windows = g;
  const auto report =
      pred::make_report("t", pred::score_on_grid(*trend, *test_, eo));

  telecom::SimConfig cfg;
  cfg.seed = 555;
  cfg.duration = 5.0 * 86400.0;
  cfg.leak_mtbf = 86400.0 * 0.75;  // leak-heavy: trend's home turf
  cfg.cascade_mtbf = 1e12;
  cfg.spike_mtbf = 1e12;

  telecom::ScpSimulator plain(cfg);
  plain.run();

  telecom::ScpSimulator managed(cfg);
  std::vector<std::unique_ptr<core::ManagedSystem>> nodes;
  nodes.push_back(std::make_unique<runtime::ScpManagedSystem>(managed));
  runtime::FleetConfig fc;
  fc.mea.windows = g;
  fc.mea.warning_threshold = 0.5;
  runtime::FleetController mea(std::move(nodes), fc);
  mea.add_symptom_predictor(
      std::make_shared<pred::CalibratedSymptomPredictor>(trend,
                                                         report.threshold));
  mea.add_action([] { return std::make_unique<act::StateCleanupAction>(); });
  mea.add_action(
      [] { return std::make_unique<act::PreparedRepairAction>(900.0); });
  mea.run();

  EXPECT_GT(mea.node_mea_stats(0).warnings, 0u);
  EXPECT_GE(managed.stats().availability(), plain.stats().availability());
}

TEST_F(PipelineTest, WindowExtractionConsistency) {
  // Every failure sequence's window must precede its failure by the lead
  // time, and non-failure sequences must be disjoint from those windows.
  const auto g = windows();
  const auto fail_seqs =
      train_->failure_sequences(g.data_window, g.lead_time);
  ASSERT_FALSE(fail_seqs.empty());
  for (const auto& seq : fail_seqs) {
    EXPECT_TRUE(train_->failure_within(seq.end_time + g.lead_time - 1e-6,
                                       seq.end_time + g.lead_time + 1e-6));
    for (const auto& e : seq.events) {
      EXPECT_GT(e.time, seq.end_time - g.data_window - 1e-9);
      EXPECT_LE(e.time, seq.end_time + 1e-9);
    }
  }
  const auto ok_seqs = train_->nonfailure_sequences(
      g.data_window, g.lead_time, g.prediction_window, 300.0);
  for (const auto& seq : ok_seqs) {
    EXPECT_FALSE(train_->failure_within(
        seq.end_time - g.data_window,
        seq.end_time + g.lead_time + g.prediction_window));
  }
}

}  // namespace
}  // namespace pfm
