// Conformance suite of the fleet hot path:
//  - the arena-backed score_batch overloads (SoA scoring + cached kernel
//    constants) are *bit-identical* to score();
//  - a fleet run under a default FleetConfig reproduces its recorded
//    golden fingerprint (tests/golden/) — telemetry and every sim-time
//    export — at 1, 2 and 8 threads, on a healthy fleet and under a
//    hostile fault plan. Thread count may change wall time only.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "golden.hpp"
#include "injection/injector.hpp"
#include "obs/observability.hpp"
#include "prediction/baselines.hpp"
#include "prediction/ubf.hpp"
#include "runtime/fleet.hpp"
#include "runtime/scp_system.hpp"
#include "telecom/simulator.hpp"

namespace pfm {
namespace {

constexpr std::size_t kNodes = 6;
constexpr double kDuration = 0.3 * 86400.0;

pred::WindowGeometry geometry() { return {600.0, 300.0, 300.0}; }

/// The predictor ensemble, trained once per process on a simulated SCP
/// trace and shared read-only by every run of the suite: a UBF (the SoA
/// kernel sweep), a trend baseline (the regression scratch) and an
/// eventset miner (the sorted-id membership scratch) — one exerciser per
/// arena-backed code path.
struct Ensemble {
  std::shared_ptr<const pred::SymptomPredictor> ubf;
  std::shared_ptr<const pred::SymptomPredictor> trend;
  std::shared_ptr<const pred::EventPredictor> eventset;
  mon::MonitoringDataset train_trace{mon::SymptomSchema({"unused"})};
};

const Ensemble& ensemble() {
  static const Ensemble shared = [] {
    telecom::SimConfig cfg;
    cfg.seed = 5;
    cfg.duration = 4.0 * 86400.0;
    telecom::ScpSimulator sim(cfg);
    sim.run();
    const auto trace = sim.take_trace();
    const auto g = geometry();

    pred::UbfConfig ubf_cfg;
    ubf_cfg.windows = g;
    ubf_cfg.num_kernels = 4;
    ubf_cfg.pwa_iterations = 25;
    ubf_cfg.shape_evaluations = 120;
    ubf_cfg.max_train_windows = 1200;
    auto ubf = std::make_shared<pred::UbfPredictor>(ubf_cfg);
    ubf->train(trace);

    auto trend = std::make_shared<pred::TrendPredictor>(g);
    trend->train(trace);

    auto eventset = std::make_shared<pred::EventsetPredictor>();
    eventset->train(trace.failure_sequences(g.data_window, g.lead_time),
                    trace.nonfailure_sequences(g.data_window, g.lead_time,
                                               g.prediction_window, 300.0));

    Ensemble out;
    out.ubf = std::move(ubf);
    out.trend = std::move(trend);
    out.eventset = std::move(eventset);
    out.train_trace = trace;
    return out;
  }();
  return shared;
}

// --- predictor-level bit-identity -------------------------------------------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The 3-arg arena overloads (SoA UBF sweep, scratch-backed regression,
/// sorted-id membership) must reproduce score() bit for bit — same
/// rounding, same FP contraction, same accumulation order.
TEST(FleetConformance, ArenaScoreBatchesAreBitIdenticalToReference) {
  const auto& e = ensemble();
  const auto samples = e.train_trace.samples();
  const auto g = geometry();
  ASSERT_GE(samples.size(), 400u);

  std::vector<pred::SymptomContext> contexts;
  for (std::size_t start = 0; start + 20 <= samples.size() &&
                              contexts.size() < 64;
       start += samples.size() / 64) {
    pred::SymptomContext ctx;
    ctx.history = samples.subspan(start, 20);
    ctx.past_failures = e.train_trace.failures();
    contexts.push_back(ctx);
  }
  ASSERT_GE(contexts.size(), 32u);

  pred::BatchScratch scratch;
  std::vector<double> reference(contexts.size());
  std::vector<double> optimized(contexts.size());
  for (const auto* p : {e.ubf.get(), e.trend.get()}) {
    for (std::size_t i = 0; i < contexts.size(); ++i) {
      reference[i] = p->score(contexts[i]);
    }
    p->score_batch(contexts, optimized, scratch);
    for (std::size_t i = 0; i < contexts.size(); ++i) {
      EXPECT_EQ(bits(reference[i]), bits(optimized[i]))
          << p->name() << " context " << i;
    }
    // Second pass through the warm (possibly oversized) arena: reuse
    // must not change results either.
    p->score_batch(contexts, optimized, scratch);
    for (std::size_t i = 0; i < contexts.size(); ++i) {
      EXPECT_EQ(bits(reference[i]), bits(optimized[i]))
          << p->name() << " warm-arena context " << i;
    }
  }

  const auto sequences =
      e.train_trace.failure_sequences(g.data_window, g.lead_time);
  ASSERT_FALSE(sequences.empty());
  std::vector<double> seq_ref(sequences.size());
  std::vector<double> seq_opt(sequences.size());
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    seq_ref[i] = e.eventset->score(sequences[i]);
  }
  e.eventset->score_batch(sequences, seq_opt, scratch);
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    EXPECT_EQ(bits(seq_ref[i]), bits(seq_opt[i])) << "sequence " << i;
  }
}

// --- fleet-level conformance -------------------------------------------------

/// What one fleet run is checked on: its golden fingerprint, the
/// per-node state the exports do not carry, and the counts that prove the
/// scenario exercised what it is meant to.
struct Artifacts {
  std::string fingerprint;  ///< golden::fingerprint of the run
  std::uint64_t dropped = 0;
  std::size_t rounds = 0;
  std::size_t warnings = 0;
  std::size_t quarantined = 0;
  std::vector<std::size_t> node_warnings;
  std::vector<bool> node_quarantined;
  std::vector<std::string> node_reason;
};

inj::FaultPlan hostile_plan() {
  inj::FaultPlan plan;
  plan.seed = 77;
  plan.nodes[1].crash_at = 10000.0;
  plan.nodes[2].hang_at = 6000.0;
  plan.nodes[2].hang_steps = 5;
  plan.default_node.drop_sample_p = 0.03;
  plan.default_node.corrupt_sample_p = 0.02;
  plan.predictors[0].nan_p = 0.05;
  plan.predictors[0].throw_p = 0.02;
  plan.actions[0].fail_p = 0.3;
  return plan;
}

/// How the caller advances the fleet: one run() to the horizon, or
/// run_until one evaluation interval at a time up to `until`.
struct Advance {
  bool chunked = false;
  double until = kDuration;
};

Artifacts run_fleet(std::size_t threads, bool hostile, Advance advance = {}) {
  obs::ObservabilityConfig ocfg;
  ocfg.shards = threads;
  ocfg.trace_capacity = 1 << 15;
  obs::Observability hub(ocfg);

  telecom::SimConfig sim;
  sim.seed = 21;
  sim.duration = kDuration;
  sim.leak_mtbf = 21600.0;  // enough pressure to raise warnings

  runtime::FleetConfig cfg;
  cfg.mea.windows = geometry();
  cfg.mea.warning_threshold = 0.6;
  cfg.mea.action_cooldown = 600.0;
  cfg.num_threads = threads;
  cfg.obs = &hub;

  const auto& e = ensemble();
  auto nodes = runtime::make_scp_fleet(sim, kNodes);

  inj::FaultInjector injector(hostile_plan());
  injector.set_observability(&hub);

  auto make_cleanup = [] {
    return std::make_unique<act::StateCleanupAction>(0.70);
  };
  auto make_repair = [] {
    return std::make_unique<act::PreparedRepairAction>(1800.0);
  };

  runtime::FleetController fleet(
      hostile ? injector.wrap_fleet(std::move(nodes)) : std::move(nodes),
      cfg);
  if (hostile) {
    fleet.add_symptom_predictor(injector.wrap_symptom_predictor(0, e.ubf));
    fleet.add_symptom_predictor(injector.wrap_symptom_predictor(1, e.trend));
    fleet.add_event_predictor(injector.wrap_event_predictor(0, e.eventset));
    fleet.add_action(injector.wrap_action_factory(0, make_cleanup));
    fleet.add_action(injector.wrap_action_factory(1, make_repair));
  } else {
    fleet.add_symptom_predictor(e.ubf);
    fleet.add_symptom_predictor(e.trend);
    fleet.add_event_predictor(e.eventset);
    fleet.add_action(make_cleanup);
    fleet.add_action(make_repair);
  }
  if (advance.chunked) {
    const double interval = cfg.mea.evaluation_interval;
    for (double t = interval; t <= advance.until; t += interval) {
      fleet.run_until(t);
    }
  } else if (advance.until >= kDuration) {
    fleet.run();
  } else {
    fleet.run_until(advance.until);
  }

  Artifacts out;
  out.dropped = hub.trace().dropped();
  const auto t = fleet.telemetry();
  out.fingerprint = golden::fingerprint(hub, t);
  out.rounds = t.rounds;
  out.warnings = t.warnings_raised;
  out.quarantined = t.resilience.nodes_quarantined;
  for (std::size_t i = 0; i < fleet.num_nodes(); ++i) {
    out.node_warnings.push_back(fleet.node_mea_stats(i).warnings);
    out.node_quarantined.push_back(fleet.node_quarantined(i));
    out.node_reason.push_back(fleet.node_quarantine_reason(i));
  }
  return out;
}

void expect_golden(bool hostile) {
  const std::string golden_name =
      hostile ? "fleet_conformance_hostile" : "fleet_conformance_clean";
  const auto canonical = run_fleet(1, hostile);
  ASSERT_EQ(canonical.dropped, 0u);
  EXPECT_GT(canonical.rounds, 0u);
  EXPECT_GT(canonical.warnings, 0u) << "scenario too tame to exercise Act";
  if (hostile) {
    EXPECT_GT(canonical.quarantined, 0u) << "plan injected no node faults";
  }
  golden::expect_matches(golden_name, canonical.fingerprint);
  struct Input {
    std::size_t threads;
    Advance advance;
  };
  std::vector<Input> inputs = {{2, {}}, {8, {}}};
  // Advancing with run_until one interval at a time must leave no trace.
  // Only on the clean fleet: past its scripted hang the hostile one
  // diverges (see ChunkedRunUntilMatchesOneCallUpToTheFirstStall).
  if (!hostile) inputs.push_back({2, {.chunked = true}});
  for (const Input& input : inputs) {
    SCOPED_TRACE(std::string(hostile ? "hostile" : "clean") + " threads=" +
                 std::to_string(input.threads) +
                 (input.advance.chunked ? " chunked" : ""));
    const auto run = run_fleet(input.threads, hostile, input.advance);
    ASSERT_EQ(run.dropped, 0u);
    golden::expect_matches(golden_name, run.fingerprint);
    EXPECT_EQ(canonical.node_warnings, run.node_warnings);
    EXPECT_EQ(canonical.node_quarantined, run.node_quarantined);
    EXPECT_EQ(canonical.node_reason, run.node_reason);
  }
}

/// The hostile fleet advanced one interval at a time, up to the interval before its
/// scripted hang, equals one run_until call to the same instant: predictor
/// throws and NaNs, the breaker trips they cause, and dropped and
/// corrupted samples are all chunk-invariant. (Past the hang it is not: a
/// call retries a node that made no progress on extra calendar ticks of
/// its own, which a single run shares with the rest of the fleet.)
TEST(FleetConformance, ChunkedRunUntilMatchesOneCallUpToTheFirstStall) {
  const double until = hostile_plan().nodes.at(2).hang_at - 60.0;
  const auto once = run_fleet(2, /*hostile=*/true, {.until = until});
  const auto chunked =
      run_fleet(2, /*hostile=*/true, {.chunked = true, .until = until});
  ASSERT_EQ(once.dropped, 0u);
  ASSERT_EQ(chunked.dropped, 0u);
  EXPECT_GT(once.warnings, 0u);
  EXPECT_EQ(once.fingerprint, chunked.fingerprint);
  EXPECT_EQ(once.node_warnings, chunked.node_warnings);
}

TEST(FleetConformance, CleanFleetMatchesGoldenAtEveryThreadCount) {
  expect_golden(/*hostile=*/false);
}

TEST(FleetConformance, HostileFleetMatchesGoldenAtEveryThreadCount) {
  expect_golden(/*hostile=*/true);
}

}  // namespace
}  // namespace pfm
