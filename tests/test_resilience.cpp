// Hardened runtime semantics: quarantine keeps the fleet running, the
// per-predictor circuit breaker trips and half-opens, failed actions
// follow the bounded-retry/exponential-backoff schedule, and non-finite
// scores never reach the warning decision.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/mea.hpp"
#include "injection/injector.hpp"
#include "membership/membership_plan.hpp"
#include "runtime/fleet.hpp"
#include "runtime/scp_system.hpp"

namespace pfm {
namespace {

class PressurePredictor final : public pred::SymptomPredictor {
 public:
  explicit PressurePredictor(std::size_t pressure_index)
      : index_(pressure_index) {}
  std::string name() const override { return "pressure"; }
  void train(const mon::MonitoringDataset&) override {}
  double score(const pred::SymptomContext& ctx) const override {
    return ctx.history.back().values.at(index_);
  }

 private:
  std::size_t index_;
};

/// Returns a fixed (possibly non-finite) value and counts scored calls —
/// the probe-visibility hook for the breaker tests.
class ScriptedPredictor final : public pred::SymptomPredictor {
 public:
  /// Emits `bad` for the first `faulty_calls` score_batch calls, then
  /// `good` forever.
  ScriptedPredictor(double bad, double good, std::size_t faulty_calls)
      : bad_(bad), good_(good), faulty_calls_(faulty_calls) {}
  std::string name() const override { return "scripted"; }
  void train(const mon::MonitoringDataset&) override {}
  double score(const pred::SymptomContext&) const override {
    return calls_ <= faulty_calls_ ? bad_ : good_;
  }
  void score_batch(std::span<const pred::SymptomContext> contexts,
                   std::span<double> out) const override {
    ++calls_;
    const double v = calls_ <= faulty_calls_ ? bad_ : good_;
    for (std::size_t i = 0; i < contexts.size(); ++i) out[i] = v;
  }
  std::size_t calls() const noexcept { return calls_; }

 private:
  double bad_;
  double good_;
  std::size_t faulty_calls_;
  mutable std::size_t calls_ = 0;
};

/// Fails the first `failures` execute attempts, then succeeds.
class FlakyAction final : public act::Action {
 public:
  explicit FlakyAction(std::size_t failures) : failures_left_(failures) {}
  std::string name() const override { return "flaky"; }
  act::ActionKind kind() const override {
    return act::ActionKind::kPreparedRepair;
  }
  const act::ActionProperties& properties() const override { return props_; }
  bool applicable(const core::ManagedSystem&) const override { return true; }
  void execute(core::ManagedSystem& system, double) override {
    ++attempts_;
    if (failures_left_ > 0) {
      --failures_left_;
      throw std::runtime_error("flaky actuator");
    }
    system.checkpoint();
    ++successes_;
  }
  std::size_t attempts() const noexcept { return attempts_; }
  std::size_t successes() const noexcept { return successes_; }

 private:
  std::size_t failures_left_;
  std::size_t attempts_ = 0;
  std::size_t successes_ = 0;
  act::ActionProperties props_{0.5, 0.95, 1.0};
};

telecom::SimConfig sim_config() {
  telecom::SimConfig cfg;
  cfg.seed = 21;
  cfg.duration = 0.5 * 86400.0;
  cfg.leak_mtbf = 21600.0;
  cfg.cascade_mtbf = 1e12;
  cfg.spike_mtbf = 1e12;
  return cfg;
}

std::size_t pressure_index() {
  telecom::ScpSimulator sim(sim_config());
  return *sim.trace().schema().index("mem_pressure_max");
}

// --- quarantine -------------------------------------------------------------

TEST(Resilience, QuarantineKeepsTheFleetRunning) {
  const std::size_t kNodes = 4;
  inj::FaultPlan plan;
  plan.nodes[1].crash_at = 3600.0;
  inj::FaultInjector injector(plan);

  runtime::FleetConfig cfg;
  cfg.mea.warning_threshold = 0.72;
  cfg.num_threads = 2;
  runtime::FleetController fleet(
      injector.wrap_fleet(runtime::make_scp_fleet(sim_config(), kNodes)), cfg);
  fleet.add_symptom_predictor(
      std::make_shared<PressurePredictor>(pressure_index()));
  fleet.add_action([] {
    return std::make_unique<act::StateCleanupAction>(0.70);
  });

  EXPECT_NO_THROW(fleet.run());

  EXPECT_TRUE(fleet.node_quarantined(1));
  EXPECT_NE(fleet.node_quarantine_reason(1).find("crashed"),
            std::string::npos);
  for (std::size_t i : {0u, 2u, 3u}) {
    EXPECT_FALSE(fleet.node_quarantined(i)) << "node " << i;
    EXPECT_DOUBLE_EQ(fleet.node(i).system_stats().simulated,
                     sim_config().duration)
        << "healthy node " << i << " must run to its horizon";
  }
  const auto t = fleet.telemetry();
  EXPECT_EQ(t.resilience.nodes_quarantined, 1u);
  EXPECT_GE(t.resilience.node_faults, 1u);
  // The dead node stops accumulating coverage at its crash instant.
  EXPECT_LT(fleet.node(1).system_stats().simulated, sim_config().duration);
}

/// Churn-vs-fault composition: a node the FaultPlan crashes (and the
/// runtime quarantines) is later restarted by the MembershipPlan. The
/// fresh incarnation must NOT resurrect the dead incarnation's state —
/// no stale quarantine record, a clean reason, and real forward
/// progress — while the fleet's cumulative accounting keeps the old
/// incarnation's history.
TEST(Resilience, MembershipRestartClearsQuarantineInsteadOfResurrectingIt) {
  const std::size_t kNodes = 4;
  inj::FaultPlan plan;
  plan.nodes[1].crash_at = 3600.0;
  inj::FaultInjector injector(plan);

  runtime::FleetConfig cfg;
  cfg.mea.warning_threshold = 0.72;
  cfg.membership.plan.restart_node(7200.0, 1);
  // The replacement incarnation is NOT fault-wrapped: having crashed
  // once is a property of the dead incarnation, not of the slot.
  cfg.membership.factory = [](const membership::JoinContext& ctx) {
    telecom::SimConfig joiner = sim_config();
    joiner.seed = ctx.seed;
    return std::make_unique<runtime::ScpManagedSystem>(joiner);
  };
  runtime::FleetController fleet(
      injector.wrap_fleet(runtime::make_scp_fleet(sim_config(), kNodes)), cfg);
  fleet.add_symptom_predictor(
      std::make_shared<PressurePredictor>(pressure_index()));
  fleet.add_action([] {
    return std::make_unique<act::StateCleanupAction>(0.70);
  });

  EXPECT_NO_THROW(fleet.run());

  // The crash really happened before the restart...
  const auto t = fleet.telemetry();
  EXPECT_GE(t.resilience.node_faults, 1u);
  EXPECT_EQ(t.membership.nodes_left, 1u);
  EXPECT_EQ(t.membership.nodes_joined, 1u);
  // ...yet no stale quarantine survives the restart.
  EXPECT_FALSE(fleet.node_quarantined(1));
  EXPECT_TRUE(fleet.node_quarantine_reason(1).empty());
  EXPECT_EQ(t.resilience.nodes_quarantined, 0u);
  EXPECT_EQ(fleet.node_incarnation(1), 1u);
  EXPECT_FALSE(fleet.node_departed(1));
  // The fresh incarnation starts over on its own clock and — unlike its
  // crashed predecessor — runs all the way to its horizon.
  EXPECT_DOUBLE_EQ(fleet.node(1).system_stats().simulated,
                   sim_config().duration);
  // Fleet totals stay cumulative across incarnations: four nodes at
  // full coverage PLUS the crashed incarnation's partial history.
  EXPECT_GT(t.system.simulated, 4.0 * sim_config().duration);
}

/// The flip side: a restarted slot is re-armed, not immunized. If the
/// replacement is fault-wrapped under the same crash spec, the fresh
/// incarnation crashes on its own clock and is quarantined again — with
/// its own fresh decision stream, not a replay of the first crash.
TEST(Resilience, RestartedNodeCanBeQuarantinedAgainByItsOwnFaults) {
  inj::FaultPlan plan;
  plan.nodes[1].crash_at = 3600.0;
  inj::FaultInjector injector(plan);

  runtime::FleetConfig cfg;
  cfg.mea.warning_threshold = 0.72;
  cfg.membership.plan.restart_node(7200.0, 1);
  cfg.membership.factory = [&injector](const membership::JoinContext& ctx) {
    telecom::SimConfig joiner = sim_config();
    joiner.seed = ctx.seed;
    return injector.wrap_node(
        ctx.node, std::make_unique<runtime::ScpManagedSystem>(joiner));
  };
  runtime::FleetController fleet(
      injector.wrap_fleet(runtime::make_scp_fleet(sim_config(), 4)), cfg);
  fleet.add_symptom_predictor(
      std::make_shared<PressurePredictor>(pressure_index()));

  EXPECT_NO_THROW(fleet.run());

  EXPECT_TRUE(fleet.node_quarantined(1));
  EXPECT_NE(fleet.node_quarantine_reason(1).find("crashed"),
            std::string::npos);
  EXPECT_EQ(fleet.node_incarnation(1), 1u);
  const auto t = fleet.telemetry();
  EXPECT_EQ(t.resilience.nodes_quarantined, 1u);
  EXPECT_GE(t.resilience.node_faults, 2u) << "both incarnations crashed";
}

TEST(Resilience, FaultFreeRunMatchesRecordedNumbers) {
  // A healthy fleet never engages the hardening: the run reproduces the
  // numbers a loop without any fault handling recorded for this
  // configuration (re-recorded once when num::Rng moved to its own engine
  // and samplers, and once when the simulator tick moved to one arrival
  // and one thinned violation draw), and every resilience counter stays
  // zero.
  runtime::FleetConfig cfg;
  cfg.mea.warning_threshold = 0.72;
  cfg.mea.action_cooldown = 600.0;
  cfg.num_threads = 2;
  runtime::FleetController fleet(runtime::make_scp_fleet(sim_config(), 4),
                                 cfg);
  fleet.add_symptom_predictor(
      std::make_shared<PressurePredictor>(pressure_index()));
  fleet.add_action([] {
    return std::make_unique<act::StateCleanupAction>(0.70);
  });
  fleet.run();
  const auto t = fleet.telemetry();

  EXPECT_EQ(t.rounds, 720u);
  EXPECT_EQ(t.scores_computed, 2880u);
  EXPECT_EQ(t.warnings_raised, 37u);
  EXPECT_EQ(t.mea.total_actions(), 23u);
  EXPECT_DOUBLE_EQ(t.system.downtime, 0.0);
  EXPECT_EQ(t.system.total_requests, 8081967u);
  // Hardening engaged nothing.
  EXPECT_EQ(t.resilience.node_faults, 0u);
  EXPECT_EQ(t.resilience.nodes_quarantined, 0u);
  EXPECT_EQ(t.resilience.stall_detections, 0u);
  EXPECT_EQ(t.resilience.predictor_faults, 0u);
  EXPECT_EQ(t.resilience.breaker_trips, 0u);
  EXPECT_EQ(t.resilience.breakers_open, 0u);
  EXPECT_EQ(t.resilience.scores_sanitized, 0u);
  EXPECT_EQ(t.mea.action_faults, 0u);
  EXPECT_EQ(t.mea.action_retries, 0u);
  EXPECT_EQ(t.mea.actions_abandoned, 0u);
}

// --- circuit breaker --------------------------------------------------------

TEST(Resilience, BreakerTripsSitsOutAndHalfOpensBackToHealthy) {
  // Scripted: the flaky predictor emits NaN for its first
  // kBreakerTripFailures scored calls, then behaves:
  //   rounds 1..trip         faulty -> breaker opens (trip #1)
  //   next kBreakerOpenRounds sits out (no scored calls)
  //   next round             half-open probe -> healthy -> breaker closes
  //   after that             scored every round
  using runtime::kBreakerOpenRounds;
  using runtime::kBreakerTripFailures;
  const double interval = 60.0;
  runtime::FleetConfig cfg;
  cfg.mea.evaluation_interval = interval;
  cfg.mea.warning_threshold = 0.72;

  auto scripted = std::make_shared<ScriptedPredictor>(
      std::numeric_limits<double>::quiet_NaN(), 0.0, kBreakerTripFailures);
  runtime::FleetController fleet(runtime::make_scp_fleet(sim_config(), 2),
                                 cfg);
  fleet.add_symptom_predictor(scripted);
  fleet.add_symptom_predictor(
      std::make_shared<PressurePredictor>(pressure_index()));

  auto run_rounds = [&](std::size_t rounds) {
    fleet.run_until(static_cast<double>(fleet.telemetry().rounds + rounds) *
                    interval);
  };

  run_rounds(kBreakerTripFailures - 1);
  EXPECT_FALSE(fleet.predictor_tripped(0)) << "one fault short of a trip";
  run_rounds(1);
  EXPECT_EQ(scripted->calls(), kBreakerTripFailures);
  EXPECT_TRUE(fleet.predictor_tripped(0));
  EXPECT_FALSE(fleet.predictor_tripped(1)) << "healthy predictor unaffected";
  EXPECT_EQ(fleet.telemetry().resilience.breaker_trips, 1u);

  run_rounds(kBreakerOpenRounds);  // cooldown: the tripped predictor sits out
  EXPECT_EQ(scripted->calls(), kBreakerTripFailures);
  EXPECT_TRUE(fleet.predictor_tripped(0));
  EXPECT_EQ(fleet.telemetry().resilience.breakers_open, 1u);

  run_rounds(1);  // half-open probe; the predictor is healthy again
  EXPECT_EQ(scripted->calls(), kBreakerTripFailures + 1);
  EXPECT_FALSE(fleet.predictor_tripped(0));

  run_rounds(2);  // closed: scored every round again
  EXPECT_EQ(scripted->calls(), kBreakerTripFailures + 3);
  EXPECT_EQ(fleet.telemetry().resilience.breaker_trips, 1u);
  EXPECT_EQ(fleet.telemetry().resilience.breakers_open, 0u);
}

TEST(Resilience, FailedProbeReopensTheBreaker) {
  using runtime::kBreakerOpenRounds;
  using runtime::kBreakerTripFailures;
  const double interval = 60.0;
  runtime::FleetConfig cfg;
  cfg.mea.evaluation_interval = interval;

  // Faulty for one scored call past the trip: the first
  // kBreakerTripFailures calls trip it, the probe after the cooldown fails
  // and re-opens it, the next probe heals it.
  auto scripted = std::make_shared<ScriptedPredictor>(
      std::numeric_limits<double>::quiet_NaN(), 0.0,
      kBreakerTripFailures + 1);
  runtime::FleetController fleet(runtime::make_scp_fleet(sim_config(), 1),
                                 cfg);
  fleet.add_symptom_predictor(scripted);

  auto run_rounds = [&](std::size_t rounds) {
    fleet.run_until(static_cast<double>(fleet.telemetry().rounds + rounds) *
                    interval);
  };

  run_rounds(kBreakerTripFailures);  // trip #1
  EXPECT_TRUE(fleet.predictor_tripped(0));
  run_rounds(kBreakerOpenRounds);  // sit out
  EXPECT_EQ(scripted->calls(), kBreakerTripFailures);
  run_rounds(1);  // probe fails -> re-open (trip #2)
  EXPECT_EQ(scripted->calls(), kBreakerTripFailures + 1);
  EXPECT_TRUE(fleet.predictor_tripped(0));
  EXPECT_EQ(fleet.telemetry().resilience.breaker_trips, 2u);
  run_rounds(kBreakerOpenRounds);  // sit out again
  EXPECT_EQ(scripted->calls(), kBreakerTripFailures + 1);
  run_rounds(1);  // probe succeeds -> closed
  EXPECT_EQ(scripted->calls(), kBreakerTripFailures + 2);
  EXPECT_FALSE(fleet.predictor_tripped(0));
}

// --- action retry / backoff -------------------------------------------------

TEST(Resilience, ActionRetriesFollowTheBoundedSchedule) {
  runtime::ScpManagedSystem system{sim_config()};
  system.step_to(600.0);

  core::MeaConfig cfg;
  cfg.action_cooldown = 0.0;

  // Fails on every attempt but the last: one execution, every retry
  // spent, no abandon.
  constexpr std::size_t kFailures = core::kActionMaxAttempts - 1;
  auto flaky = std::make_unique<FlakyAction>(kFailures);
  auto* flaky_ptr = flaky.get();
  core::ActEngine engine;
  engine.add_action(std::move(flaky));
  core::MeaStats stats;
  engine.act(system, 0.9, cfg, stats);
  EXPECT_EQ(flaky_ptr->attempts(), core::kActionMaxAttempts);
  EXPECT_EQ(flaky_ptr->successes(), 1u);
  EXPECT_EQ(stats.action_faults, kFailures);
  EXPECT_EQ(stats.action_retries, kFailures);
  EXPECT_EQ(stats.actions_abandoned, 0u);
  EXPECT_EQ(stats.actions_by_kind[static_cast<std::size_t>(
                act::ActionKind::kPreparedRepair)],
            1u);
  // Success leaves no backoff behind.
  EXPECT_LT(engine.backoff_until(act::ActionKind::kPreparedRepair), 0.0);
}

TEST(Resilience, AbandonedActionsBackOffExponentially) {
  runtime::ScpManagedSystem system{sim_config()};
  core::MeaConfig cfg;
  cfg.action_cooldown = 0.0;

  auto always_failing = std::make_unique<FlakyAction>(1000000);
  auto* action = always_failing.get();
  core::ActEngine engine;
  engine.add_action(std::move(always_failing));
  core::MeaStats stats;
  const auto kind = act::ActionKind::kPreparedRepair;

  // Abandon #n backs the kind off by initial * 2^(n-1), capped at the
  // maximum. Each retry happens exactly when the previous backoff ends;
  // the loop runs until two abandons in a row have hit the cap.
  double now = 600.0;
  double backoff = core::kActionBackoffInitial;
  std::size_t abandons = 0;
  std::size_t capped = 0;
  while (capped < 2) {
    system.step_to(now);
    engine.act(system, 0.9, cfg, stats);
    ++abandons;
    EXPECT_EQ(action->attempts(), abandons * core::kActionMaxAttempts);
    EXPECT_EQ(stats.actions_abandoned, abandons);
    const double expected = std::min(backoff, core::kActionBackoffMax);
    EXPECT_DOUBLE_EQ(engine.backoff_until(kind), now + expected)
        << "abandon #" << abandons;

    // Still backed off: no further attempts.
    engine.act(system, 0.9, cfg, stats);
    EXPECT_EQ(action->attempts(), abandons * core::kActionMaxAttempts);

    if (backoff >= core::kActionBackoffMax) ++capped;
    now += expected;
    backoff *= 2.0;
  }
  // 120 s doubling reaches the 3600 s cap on the sixth abandon.
  EXPECT_EQ(abandons, 7u);
  EXPECT_EQ(stats.action_retries,
            abandons * (core::kActionMaxAttempts - 1));
  EXPECT_EQ(stats.action_faults, abandons * core::kActionMaxAttempts);
}

// --- NaN / inf sanitization -------------------------------------------------

TEST(Resilience, FleetExcludesNonFiniteScoresFromTheReduce) {
  // NaN and +inf predictors beside the pressure oracle: the fleet must
  // raise exactly the warnings the oracle raises alone, and count every
  // non-finite score it excluded.
  auto run = [](bool with_non_finite) {
    runtime::FleetConfig cfg;
    cfg.mea.warning_threshold = 0.72;
    runtime::FleetController fleet(runtime::make_scp_fleet(sim_config(), 1),
                                   cfg);
    if (with_non_finite) {
      fleet.add_symptom_predictor(std::make_shared<ScriptedPredictor>(
          std::numeric_limits<double>::quiet_NaN(), 0.0, 1000000));
      fleet.add_symptom_predictor(std::make_shared<ScriptedPredictor>(
          std::numeric_limits<double>::infinity(), 0.0, 1000000));
    }
    fleet.add_symptom_predictor(
        std::make_shared<PressurePredictor>(pressure_index()));
    fleet.run();
    return fleet.telemetry();
  };
  const auto alone = run(false);
  const auto mixed = run(true);

  ASSERT_GT(alone.warnings_raised, 0u) << "scenario too tame to warn";
  EXPECT_EQ(mixed.warnings_raised, alone.warnings_raised);
  EXPECT_EQ(mixed.mea.actions_by_kind, alone.mea.actions_by_kind);
  EXPECT_EQ(alone.resilience.scores_sanitized, 0u);
  EXPECT_GT(mixed.resilience.scores_sanitized, 0u);
  // Everything the two extra predictors scored was non-finite.
  EXPECT_EQ(mixed.resilience.scores_sanitized,
            mixed.scores_computed - alone.scores_computed);
}

TEST(Resilience, InfScoresDoNotForceFleetWarnings) {
  // An always-inf predictor would warn on every round if +inf survived
  // the reduce; sanitized, it contributes nothing (and eventually trips).
  runtime::FleetConfig cfg;
  cfg.mea.warning_threshold = 0.72;
  runtime::FleetController fleet(runtime::make_scp_fleet(sim_config(), 2),
                                 cfg);
  fleet.add_symptom_predictor(std::make_shared<ScriptedPredictor>(
      std::numeric_limits<double>::infinity(), 0.0, 1000000));
  fleet.run_until(3600.0);

  const auto t = fleet.telemetry();
  EXPECT_EQ(t.warnings_raised, 0u);
  EXPECT_GT(t.resilience.scores_sanitized, 0u);
  EXPECT_GE(t.resilience.breaker_trips, 1u)
      << "a predictor that is always non-finite must trip its breaker";
}

}  // namespace
}  // namespace pfm
