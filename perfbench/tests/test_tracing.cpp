// Tests of the benchmark's tracing decorators and workloads:
//  - each decorator forwards every virtual of its interface unchanged,
//    including scheduling_hint, prepare_for_drain and the arena-backed
//    score_batch overload;
//  - a traced run of each workload (shortened) has the untraced run's
//    fingerprint, at one and at two threads, and one positive round time
//    per epoch;
//  - spans record self time only, and the round clock closes rounds in
//    order, in fleet time for a joiner whose own clock starts at 0.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "tracing.hpp"
#include "workloads.hpp"

namespace {

using namespace pfm;
using perfbench::Ledger;

/// Records every call; returns distinctive values so forwarding of results
/// is visible too.
class FakeSystem final : public core::ManagedSystem {
 public:
  mutable std::vector<std::string> calls;

  std::string name() const override { return log("name"), "fake"; }
  double now() const override { return log("now"), 42.0; }
  double horizon() const override { return log("horizon"), 99.0; }
  bool finished() const override { return log("finished"), true; }
  void step_to(double t) override { log("step_to:" + std::to_string(t)); }
  const mon::MonitoringDataset& trace() const override {
    log("trace");
    return trace_;
  }
  core::SchedulingHint scheduling_hint() const override {
    log("scheduling_hint");
    return core::SchedulingHint{0.25};
  }
  std::size_t num_units() const override { return log("num_units"), 3; }
  core::UnitHealth unit_health(std::size_t unit) const override {
    log("unit_health:" + std::to_string(unit));
    core::UnitHealth h;
    h.memory_pressure = 0.5;
    return h;
  }
  double offered_load() const override { return log("offered_load"), 7.0; }
  double unit_capacity() const override { return log("unit_capacity"), 8.0; }
  bool service_down() const override { return log("service_down"), true; }
  void restart_unit(std::size_t unit) override {
    log("restart_unit:" + std::to_string(unit));
  }
  void shed_load(double fraction, double duration) override {
    log("shed_load:" + std::to_string(fraction) + "," + std::to_string(duration));
  }
  void checkpoint() override { log("checkpoint"); }
  void prepare_for_failure(double window) override {
    log("prepare_for_failure:" + std::to_string(window));
  }
  void prepare_for_drain() override { log("prepare_for_drain"); }
  core::SystemStats system_stats() const override {
    log("system_stats");
    core::SystemStats s;
    s.failures = 5;
    return s;
  }

 private:
  void log(const std::string& call) const { calls.push_back(call); }
  mon::MonitoringDataset trace_;
};

TEST(TracedSystem, ForwardsEveryVirtual) {
  auto fake = std::make_unique<FakeSystem>();
  FakeSystem* inner = fake.get();
  Ledger ledger(0);
  perfbench::RoundClock clock(60.0, 600.0);
  perfbench::TracedSystem traced(std::move(fake), &ledger, &clock);

  EXPECT_EQ(traced.name(), "fake");
  EXPECT_EQ(traced.now(), 42.0);
  EXPECT_EQ(traced.horizon(), 99.0);
  EXPECT_TRUE(traced.finished());
  traced.step_to(120.0);
  EXPECT_EQ(&traced.trace(), &inner->trace());
  EXPECT_EQ(traced.scheduling_hint().urgency, 0.25);
  EXPECT_EQ(traced.num_units(), 3u);
  EXPECT_EQ(traced.unit_health(2).memory_pressure, 0.5);
  EXPECT_EQ(traced.offered_load(), 7.0);
  EXPECT_EQ(traced.unit_capacity(), 8.0);
  EXPECT_TRUE(traced.service_down());
  traced.restart_unit(1);
  traced.shed_load(0.5, 30.0);
  traced.checkpoint();
  traced.prepare_for_failure(900.0);
  traced.prepare_for_drain();
  EXPECT_EQ(traced.system_stats().failures, 5);

  const std::vector<std::string> expected = {
      "name", "now", "horizon", "finished", "step_to:120.000000", "trace",
      "trace", "scheduling_hint", "num_units", "unit_health:2",
      "offered_load", "unit_capacity", "service_down", "restart_unit:1",
      "shed_load:0.500000,30.000000", "checkpoint",
      "prepare_for_failure:900.000000", "prepare_for_drain", "system_stats"};
  EXPECT_EQ(inner->calls, expected);
  EXPECT_EQ(ledger.total(Ledger::kStep).calls, 1u);
  EXPECT_EQ(ledger.total(Ledger::kHooks).calls, 5u);
}

/// Symptom predictor that reports which entry point ran.
class FakeSymptom final : public pred::SymptomPredictor {
 public:
  mutable std::vector<std::string> calls;
  std::string name() const override { return "fake-symptom"; }
  void train(const mon::MonitoringDataset&) override {}
  double score(const pred::SymptomContext&) const override {
    calls.push_back("score");
    return 0.25;
  }
  void score_batch(std::span<const pred::SymptomContext> contexts,
                   std::span<double> out) const override {
    calls.push_back("batch2");
    for (std::size_t i = 0; i < contexts.size(); ++i) out[i] = 0.5;
  }
  void score_batch(std::span<const pred::SymptomContext> contexts,
                   std::span<double> out,
                   pred::BatchScratch& scratch) const override {
    calls.push_back("batch3");
    scratch.features.assign(1, 7.0);
    for (std::size_t i = 0; i < contexts.size(); ++i) out[i] = 0.75;
    if (!contexts.empty()) out[0] = std::numeric_limits<double>::quiet_NaN();
  }
};

class FakeEvent final : public pred::EventPredictor {
 public:
  mutable std::vector<std::string> calls;
  std::string name() const override { return "fake-event"; }
  void train(std::span<const mon::ErrorSequence>,
             std::span<const mon::ErrorSequence>) override {}
  double score(const mon::ErrorSequence&) const override {
    calls.push_back("score");
    return 0.125;
  }
  void score_batch(std::span<const mon::ErrorSequence> sequences,
                   std::span<double> out) const override {
    calls.push_back("batch2");
    for (std::size_t i = 0; i < sequences.size(); ++i) out[i] = 0.5;
  }
  void score_batch(std::span<const mon::ErrorSequence>,
                   std::span<double>, pred::BatchScratch&) const override {
    calls.push_back("batch3");
    throw std::runtime_error("batch3 failed");
  }
};

TEST(TracedPredictors, ForwardEveryScoringEntryPoint) {
  Ledger ledger(2);
  auto symptom = std::make_shared<FakeSymptom>();
  perfbench::TracedSymptomPredictor ts(symptom, &ledger, 0);
  std::vector<pred::SymptomContext> contexts(3);
  std::vector<double> out(3);
  pred::BatchScratch scratch;

  EXPECT_EQ(ts.name(), "fake-symptom");
  EXPECT_EQ(ts.score(contexts[0]), 0.25);
  ts.score_batch(contexts, out);
  EXPECT_EQ(out[2], 0.5);
  ts.score_batch(contexts, out, scratch);
  EXPECT_TRUE(std::isnan(out[0]));
  EXPECT_EQ(out[2], 0.75);
  EXPECT_EQ(scratch.features.at(0), 7.0);  // the caller's arena reached it
  EXPECT_EQ(symptom->calls,
            (std::vector<std::string>{"score", "batch2", "batch3"}));
  const auto s = ledger.total(Ledger::kFirstPredictor + 0);
  EXPECT_EQ(s.calls, 3u);
  EXPECT_EQ(s.items, 7u);
  EXPECT_EQ(s.faults, 1u);  // the NaN batch

  auto event = std::make_shared<FakeEvent>();
  perfbench::TracedEventPredictor te(event, &ledger, 1);
  std::vector<mon::ErrorSequence> sequences(2);
  EXPECT_EQ(te.name(), "fake-event");
  EXPECT_EQ(te.score(sequences[0]), 0.125);
  te.score_batch(sequences, std::span<double>(out).first(2));
  EXPECT_THROW(te.score_batch(sequences, std::span<double>(out).first(2), scratch),
               std::runtime_error);
  EXPECT_EQ(event->calls,
            (std::vector<std::string>{"score", "batch2", "batch3"}));
  const auto e = ledger.total(Ledger::kFirstPredictor + 1);
  EXPECT_EQ(e.calls, 3u);
  EXPECT_EQ(e.faults, 1u);  // the throwing batch

  EXPECT_THROW(ts.train(mon::MonitoringDataset{}), std::logic_error);
}

class FakeAction final : public act::Action {
 public:
  std::vector<std::string> calls;
  std::string name() const override { return "fake-action"; }
  act::ActionKind kind() const override { return act::ActionKind::kLoadLowering; }
  const act::ActionProperties& properties() const override { return props_; }
  bool applicable(const core::ManagedSystem&) const override { return true; }
  void execute(core::ManagedSystem& system, double confidence) override {
    calls.push_back("execute:" + std::to_string(confidence));
    system.checkpoint();  // a hook call nested inside the action
    if (confidence > 0.9) throw std::runtime_error("actuator failed");
  }

 private:
  act::ActionProperties props_{3.0, 0.4, 2.0};
};

TEST(TracedAction, ForwardsAndCountsFaultsWithSelfTime) {
  Ledger ledger(0);
  auto fake = std::make_unique<FakeAction>();
  FakeAction* inner = fake.get();
  perfbench::TracedAction traced(std::move(fake), &ledger);
  perfbench::TracedSystem system(std::make_unique<FakeSystem>(), &ledger,
                                 nullptr);

  EXPECT_EQ(traced.name(), "fake-action");
  EXPECT_EQ(traced.kind(), act::ActionKind::kLoadLowering);
  EXPECT_EQ(traced.properties().cost, 3.0);
  EXPECT_TRUE(traced.applicable(system));
  traced.execute(system, 0.5);
  EXPECT_THROW(traced.execute(system, 0.95), std::runtime_error);
  EXPECT_EQ(inner->calls.size(), 2u);

  EXPECT_EQ(ledger.total(Ledger::kAct).calls, 2u);
  EXPECT_EQ(ledger.total(Ledger::kAct).faults, 1u);
  // The checkpoints ran inside execute(): their time is the action's.
  EXPECT_EQ(ledger.total(Ledger::kHooks).calls, 0u);
}

TEST(RoundClock, ClosesRoundsInOrder) {
  perfbench::RoundClock clock(240.0, 960.0);
  clock.mark(60.0);    // round 0
  clock.mark(240.0);   // still round 0: the step that ends tick 3
  clock.mark(300.0);   // round 1
  clock.mark(960.0);   // round 3 (round 2 saw no step)
  clock.mark(600.0);   // round 2, late: a lagging node stamps nothing
  const auto rounds = clock.round_ms(perfbench::process_cpu_ns());
  ASSERT_EQ(rounds.size(), 3u);
  for (double ms : rounds) EXPECT_GE(ms, 0.0);
}

TEST(RoundClock, JoinerMarksInFleetTime) {
  perfbench::RoundClock clock(240.0, 960.0);
  // Joined at fleet time 480: its step to own time 60 lies in round 2 (on
  // its own clock it would be round 0, already stamped below).
  perfbench::TracedSystem joiner(std::make_unique<FakeSystem>(), nullptr,
                                 &clock, 480.0);
  clock.mark(60.0);  // round 0
  joiner.step_to(60.0);
  EXPECT_EQ(clock.round_ms(perfbench::process_cpu_ns()).size(), 2u);
}

/// The ensemble is trained once for all workload tests.
const perfbench::Ensemble& ensemble() {
  static const perfbench::Ensemble e = [] {
    perfbench::SetupTimes times;
    return perfbench::train_ensemble(&times);
  }();
  return e;
}

TEST(Workloads, TracedFingerprintEqualsUntraced) {
  for (const char* name : {"dense_ensemble", "score_heavy", "churn_faults"}) {
    SCOPED_TRACE(name);
    const auto w = perfbench::make_workload(name, 7, /*shortened=*/true);
    const auto plain = perfbench::run_workload(w, ensemble(), 1, false);
    ASSERT_TRUE(plain.complete) << plain.error;
    EXPECT_GT(plain.fingerprint.node_steps, 0u);
    // Every epoch of a dense schedule steps a node; an adaptive one may
    // leave some epochs without a step.
    if (w.fleet.schedule.adaptive) {
      EXPECT_LE(plain.round_ms.size(), plain.fingerprint.epochs);
    } else {
      EXPECT_EQ(plain.round_ms.size(), plain.fingerprint.epochs);
    }
    for (double ms : plain.round_ms) EXPECT_GT(ms, 0.0);
    for (std::size_t threads : {1u, 2u}) {
      const auto traced = perfbench::run_workload(w, ensemble(), threads, true);
      ASSERT_TRUE(traced.complete) << traced.error;
      EXPECT_EQ(traced.fingerprint, plain.fingerprint)
          << traced.fingerprint.to_json() << " vs "
          << plain.fingerprint.to_json();
      EXPECT_EQ(traced.layers.step.calls, plain.fingerprint.node_steps);
    }
  }
}

TEST(Workloads, ChurnFaultsExercisesEveryFaultPath) {
  const auto w = perfbench::make_workload("churn_faults", 7, true);
  const auto r = perfbench::run_workload(w, ensemble(), 1, true);
  ASSERT_TRUE(r.complete) << r.error;
  EXPECT_GT(r.telemetry.membership.nodes_joined, 0u);
  EXPECT_GT(r.layers.act.faults, 0u);
  EXPECT_GT(r.telemetry.resilience.breaker_trips, 0u);
  EXPECT_GT(r.telemetry.resilience.stall_detections, 0u);
  EXPECT_EQ(r.telemetry.resilience.nodes_quarantined, 2u);  // crash + hang
  EXPECT_GT(r.faults_injected, 0u);
}

// Stepping with run_until is results-neutral under a dense schedule (so
// dense_ensemble may step one interval at a time) but not under the
// adaptive one: each run_until call caps every node's next step at its
// end time and re-activates the nodes that reached it, which changes the
// visit pattern (see README.md, "Why the adaptive workload calls run()
// once").
TEST(Workloads, SteppingIsNeutralOnlyWhenDense) {
  auto dense = perfbench::make_workload("dense_ensemble", 7, true);
  ASSERT_TRUE(dense.stepped);
  const auto stepped = perfbench::run_workload(dense, ensemble(), 1, false);
  dense.stepped = false;
  const auto once = perfbench::run_workload(dense, ensemble(), 1, false);
  EXPECT_EQ(stepped.fingerprint, once.fingerprint);

  auto churn = perfbench::make_workload("churn_faults", 7, true);
  ASSERT_FALSE(churn.stepped);
  const auto single = perfbench::run_workload(churn, ensemble(), 1, false);
  churn.stepped = true;
  const auto chunked = perfbench::run_workload(churn, ensemble(), 1, false);
  ASSERT_TRUE(chunked.complete) << chunked.error;
  EXPECT_NE(chunked.fingerprint.node_steps, single.fingerprint.node_steps);
}

TEST(Workloads, UnknownNameIsRejected) {
  EXPECT_THROW(perfbench::make_workload("nope", 1), std::invalid_argument);
}

}  // namespace
