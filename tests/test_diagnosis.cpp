#include "core/diagnosis.hpp"

#include <gtest/gtest.h>

#include "runtime/scp_system.hpp"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace pfm::core {
namespace {

telecom::SimConfig quiet_config() {
  telecom::SimConfig cfg;
  cfg.duration = 6.0 * 3600.0;
  cfg.leak_mtbf = 1e12;
  cfg.cascade_mtbf = 1e12;
  cfg.spike_mtbf = 1e12;
  cfg.noise_event_rate = 1e-12;
  cfg.lookalike_event_rate = 1e-12;
  return cfg;
}

/// A fixed snapshot: the trace and per-unit health are set by the test.
class SnapshotSystem : public ManagedSystem {
 public:
  SnapshotSystem(double now, std::vector<UnitHealth> units)
      : now_(now), units_(std::move(units)),
        trace_(mon::SymptomSchema({"x"})) {}
  void report(double t, std::int32_t unit) {
    trace_.add_event(mon::ErrorEvent{t, 101, unit, 3});
  }

  std::string name() const override { return "snapshot"; }
  double now() const override { return now_; }
  double horizon() const override { return now_; }
  bool finished() const override { return true; }
  void step_to(double) override {}
  const mon::MonitoringDataset& trace() const override { return trace_; }
  std::size_t num_units() const override { return units_.size(); }
  UnitHealth unit_health(std::size_t unit) const override {
    return units_.at(unit);
  }
  double offered_load() const override { return 0.0; }
  double unit_capacity() const override { return 1.0; }
  bool service_down() const override { return false; }
  void restart_unit(std::size_t) override {}
  void shed_load(double, double) override {}
  void checkpoint() override {}
  void prepare_for_failure(double) override {}
  SystemStats system_stats() const override { return {}; }

 private:
  double now_;
  std::vector<UnitHealth> units_;
  mon::MonitoringDataset trace_;
};

TEST(Diagnoser, ReportsFromBeforeARepairAreIgnored) {
  UnitHealth repaired;
  repaired.up_since = 500.0;
  SnapshotSystem system(800.0, {repaired, UnitHealth{}});
  for (double t = 100.0; t < 500.0; t += 50.0) system.report(t, 0);
  system.report(600.0, 1);
  Diagnoser d;
  const auto suspects = d.diagnose(system);
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_EQ(suspects.front().component, 1);
}

TEST(Diagnoser, PressureBeyondTheThresholdIsSuspiciousOnItsOwn) {
  UnitHealth pressured;
  pressured.memory_pressure = 0.72;  // just past the default 0.70
  SnapshotSystem system(800.0, {UnitHealth{}, pressured});
  Diagnoser d;
  const auto suspects = d.diagnose(system);
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_EQ(suspects.front().component, 1);
  EXPECT_NE(suspects.front().evidence.find("memory pressure"),
            std::string::npos);
}

TEST(Diagnoser, ConfigValidation) {
  Diagnoser::Config cfg;
  cfg.evidence_window = 0.0;
  EXPECT_THROW(Diagnoser{cfg}, std::invalid_argument);
}

TEST(Diagnoser, HealthySystemHasNoSuspects) {
  telecom::ScpSimulator sim(quiet_config());
  runtime::ScpManagedSystem system(sim);
  sim.step_to(3600.0);
  Diagnoser d;
  EXPECT_TRUE(d.diagnose(system).empty());
  EXPECT_EQ(d.prime_suspect(system), -1);
}

TEST(Diagnoser, LeakingNodeBecomesPrimeSuspect) {
  telecom::SimConfig cfg = quiet_config();
  cfg.leak_mtbf = 1.0;  // every node leaks, but at different rates
  cfg.leak_min_rate = 0.05;
  cfg.leak_max_rate = 0.4;
  telecom::ScpSimulator sim(cfg);
  sim.step_to(4.0 * 3600.0);
  // Find the node with the worst pressure.
  std::size_t worst = 0;
  double worst_pressure = 0.0;
  for (std::size_t i = 0; i < sim.num_nodes(); ++i) {
    if (sim.node(i).memory_pressure() > worst_pressure) {
      worst_pressure = sim.node(i).memory_pressure();
      worst = i;
    }
  }
  ASSERT_GT(worst_pressure, 0.70) << "test premise: some node under pressure";
  runtime::ScpManagedSystem system(sim);
  Diagnoser d;
  const auto suspects = d.diagnose(system);
  ASSERT_FALSE(suspects.empty());
  EXPECT_EQ(suspects.front().component, static_cast<std::int32_t>(worst));
  EXPECT_NE(suspects.front().evidence.find("memory pressure"),
            std::string::npos);
}

TEST(Diagnoser, CascadingNodeIsFlaggedWithEvidence) {
  telecom::SimConfig cfg = quiet_config();
  cfg.cascade_mtbf = 400.0;  // one node will start cascading soon
  telecom::ScpSimulator sim(cfg);
  // Step until some node is in a cascade.
  while (!sim.finished()) {
    sim.step_to(sim.now() + 60.0);
    bool any = false;
    for (std::size_t i = 0; i < sim.num_nodes(); ++i) {
      any |= sim.node(i).cascade_stage() >= 1;
    }
    if (any) break;
  }
  runtime::ScpManagedSystem system(sim);
  Diagnoser d;
  const auto suspects = d.diagnose(system);
  ASSERT_FALSE(suspects.empty());
  bool cascade_flagged = false;
  for (const auto& s : suspects) {
    if (s.evidence.find("cascade") != std::string::npos) {
      cascade_flagged = true;
      EXPECT_GE(s.component, 0);
    }
  }
  EXPECT_TRUE(cascade_flagged);
}

TEST(Diagnoser, OverloadIsSystemWideNotComponent) {
  telecom::SimConfig cfg = quiet_config();
  cfg.arrival_rate = 150.0;  // well beyond 4 x 30 capacity at peak
  telecom::ScpSimulator sim(cfg);
  sim.step_to(12.0 * 3600.0);  // midday peak
  runtime::ScpManagedSystem system(sim);
  Diagnoser d;
  const auto suspects = d.diagnose(system);
  bool system_wide = false;
  for (const auto& s : suspects) {
    if (s.component == -1) {
      system_wide = true;
      EXPECT_NE(s.evidence.find("offered load"), std::string::npos);
    }
  }
  EXPECT_TRUE(system_wide);
}

TEST(Diagnoser, SuspicionsSortedAndBounded) {
  telecom::SimConfig cfg = quiet_config();
  cfg.leak_mtbf = 1.0;
  cfg.cascade_mtbf = 600.0;
  cfg.noise_event_rate = 1.0 / 300.0;
  telecom::ScpSimulator sim(cfg);
  sim.step_to(3.0 * 3600.0);
  runtime::ScpManagedSystem system(sim);
  Diagnoser d;
  const auto suspects = d.diagnose(system);
  for (std::size_t i = 0; i < suspects.size(); ++i) {
    EXPECT_GE(suspects[i].score, 0.0);
    EXPECT_LE(suspects[i].score, 1.0);
    if (i > 0) {
      EXPECT_LE(suspects[i].score, suspects[i - 1].score);
    }
  }
}

}  // namespace
}  // namespace pfm::core
