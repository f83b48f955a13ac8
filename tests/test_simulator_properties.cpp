// Parameterized invariants of the SCP simulator across seeds: accounting
// identities and causal-structure properties that must hold for any run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "telecom/simulator.hpp"

namespace pfm::telecom {
namespace {

class SimulatorProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static SimConfig config(std::uint64_t seed) {
    SimConfig cfg;
    cfg.seed = seed;
    cfg.duration = 3.0 * 86400.0;
    return cfg;
  }
};

TEST_P(SimulatorProperty, AccountingIdentities) {
  ScpSimulator sim(config(GetParam()));
  sim.run();
  const auto& st = sim.stats();
  EXPECT_GE(st.availability(), 0.0);
  EXPECT_LE(st.availability(), 1.0);
  EXPECT_LE(st.violations, st.total_requests);
  EXPECT_EQ(static_cast<std::size_t>(st.failures),
            sim.failure_infos().size());
  EXPECT_EQ(static_cast<std::size_t>(st.failures),
            sim.trace().failures().size());
  // Downtime equals the sum of repair times (no overlapping repairs),
  // modulo tick quantization (downtime accrues in whole ticks, up to one
  // tick extra per failure) and the final repair possibly extending past
  // the horizon.
  double ttr_sum = 0.0;
  for (const auto& f : sim.failure_infos()) ttr_sum += f.repair_time;
  EXPECT_LE(st.downtime,
            ttr_sum + sim.config().tick * static_cast<double>(st.failures) +
                1.0);
  EXPECT_GE(st.downtime, ttr_sum - 1100.0);  // one truncated repair at most
}

TEST_P(SimulatorProperty, StreamsAreTimeOrderedAndBounded) {
  ScpSimulator sim(config(GetParam()));
  sim.run();
  const auto& trace = sim.trace();
  double prev = -1.0;
  for (const auto& s : trace.samples()) {
    EXPECT_GE(s.time, prev);
    EXPECT_LE(s.time, sim.config().duration + 1.0);
    ASSERT_EQ(s.values.size(), trace.schema().size());
    prev = s.time;
  }
  prev = -1.0;
  for (const auto& e : trace.events()) {
    EXPECT_GE(e.time, prev);
    prev = e.time;
    EXPECT_GE(e.severity, 1);
    EXPECT_LE(e.severity, 5);
    EXPECT_GE(e.component, 0);
    EXPECT_LT(static_cast<std::size_t>(e.component), sim.num_nodes());
  }
}

TEST_P(SimulatorProperty, SymptomValuesArePhysical) {
  ScpSimulator sim(config(GetParam()));
  sim.run();
  const auto& trace = sim.trace();
  const auto mem_idx = *trace.schema().index("free_mem_min_mb");
  const auto press_idx = *trace.schema().index("mem_pressure_max");
  const auto cpu_idx = *trace.schema().index("cpu_user");
  for (const auto& s : trace.samples()) {
    EXPECT_GE(s.values[mem_idx], 0.0);
    EXPECT_LE(s.values[mem_idx], sim.config().node_memory_mb);
    EXPECT_GE(s.values[press_idx], 0.0);
    EXPECT_LE(s.values[press_idx], 1.0);
    EXPECT_GE(s.values[cpu_idx], 0.0);
    EXPECT_LE(s.values[cpu_idx], 1.0);
  }
}

TEST_P(SimulatorProperty, FailuresHaveCausalPrecursors) {
  // Every leak-caused failure must be preceded by elevated memory
  // pressure, every cascade failure by cascade-signature events — the
  // Fig. 2 fault -> error/symptom -> failure chain.
  ScpSimulator sim(config(GetParam()));
  sim.run();
  const auto& trace = sim.trace();
  const auto press_idx = *trace.schema().index("mem_pressure_max");
  for (const auto& f : sim.failure_infos()) {
    if (f.cause == FailureCause::kMemoryLeak) {
      double peak = 0.0;
      for (const auto& s : trace.samples()) {
        if (s.time >= f.time - 900.0 && s.time <= f.time) {
          peak = std::max(peak, s.values[press_idx]);
        }
      }
      EXPECT_GT(peak, 0.75) << "leak failure at " << f.time
                            << " without memory-pressure symptom";
    } else if (f.cause == FailureCause::kCascade) {
      const auto events = trace.events_in(f.time - 3600.0, f.time);
      const bool has_signature = std::any_of(
          events.begin(), events.end(), [](const mon::ErrorEvent& e) {
            return e.event_id >= event_id::kCascadeStage1 &&
                   e.event_id <= event_id::kCascadeStage3;
          });
      EXPECT_TRUE(has_signature)
          << "cascade failure at " << f.time << " without cascade events";
    }
  }
}

TEST_P(SimulatorProperty, PreparedRunsNeverRepairSlower) {
  const auto cfg = config(GetParam());
  ScpSimulator plain(cfg);
  plain.run();
  ScpSimulator prepared(cfg);
  while (!prepared.finished()) {
    prepared.prepare_for_failure(4000.0);
    prepared.step_to(prepared.now() + 3600.0);
  }
  for (const auto& f : prepared.failure_infos()) {
    EXPECT_TRUE(f.prepared);
    // Warm reconfiguration plus bounded recomputation of a fresh
    // checkpoint: strictly below the cold floor.
    EXPECT_LT(f.repair_time, cfg.reconfig_cold);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorProperty,
                         ::testing::Values(1, 7, 42, 1234));

// Guards the simulator's law, not one stream: over a sweep of seeds the
// mean requests, violations, failures, downtime and error events of a
// leak-heavy one-day run must lie within three standard errors of
// reference means taken over 4000 seeds (500000-503999) of the same
// configuration. The standard errors use the reference sweep's standard
// deviations, which 4000 runs pin far better than this sweep's 200. A
// sampler rewrite that changes every stream but keeps the law passes; one
// that biases any of the five fails.
TEST_F(SimulatorProperty, SeedSweepMeansMatchTheReferenceLaw) {
  struct Quantity {
    const char* name;
    double mean;  // over the 4000 reference seeds
    double sd;    // per-run standard deviation over the same seeds
    double sum = 0.0;
  };
  Quantity q[] = {{"requests", 4987060.763, 60802.95},
                  {"violations", 32501.3915, 45563.29},
                  {"failures", 9.433, 2.8804},
                  {"downtime", 3685.85125, 1107.98},
                  {"events", 1611.24775, 100.924}};
  constexpr int kSeeds = 200;
  constexpr double kReferenceSeeds = 4000.0;
  for (int s = 0; s < kSeeds; ++s) {
    SimConfig cfg;
    cfg.seed = 600000 + static_cast<std::uint64_t>(s);
    cfg.duration = 86400.0;
    cfg.leak_mtbf = 43200.0;
    ScpSimulator sim(cfg);
    sim.run();
    const auto& st = sim.stats();
    const double v[] = {static_cast<double>(st.total_requests),
                        static_cast<double>(st.violations),
                        static_cast<double>(st.failures), st.downtime,
                        static_cast<double>(sim.trace().events().size())};
    for (std::size_t i = 0; i < std::size(q); ++i) q[i].sum += v[i];
  }
  for (const auto& x : q) {
    // Standard error of the difference of two independent sample means.
    const double se = x.sd * std::sqrt(1.0 / kSeeds + 1.0 / kReferenceSeeds);
    EXPECT_NEAR(x.sum / kSeeds, x.mean, 3.0 * se) << x.name;
  }
}

}  // namespace
}  // namespace pfm::telecom
