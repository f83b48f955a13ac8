// E15 (extension) — fleet availability under injected component faults.
// Sweeps a fault-rate knob that scales a deterministic FaultPlan (dropped
// samples, NaN/throwing predictors, flaky actions, plus a scripted crash
// and hang at the higher rates) over an 8-node fleet. The hardened loop
// quarantines/retries/trips its way to the horizon. The fail-fast column
// shows what a loop without that hardening would have done: it is
// bit-identical to the hardened loop until the first fault that raises an
// exception (a crash, a predictor throw or an action failure), and stops
// there. The bench advances the same fleet one evaluation interval at a
// time and reports the rounds completed when that first fault fires — the
// availability gap between the two columns is the value of the
// dependability layer. One JSON line per configuration (scrapeable via
// the {"bench":"fault_injection",...} prefix); a fail-fast row carries only
// its rounds, plus the availability when it ran to the horizon.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "injection/injector.hpp"
#include "runtime/fleet.hpp"
#include "runtime/scp_system.hpp"

namespace {

using namespace pfm;

constexpr std::size_t kFleetNodes = 8;
constexpr double kDuration = 0.5 * 86400.0;
constexpr double kInterval = 60.0;

telecom::SimConfig fleet_base_config() {
  telecom::SimConfig cfg;
  cfg.seed = 77;
  cfg.duration = kDuration;
  cfg.leak_mtbf = 21600.0;  // leak-heavy: plenty of warnings to act on
  return cfg;
}

/// Memory-pressure oracle: the bench measures runtime dependability, not
/// prediction quality, so the predictor is a trivially cheap direct read.
class PressurePredictor final : public pred::SymptomPredictor {
 public:
  explicit PressurePredictor(std::size_t pressure_index)
      : index_(pressure_index) {}
  std::string name() const override { return "pressure-oracle"; }
  void train(const mon::MonitoringDataset&) override {}
  double score(const pred::SymptomContext& ctx) const override {
    return ctx.history.back().values.at(index_);
  }

 private:
  std::size_t index_;
};

std::size_t pressure_index() {
  telecom::ScpSimulator sim(fleet_base_config());
  return *sim.trace().schema().index("mem_pressure_max");
}

/// Scales one deterministic fault scenario by `rate` in [0,1]. rate=0 is
/// the empty plan; higher rates add probabilistic faults on every
/// component plus a scripted crash (rate >= 0.05) and hang (rate >= 0.1).
inj::FaultPlan make_plan(double rate) {
  inj::FaultPlan plan;
  plan.seed = 424242;
  plan.default_node.drop_sample_p = 0.5 * rate;
  plan.default_predictor.throw_p = 0.25 * rate;
  plan.default_predictor.nan_p = 0.25 * rate;
  plan.default_action.fail_p = std::min(0.8, 4.0 * rate);
  plan.default_action.partial_p = rate;
  // Explicit node entries replace the default spec, so re-apply it.
  if (rate >= 0.05) {
    plan.nodes[1] = plan.default_node;
    plan.nodes[1].crash_at = 0.25 * kDuration;
  }
  if (rate >= 0.10) {
    plan.nodes[2] = plan.default_node;
    plan.nodes[2].hang_at = 0.5 * kDuration;
    plan.nodes[2].hang_steps = 10;
  }
  return plan;
}

struct ArmResult {
  bool completed = false;
  runtime::FleetTelemetry telemetry;
  inj::InjectionStats injected;
};

/// The hardened arm runs the fleet to its horizon. The fail-fast arm
/// advances the same fleet one interval at a time and stops after the
/// first interval in which a fault raised an exception (a node crash, a
/// predictor throw or an action failure): up to that fault a loop without
/// the hardening would have run bit-identically, and there it would stop.
ArmResult run_arm(double rate, bool hardened) {
  inj::FaultInjector injector(make_plan(rate));

  runtime::FleetConfig cfg;
  cfg.mea.evaluation_interval = kInterval;
  cfg.mea.warning_threshold = 0.72;
  cfg.num_threads = 4;

  runtime::FleetController fleet(
      injector.wrap_fleet(runtime::make_scp_fleet(fleet_base_config(),
                                                  kFleetNodes)),
      cfg);
  fleet.add_symptom_predictor(injector.wrap_symptom_predictor(
      0, std::make_shared<PressurePredictor>(pressure_index())));
  fleet.add_action(injector.wrap_action_factory(0, [] {
    return std::make_unique<act::StateCleanupAction>(0.70);
  }));
  fleet.add_action(injector.wrap_action_factory(1, [] {
    return std::make_unique<act::PreparedRepairAction>(900.0);
  }));

  ArmResult out;
  if (hardened) {
    fleet.run();
    out.completed = true;
  } else {
    for (double t = kInterval;; t += kInterval) {
      fleet.run_until(t);
      const auto injected = injector.stats();
      if (injected.node_crashes + injected.predictor_throws +
              injected.action_failures > 0) {
        break;
      }
      if (t >= kDuration) {
        out.completed = true;
        break;
      }
    }
  }
  out.telemetry = fleet.telemetry();
  out.injected = injector.stats();
  return out;
}

void print_experiment() {
  std::printf("== E15 (extension): fleet availability vs injected fault "
              "rate ==\n");
  std::printf("(%zu nodes x %.1f day(s); hardened = quarantine + retry + "
              "circuit breakers, fail-fast = stops at the first fault that "
              "raises)\n\n",
              kFleetNodes, kDuration / 86400.0);
  std::printf("  %-6s %-10s %-10s %-13s %-10s %-12s %-10s %s\n", "rate",
              "arm", "completed", "availability", "coverage", "quarantined",
              "injected", "outcome");

  for (double rate : {0.0, 0.02, 0.05, 0.1, 0.2}) {
    for (bool hardened : {true, false}) {
      const auto r = run_arm(rate, hardened);
      const auto& t = r.telemetry;
      const double coverage =
          t.system.simulated / (static_cast<double>(kFleetNodes) * kDuration);
      char availability[32] = "-";
      if (r.completed) {
        std::snprintf(availability, sizeof availability, "%.6f",
                      t.system.availability());
      }
      char outcome[48] = "ran to horizon";
      if (!r.completed) {
        std::snprintf(outcome, sizeof outcome, "stops after %zu rounds",
                      t.rounds);
      }
      if (hardened) {
        std::printf("  %-6.2f %-10s %-10s %-13s %-10.4f %-12zu %-10zu %s\n",
                    rate, "hardened", "yes", availability, coverage,
                    t.resilience.nodes_quarantined, r.injected.total(),
                    outcome);
      } else {
        std::printf("  %-6.2f %-10s %-10s %-13s %-10s %-12s %-10s %s\n",
                    rate, "fail-fast", r.completed ? "yes" : "no",
                    availability, "-", "-", "-", outcome);
      }
      // A fail-fast row keeps only what a run cut off at its first fault
      // still means: its rounds, and its availability if it completed.
      bench::JsonLine row;
      row.field("bench", "fault_injection")
          .field("fault_rate", rate)
          .field("hardened", static_cast<std::size_t>(hardened ? 1 : 0))
          .field("completed", static_cast<std::size_t>(r.completed ? 1 : 0));
      if (r.completed) row.field("availability", t.system.availability());
      if (hardened) row.field("coverage", coverage);
      row.field("rounds", t.rounds);
      if (hardened) {
        row.field("warnings", t.warnings_raised)
            .field("actions", t.mea.total_actions())
            .field("nodes_quarantined", t.resilience.nodes_quarantined)
            .field("breaker_trips", t.resilience.breaker_trips)
            .field("scores_sanitized", t.resilience.scores_sanitized)
            .field("action_faults", t.mea.action_faults)
            .field("action_retries", t.mea.action_retries)
            .field("actions_abandoned", t.mea.actions_abandoned)
            .field("injected_total", r.injected.total())
            .field("injected_crashes", r.injected.node_crashes)
            .field("injected_hangs", r.injected.node_hangs)
            .field("injected_samples_dropped", r.injected.samples_dropped)
            .field("injected_predictor_faults",
                   r.injected.predictor_throws + r.injected.predictor_nans)
            .field("injected_action_failures", r.injected.action_failures);
      }
      row.emit();
    }
  }
  std::printf("\n(hardened coverage degrades gracefully with the rate — "
              "only quarantined nodes stop accumulating simulated time; "
              "fail-fast loses the whole remaining fleet on the first "
              "fault)\n\n");
}

/// Per-round cost of the fleet loop on a fault-free fleet, where none of
/// the hardening (per-stage fault capture, breaker bookkeeping, finite
/// checks) ever engages.
void BM_FleetRound(benchmark::State& state) {
  auto cfg_base = fleet_base_config();
  cfg_base.duration = 14.0 * 86400.0;  // never exhausted by the timing loop
  runtime::FleetConfig cfg;
  cfg.mea.evaluation_interval = kInterval;
  cfg.mea.warning_threshold = 0.72;
  cfg.num_threads = 1;
  runtime::FleetController fleet(runtime::make_scp_fleet(cfg_base, kFleetNodes),
                                 cfg);
  fleet.add_symptom_predictor(
      std::make_shared<PressurePredictor>(pressure_index()));
  double t = 0.0;
  for (auto _ : state) {
    t += kInterval;
    fleet.run_until(t);
    benchmark::DoNotOptimize(fleet.telemetry().rounds);
  }
}
BENCHMARK(BM_FleetRound)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
