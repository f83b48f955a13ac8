// E13 (extension) — control-loop stability of the MEA cycle. Sect. 2:
// "both loops in fact are control loops ... aspects such as stability and
// the occurrence of oscillations should be checked". We sweep the
// controller's action-cooldown (damping) on a leak-heavy platform with an
// aggressive warning threshold: no damping lets the loop thrash the
// replicas with preventive restarts, too much damping reacts too slowly —
// availability peaks at moderate damping.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "runtime/fleet.hpp"
#include "runtime/scp_system.hpp"

namespace {

using namespace pfm;

/// Warns on the worst node's memory pressure (oracle-style, to isolate
/// controller dynamics from predictor quality).
class PressurePredictor final : public pred::SymptomPredictor {
 public:
  explicit PressurePredictor(std::size_t index) : index_(index) {}
  std::string name() const override { return "pressure"; }
  void train(const mon::MonitoringDataset&) override {}
  double score(const pred::SymptomContext& ctx) const override {
    return ctx.history.back().values.at(index_);
  }

 private:
  std::size_t index_;
};

/// The MEA loop over `sim` alone: a one-node fleet borrowing the
/// simulator, so its statistics stay readable after the run.
std::unique_ptr<runtime::FleetController> one_node(telecom::ScpSimulator& sim,
                                                   const core::MeaConfig& mc) {
  std::vector<std::unique_ptr<core::ManagedSystem>> nodes;
  nodes.push_back(std::make_unique<runtime::ScpManagedSystem>(sim));
  runtime::FleetConfig fc;
  fc.mea = mc;
  return std::make_unique<runtime::FleetController>(std::move(nodes), fc);
}

telecom::SimConfig leaky_config() {
  telecom::SimConfig cfg;
  cfg.seed = 77;
  cfg.duration = 7.0 * 86400.0;
  cfg.leak_mtbf = 43200.0;  // frequent leaks on all nodes
  cfg.cascade_mtbf = 1e12;
  cfg.spike_mtbf = 1e12;
  return cfg;
}

void run_with_cooldown(double cooldown) {
  telecom::ScpSimulator sim(leaky_config());
  const auto idx = *sim.trace().schema().index("mem_pressure_max");

  core::MeaConfig mc;
  mc.evaluation_interval = 60.0;
  mc.warning_threshold = 0.70;
  mc.action_cooldown = cooldown;
  mc.enable_minimization = false;  // isolate the avoidance loop
  auto mea = one_node(sim, mc);
  mea->add_symptom_predictor(std::make_shared<PressurePredictor>(idx));
  mea->add_action(
      [] { return std::make_unique<act::StateCleanupAction>(0.68); });
  mea->run();

  std::printf("  %-12.0f %-10.6f %-9lld %-10lld %-9zu\n", cooldown,
              sim.stats().availability(),
              static_cast<long long>(sim.stats().failures),
              static_cast<long long>(sim.stats().preventive_restarts),
              mea->node_mea_stats(0).warnings);
}

void print_experiment() {
  std::printf("== E13 (extension): MEA control-loop damping sweep ==\n");
  std::printf("(Sect. 2: stability/oscillation must be checked; the\n"
              "action cooldown is the loop's damping term)\n\n");
  std::printf("  %-12s %-10s %-9s %-10s %-9s\n", "cooldown [s]", "avail",
              "failures", "restarts", "warnings");
  for (double cooldown : {0.0, 60.0, 600.0, 3600.0, 21600.0, 86400.0}) {
    run_with_cooldown(cooldown);
  }
  // Reference: no PFM at all.
  telecom::ScpSimulator plain(leaky_config());
  plain.run();
  std::printf("  %-12s %-10.6f %-9lld %-10s %-9s\n", "(no PFM)",
              plain.stats().availability(),
              static_cast<long long>(plain.stats().failures), "-", "-");
  std::printf("\n");
}

void BM_ControllerDay(benchmark::State& state) {
  for (auto _ : state) {
    telecom::SimConfig cfg = leaky_config();
    cfg.duration = 86400.0;
    telecom::ScpSimulator sim(cfg);
    const auto idx = *sim.trace().schema().index("mem_pressure_max");
    auto mea = one_node(sim, core::MeaConfig{});
    mea->add_symptom_predictor(std::make_shared<PressurePredictor>(idx));
    mea->add_action([] { return std::make_unique<act::StateCleanupAction>(); });
    mea->run();
    benchmark::DoNotOptimize(mea->node_mea_stats(0).evaluations);
  }
}
BENCHMARK(BM_ControllerDay)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
