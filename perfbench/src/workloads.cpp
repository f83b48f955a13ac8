#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <stdexcept>

#include "injection/injector.hpp"
#include "obs/observability.hpp"
#include "prediction/baselines.hpp"
#include "prediction/hsmm.hpp"
#include "prediction/ubf.hpp"
#include "probes.hpp"
#include "runtime/scp_system.hpp"
#include "telecom/simulator.hpp"

namespace pfm::perfbench {

namespace {

constexpr double kDay = 86400.0;

// Training trace: fixed seed and length, independent of the workload
// seed, so every workload seed runs against the same trained ensemble.
constexpr std::uint64_t kTrainSeed = 5;
constexpr double kTrainDays = 4.0;

pred::WindowGeometry windows() { return {600.0, 300.0, 300.0}; }

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64 finalizer: independent seed streams for the fleet, the fault
/// plan and the membership plan from one workload seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Four-unit SCP node with a leak every 12 h on average: plenty of
/// warnings and actions, and a simulator tick of 1 s.
telecom::SimConfig leak_heavy_node(std::uint64_t seed, double duration) {
  telecom::SimConfig cfg;
  cfg.seed = seed;
  cfg.duration = duration;
  cfg.leak_mtbf = 43200.0;
  return cfg;
}

/// Cheap single-unit node: 30 s tick, light load, sparse noise, so the
/// per-visit Evaluate cost (240-sample contexts over five predictors)
/// outweighs the simulator step.
telecom::SimConfig single_unit_node(std::uint64_t seed, double duration) {
  telecom::SimConfig cfg;
  cfg.seed = seed;
  cfg.duration = duration;
  cfg.tick = 30.0;
  cfg.num_nodes = 1;
  cfg.arrival_rate = 6.0;
  cfg.node_capacity = 30.0;
  cfg.noise_event_rate = 1.0 / 7200.0;
  cfg.lookalike_event_rate = 1.0 / 14400.0;
  return cfg;
}

runtime::FleetConfig event_driven(double interval, std::size_t shards,
                                  std::size_t epoch_ticks) {
  runtime::FleetConfig cfg;
  cfg.mea.windows = windows();
  cfg.mea.evaluation_interval = interval;
  cfg.mea.warning_threshold = 0.6;
  cfg.scheduler = runtime::FleetScheduler::kEventDriven;
  cfg.num_shards = shards;
  cfg.epoch_ticks = epoch_ticks;
  return cfg;
}

Workload dense_ensemble(std::uint64_t seed, bool shortened) {
  Workload w;
  w.name = "dense_ensemble";
  w.nodes = 16;
  w.node = leak_heavy_node(mix(seed, 0), (shortened ? 0.25 : 1.0) * kDay);
  w.fleet = event_driven(60.0, 4, 1);
  w.stepped = true;
  return w;
}

Workload score_heavy(std::uint64_t seed, bool shortened) {
  Workload w;
  w.name = "score_heavy";
  w.nodes = shortened ? 64 : 128;
  w.node = single_unit_node(mix(seed, 0), (shortened ? 1.0 : 9.0) * 3600.0);
  w.fleet = event_driven(30.0, 16, 1);
  w.fleet.mea.context_samples = 240;
  return w;
}

Workload churn_faults(std::uint64_t seed, bool shortened) {
  Workload w;
  w.name = "churn_faults";
  w.nodes = 32;
  const double horizon = (shortened ? 0.25 : 1.0) * kDay;
  w.node = leak_heavy_node(mix(seed, 0), horizon);
  w.fleet = event_driven(60.0, 8, 1);
  w.fleet.schedule.adaptive = true;
  w.fleet.schedule.max_gap = 16;
  // Baseline scores idle near 0.3-0.5; back a node off unless it crosses
  // the warning threshold itself (events, failures and urgency still snap
  // it back to dense).
  w.fleet.schedule.hot_score_fraction = 1.0;
  w.fleet.quality.enabled = true;
  w.flight_capacity = 64;

  // Churn: 48 rolling restarts spread over the horizon across slots 0..23,
  // a scale-out of 8 at 30%, and the loss of zone 24..27 at 70%.
  auto& plan = w.fleet.membership.plan;
  plan.seed = mix(seed, 1);
  constexpr std::size_t kRestarts = 48;
  for (std::size_t i = 0; i < kRestarts; ++i) {
    plan.restart_node(horizon * static_cast<double>(i + 1) /
                          static_cast<double>(kRestarts + 1),
                      i % 24);
  }
  plan.scale_out(0.3 * horizon, 8, 600.0);
  plan.zone_loss(0.7 * horizon, 24, 4);

  // The fault-injection bench's plan at rate 0.05, plus one crash and one
  // hang on slots that neither restart nor leave.
  constexpr double kRate = 0.05;
  w.inject = true;
  w.faults.seed = mix(seed, 2);
  w.faults.default_node.drop_sample_p = 0.5 * kRate;
  w.faults.default_predictor.throw_p = 0.25 * kRate;
  w.faults.default_predictor.nan_p = 0.25 * kRate;
  w.faults.default_action.fail_p = 4.0 * kRate;
  w.faults.default_action.partial_p = kRate;
  w.faults.nodes[29] = w.faults.default_node;
  w.faults.nodes[29].crash_at = 0.25 * horizon;
  w.faults.nodes[30] = w.faults.default_node;
  w.faults.nodes[30].hang_at = 0.5 * horizon;
  w.faults.nodes[30].hang_steps = 10;
  return w;
}

/// Everything one fleet run owns. Members are destroyed in reverse order,
/// so the controller goes before the hub, clock, ledger and injector its
/// components point at.
struct Rig {
  std::unique_ptr<inj::FaultInjector> injector;
  std::unique_ptr<obs::Observability> hub;
  std::unique_ptr<Ledger> ledger;
  std::unique_ptr<RoundClock> clock;
  std::unique_ptr<runtime::FleetController> fleet;
};

Rig build_rig(const Workload& w, const Ensemble& ensemble,
              std::size_t threads, bool traced) {
  Rig rig;
  runtime::FleetConfig cfg = w.fleet;
  cfg.num_threads = threads;
  if (traced) rig.ledger = std::make_unique<Ledger>(predictor_labels().size());
  Ledger* ledger = rig.ledger.get();
  const double round_seconds =
      cfg.mea.evaluation_interval * static_cast<double>(cfg.epoch_ticks);
  // A joiner's clock ends at the fleet horizon, but a backed-off joiner
  // takes its last step up to max_gap intervals after it, in epochs of
  // their own.
  const double last_step =
      w.node.duration +
      cfg.mea.evaluation_interval * static_cast<double>(cfg.schedule.max_gap);
  rig.clock = std::make_unique<RoundClock>(round_seconds, last_step);
  RoundClock* clock = rig.clock.get();
  if (w.inject || w.flight_capacity > 0) {
    obs::ObservabilityConfig oc;
    oc.shards = threads + 1;
    oc.flight_capacity = w.flight_capacity;
    rig.hub = std::make_unique<obs::Observability>(oc);
    cfg.obs = rig.hub.get();
  }
  if (w.inject) {
    rig.injector = std::make_unique<inj::FaultInjector>(w.faults);
    // Injected faults are read back from the hub's counters: the
    // injector's own stats() would visit wrappers that restarts destroyed.
    rig.injector->set_observability(rig.hub.get());
  }
  inj::FaultInjector* injector = rig.injector.get();
  if (cfg.membership.active()) {
    const telecom::SimConfig base = w.node;
    const double min_life = cfg.mea.evaluation_interval;
    membership::NodeFactory factory =
        [base, injector, min_life](const membership::JoinContext& ctx)
        -> std::unique_ptr<core::ManagedSystem> {
      // A joiner (or a restarted incarnation) runs on its own clock from
      // 0 and lives for the rest of the fleet's horizon, so the whole fleet
      // finishes together instead of late joiners replaying a full horizon
      // alone. trace_node_factory shifts its round marks by ctx.at_time.
      telecom::SimConfig node = base;
      node.seed = ctx.seed;
      node.duration = std::max(min_life, base.duration - ctx.at_time);
      auto system = std::make_unique<runtime::ScpManagedSystem>(node);
      if (injector == nullptr) return system;
      return injector->wrap_node(ctx.node, std::move(system));
    };
    cfg.membership.factory = trace_node_factory(std::move(factory), ledger, clock);
  }

  auto systems = runtime::make_scp_fleet(w.node, w.nodes);
  if (injector != nullptr) systems = injector->wrap_fleet(std::move(systems));
  for (auto& s : systems) {
    s = std::make_unique<TracedSystem>(std::move(s), ledger, clock);
  }
  rig.fleet =
      std::make_unique<runtime::FleetController>(std::move(systems), cfg);

  const std::vector<std::shared_ptr<const pred::SymptomPredictor>> symptom = {
      ensemble.ubf, ensemble.threshold, ensemble.trend};
  const std::vector<std::shared_ptr<const pred::EventPredictor>> event = {
      ensemble.hsmm, ensemble.dft};
  std::size_t index = 0;
  for (auto p : symptom) {
    if (injector != nullptr) p = injector->wrap_symptom_predictor(index, p);
    if (traced) p = std::make_shared<TracedSymptomPredictor>(p, ledger, index);
    rig.fleet->add_symptom_predictor(std::move(p));
    ++index;
  }
  for (auto p : event) {
    if (injector != nullptr) p = injector->wrap_event_predictor(index, p);
    if (traced) p = std::make_shared<TracedEventPredictor>(p, ledger, index);
    rig.fleet->add_event_predictor(std::move(p));
    ++index;
  }
  const std::vector<std::function<std::unique_ptr<act::Action>()>> actions = {
      [] { return std::make_unique<act::StateCleanupAction>(); },
      [] { return std::make_unique<act::PreparedRepairAction>(900.0); }};
  for (std::size_t a = 0; a < actions.size(); ++a) {
    auto factory = actions[a];
    if (injector != nullptr) factory = injector->wrap_action_factory(a, factory);
    if (traced) factory = trace_action_factory(factory, ledger);
    rig.fleet->add_action(factory);
  }
  return rig;
}

MonitoringFootprint footprint(const runtime::FleetController& fleet) {
  MonitoringFootprint out;
  const std::size_t n = fleet.num_nodes();
  if (n == 0) return out;
  double samples = 0.0, events = 0.0, bytes = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& trace = fleet.node(i).trace();
    for (const auto& s : trace.samples()) {
      bytes += static_cast<double>(sizeof(mon::SymptomSample) +
                                   s.values.size() * sizeof(double));
    }
    samples += static_cast<double>(trace.samples().size());
    events += static_cast<double>(trace.events().size());
    bytes += static_cast<double>(trace.events().size() * sizeof(mon::ErrorEvent) +
                                 trace.failures().size() * sizeof(double));
  }
  const double nodes = static_cast<double>(n);
  out.samples_per_node = samples / nodes;
  out.events_per_node = events / nodes;
  out.trace_bytes_per_node = bytes / nodes;
  return out;
}

/// "" when every node that is neither quarantined nor departed reached
/// its horizon, else a description of the first that did not.
std::string incomplete_node(const runtime::FleetController& fleet) {
  for (std::size_t i = 0; i < fleet.num_nodes(); ++i) {
    if (fleet.node_quarantined(i) || fleet.node_departed(i)) continue;
    const auto& node = fleet.node(i);
    if (node.now() < node.horizon()) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "node %zu stopped at t=%.1f s, short of its horizon "
                    "%.1f s",
                    i, node.now(), node.horizon());
      return buf;
    }
  }
  return "";
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool shortened) {
  if (name == "dense_ensemble") return dense_ensemble(seed, shortened);
  if (name == "score_heavy") return score_heavy(seed, shortened);
  if (name == "churn_faults") return churn_faults(seed, shortened);
  throw std::invalid_argument("unknown workload: " + name);
}

Ensemble train_ensemble(SetupTimes* times) {
  const auto g = windows();
  auto t0 = Clock::now();
  telecom::SimConfig cfg;
  cfg.seed = kTrainSeed;
  cfg.duration = kTrainDays * kDay;
  telecom::ScpSimulator sim(cfg);
  sim.run();
  const auto [train, validation] = sim.take_trace().split_at(0.7 * cfg.duration);
  (void)validation;
  const auto failures = train.failure_sequences(g.data_window, g.lead_time);
  const auto normal = train.nonfailure_sequences(
      g.data_window, g.lead_time, g.prediction_window, 300.0);
  times->trace_s = seconds_since(t0);

  Ensemble e;
  t0 = Clock::now();
  pred::UbfConfig ucfg;
  ucfg.windows = g;
  ucfg.pwa_iterations = 25;
  ucfg.shape_evaluations = 120;
  auto ubf = std::make_shared<pred::UbfPredictor>(ucfg);
  ubf->train(train);
  e.ubf = ubf;
  times->ubf_train_s = seconds_since(t0);

  t0 = Clock::now();
  pred::HsmmPredictorConfig hcfg;
  hcfg.windows = g;
  auto hsmm = std::make_shared<pred::HsmmPredictor>(hcfg);
  hsmm->train(failures, normal);
  e.hsmm = hsmm;
  times->hsmm_train_s = seconds_since(t0);

  t0 = Clock::now();
  auto threshold = std::make_shared<pred::ThresholdPredictor>(g);
  threshold->train(train);
  e.threshold = threshold;
  auto trend = std::make_shared<pred::TrendPredictor>(g);
  trend->train(train);
  e.trend = trend;
  auto dft = std::make_shared<pred::DftPredictor>();
  dft->train(failures, normal);
  e.dft = dft;
  times->baselines_train_s = seconds_since(t0);
  return e;
}

std::string Fingerprint::to_json() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"rounds\":%llu,\"epochs\":%llu,\"node_steps\":%llu,"
                "\"scores_computed\":%llu,\"warnings\":%llu,\"actions\":%llu,"
                "\"failures\":%llu,\"availability\":\"%.17g\"}",
                static_cast<unsigned long long>(rounds),
                static_cast<unsigned long long>(epochs),
                static_cast<unsigned long long>(node_steps),
                static_cast<unsigned long long>(scores_computed),
                static_cast<unsigned long long>(warnings),
                static_cast<unsigned long long>(actions),
                static_cast<unsigned long long>(failures), availability);
  return buf;
}

void build_fleet(const Workload& w, const Ensemble& ensemble) {
  build_rig(w, ensemble, 1, false);
}

RunResult run_workload(const Workload& w, const Ensemble& ensemble,
                       std::size_t threads, bool traced) {
  RunResult r;
  r.threads = threads;
  r.traced = traced;
  Rig rig = build_rig(w, ensemble, threads, traced);
  runtime::FleetController& fleet = *rig.fleet;

  const std::int64_t cpu0 = process_cpu_ns();
  const auto t0 = Clock::now();
  try {
    if (w.stepped) {
      const double interval = w.fleet.mea.evaluation_interval;
      for (double t = interval;; t += interval) {
        fleet.run_until(std::min(t, w.node.duration));
        if (t >= w.node.duration) break;
      }
    } else {
      fleet.run();
    }
  } catch (const std::exception& e) {
    r.error = std::string("run threw: ") + e.what();
  }
  r.wall_s = seconds_since(t0);
  const std::int64_t cpu1 = process_cpu_ns();
  r.cpu_s = 1e-9 * static_cast<double>(cpu1 - cpu0);
  r.round_ms = rig.clock->round_ms(cpu1);
  if (r.error.empty()) r.error = incomplete_node(fleet);
  r.complete = r.error.empty();

  r.telemetry = fleet.telemetry();
  const auto& t = r.telemetry;
  r.fingerprint.rounds = t.rounds;
  r.fingerprint.epochs = t.epochs;
  r.fingerprint.node_steps = t.node_steps;
  r.fingerprint.scores_computed = t.scores_computed;
  r.fingerprint.warnings = t.warnings_raised;
  r.fingerprint.actions = t.mea.total_actions();
  r.fingerprint.failures = static_cast<std::uint64_t>(t.system.failures);
  r.fingerprint.availability = t.system.availability();

  r.footprint = footprint(fleet);
  r.scratch_bytes = fleet.scratch_capacity_bytes();
  if (rig.injector != nullptr) {
    for (const auto& [name, counter] : rig.hub->metrics().counters()) {
      if (name.rfind("pfm_injected_faults_total", 0) == 0) {
        r.faults_injected += counter->value();
      }
    }
  }
  if (const auto* q = fleet.quality_tracker(); q != nullptr && q->lanes() > 0) {
    const auto counts = q->cumulative(q->combined_lane());
    r.precision = counts.precision();
    r.recall = counts.recall();
    r.auc = q->auc_estimate(q->combined_lane());
    r.availability_drift = fleet.observability()
                               .metrics()
                               .gauge("pfm_quality_availability_drift")
                               .value();
  }
  if (traced) {
    const Ledger& ledger = *rig.ledger;
    r.layers.step = ledger.total(Ledger::kStep);
    r.layers.hooks = ledger.total(Ledger::kHooks);
    r.layers.act = ledger.total(Ledger::kAct);
    r.layers.factory = ledger.total(Ledger::kFactory);
    for (std::size_t p = 0; p < predictor_labels().size(); ++p) {
      r.layers.predictors.push_back(ledger.total(Ledger::kFirstPredictor + p));
    }
    const auto probe = probe_monitoring(fleet.node(0), w.fleet.mea);
    r.context_us = probe.context_us;
    r.sequence_us = probe.sequence_us;
  }
  return r;
}

}  // namespace pfm::perfbench
