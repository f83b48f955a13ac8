// pfm_perfbench — runs one benchmark invocation of one workload and prints
// its raw readings as JSON lines (one object per line, "type" first):
//
//   manifest  host and build identity
//   setup     one timed setup: training trace, the five predictors, and a
//             fleet build
//   run       one fleet run: wall time, sim-time fingerprint, per-round
//             host times, telemetry, and per-layer tallies when traced
//   probe     RNG / Eq. 8 probe timings (traced invocations)
//   rss       peak resident memory of the setups and of the workload's
//             runs
//
// perfbench/run.py turns these into the benchmark's metrics and checks the
// fingerprints. Usage:
//
//   pfm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0: kSetups setups, one traced run, then untraced runs for at
// least S seconds (and at least kMinTimedRuns runs).
// --trace 1: kSetups setups, one untraced run, then alternating
// untraced/traced pairs for at least S seconds, then the probes.
// Both end with one untraced run at kCheckThreads. Every run's
// fingerprint must match.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "numerics/simd.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace {

using namespace pfm::perfbench;

// run.py takes each round's least time over the timed runs.
constexpr int kMinTimedRuns = 3;
// Timed and traced runs use one thread: on a shared host, stolen vCPU time
// stalls every epoch barrier of a multi-threaded run, and its wall time
// then varies by up to 60% between runs (against about 3% at one thread).
// Their host time is process CPU time (see RoundClock in tracing.hpp).
constexpr std::size_t kThreads = 1;
// One more run at this thread count checks that the fingerprint does not
// depend on the thread count.
constexpr std::size_t kCheckThreads = 2;
// Timed setups per invocation; setup_s is their median.
constexpr int kSetups = 3;

/// One flat-or-nested JSON object built field by field.
class Json {
 public:
  Json& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, buf);
  }
  Json& num(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const char* key, const std::string& v) {
    std::string out = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return raw(key, out + "\"");
  }
  Json& boolean(const char* key, bool v) { return raw(key, v ? "true" : "false"); }
  Json& array(const char* key, const std::vector<double>& v) {
    std::string out = "[";
    char buf[32];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), i == 0 ? "%.9g" : ",%.9g", v[i]);
      out += buf;
    }
    return raw(key, out + "]");
  }
  Json& raw(const char* key, const std::string& v) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
    body_ += v;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }
  void emit() const { std::printf("%s\n", text().c_str()); std::fflush(stdout); }

 private:
  std::string body_;
};

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void emit_manifest() {
  Json()
      .str("type", "manifest")
      .num("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .str("cpu", cpu_model())
      .str("compiler", compiler())
      .str("build_type", PFM_PERFBENCH_BUILD_TYPE)
      .str("simd", pfm::num::simd::backend_name())
      .emit();
}

Json tally_json(const LayerTally& t) {
  Json j;
  j.num("seconds", t.seconds).num("calls", t.calls).num("items", t.items)
      .num("faults", t.faults);
  return j;
}

void emit_run(const RunResult& r) {
  const auto& t = r.telemetry;
  Json tel;
  tel.num("nodes", static_cast<std::uint64_t>(t.nodes))
      .num("simulated_s", t.system.simulated)
      .num("monitor_s", t.latency.monitor_seconds)
      .num("evaluate_s", t.latency.evaluate_seconds)
      .num("act_s", t.latency.act_seconds)
      .num("node_faults", static_cast<std::uint64_t>(t.resilience.node_faults))
      .num("stall_detections",
           static_cast<std::uint64_t>(t.resilience.stall_detections))
      .num("predictor_faults",
           static_cast<std::uint64_t>(t.resilience.predictor_faults))
      .num("quarantined",
           static_cast<std::uint64_t>(t.resilience.nodes_quarantined))
      .num("breaker_trips", static_cast<std::uint64_t>(t.resilience.breaker_trips))
      .num("scores_sanitized",
           static_cast<std::uint64_t>(t.resilience.scores_sanitized))
      .num("joins", t.membership.nodes_joined)
      .num("leaves", t.membership.nodes_left)
      .num("handoffs", t.membership.handoffs)
      .num("action_faults", static_cast<std::uint64_t>(t.mea.action_faults))
      .num("action_retries", static_cast<std::uint64_t>(t.mea.action_retries))
      .num("actions_abandoned",
           static_cast<std::uint64_t>(t.mea.actions_abandoned))
      .num("scratch_bytes", static_cast<std::uint64_t>(r.scratch_bytes))
      .num("faults_injected", r.faults_injected)
      .num("precision", r.precision)
      .num("recall", r.recall)
      .num("auc", r.auc)
      .num("availability_drift", r.availability_drift)
      .num("samples_per_node", r.footprint.samples_per_node)
      .num("events_per_node", r.footprint.events_per_node)
      .num("trace_bytes_per_node", r.footprint.trace_bytes_per_node);

  Json j;
  j.str("type", "run")
      .boolean("traced", r.traced)
      .num("threads", static_cast<std::uint64_t>(r.threads))
      .boolean("complete", r.complete)
      .str("error", r.error)
      .num("wall_s", r.wall_s)
      .num("cpu_s", r.cpu_s)
      .raw("fingerprint", r.fingerprint.to_json())
      .raw("telemetry", tel.text())
      .array("round_ms", r.round_ms);
  if (r.traced) {
    Json layers;
    layers.raw("step", tally_json(r.layers.step).text())
        .raw("hooks", tally_json(r.layers.hooks).text())
        .raw("act", tally_json(r.layers.act).text())
        .raw("factory", tally_json(r.layers.factory).text());
    Json preds;
    for (std::size_t p = 0; p < r.layers.predictors.size(); ++p) {
      preds.raw(predictor_labels()[p].c_str(),
                tally_json(r.layers.predictors[p]).text());
    }
    layers.raw("predictors", preds.text())
        .num("context_us", r.context_us)
        .num("sequence_us", r.sequence_us);
    j.raw("layers", layers.text());
  }
  j.emit();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "pfm_perfbench: %s\n", why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string v = argv[++i];
    if (key == "--workload") a.workload = v;
    else if (key == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (key == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (key == "--trace") a.trace = v == "1";
    else usage(("unknown option " + key).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

double elapsed_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// A field of /proc/self/status in MB (the kernel reports kB).
double status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("no " + field + " in /proc/self/status");
}

/// Resets the process's peak resident memory (VmHWM) to its current RSS;
/// false where /proc/self/clear_refs cannot be written.
bool reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

/// Emits the run; returns false when it did not complete (the caller stops:
/// an incomplete run invalidates the whole invocation).
bool run_and_emit(const Workload& w, const Ensemble& e, std::size_t threads,
                  bool traced) {
  const RunResult r = run_workload(w, e, threads, traced);
  emit_run(r);
  return r.complete;
}

int run(const Args& a) {
  const Workload w = make_workload(a.workload, a.seed);
  emit_manifest();
  Json()
      .str("type", "workload")
      .str("name", w.name)
      .num("nodes", static_cast<std::uint64_t>(w.nodes))
      .num("horizon_s", w.node.duration)
      .num("interval_s", w.fleet.mea.evaluation_interval)
      .num("epoch_ticks", static_cast<std::uint64_t>(w.fleet.epoch_ticks))
      .num("shards", static_cast<std::uint64_t>(w.fleet.num_shards))
      .num("threads", static_cast<std::uint64_t>(kThreads))
      .boolean("stepped", w.stepped)
      .boolean("adaptive", w.fleet.schedule.adaptive)
      .emit();

  Ensemble ensemble;
  for (int k = 0; k < kSetups; ++k) {
    SetupTimes st;
    const auto t0 = std::chrono::steady_clock::now();
    ensemble = train_ensemble(&st);
    build_fleet(w, ensemble);
    Json()
        .str("type", "setup")
        .num("setup_s", elapsed_since(t0))
        .num("trace_s", st.trace_s)
        .num("ubf_train_s", st.ubf_train_s)
        .num("hsmm_train_s", st.hsmm_train_s)
        .num("baselines_train_s", st.baselines_train_s)
        .emit();
  }
  // The setups simulate a 4-day trace and train on it; that peak is not
  // the workload's. From here on the peak covers the trained ensemble the
  // runs share, what the setups left on the heap, and the runs. (Where the
  // reset fails the peak includes the setups' too, which is lower than the
  // runs' on every workload.)
  const double setup_peak_mb = status_mb("VmHWM");
  const bool peak_reset = reset_peak_rss();

  // The first fleet run of a process is slower (the heap grows, caches
  // are cold), so each invocation opens with a run whose time is not
  // used: the traced run in timed invocations, an untraced one in traced
  // ones. Its fingerprint is checked like every other run's.
  if (!run_and_emit(w, ensemble, kThreads, !a.trace)) return 1;
  const auto t0 = std::chrono::steady_clock::now();
  if (!a.trace) {
    for (int runs = 0; runs < kMinTimedRuns || elapsed_since(t0) < a.seconds;
         ++runs) {
      if (!run_and_emit(w, ensemble, kThreads, false)) return 1;
    }
  } else {
    for (int pairs = 0; pairs < 2 || elapsed_since(t0) < a.seconds; ++pairs) {
      // Alternate which side runs first so drift hits both equally.
      const bool traced_first = pairs % 2 == 1;
      if (!run_and_emit(w, ensemble, kThreads, traced_first)) return 1;
      if (!run_and_emit(w, ensemble, kThreads, !traced_first)) return 1;
    }
    const RngProbe rng = probe_rng();
    Json()
        .str("type", "probe")
        .num("poisson_ns", rng.poisson_ns)
        .num("normal_ns", rng.normal_ns)
        .num("eq8_us", probe_eq8_us())
        .emit();
  }

  // Peak memory is read before the run at another thread count: worker
  // threads get malloc arenas of their own, whose footprint depends on
  // which thread ran which shard.
  Json()
      .str("type", "rss")
      .num("setup_peak_mb", setup_peak_mb)
      .boolean("reset", peak_reset)
      .num("peak_rss_mb", status_mb("VmHWM"))
      .emit();
  return run_and_emit(w, ensemble, kCheckThreads, false) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pfm_perfbench: %s\n", e.what());
    return 1;
  }
}
