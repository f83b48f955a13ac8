#!/usr/bin/env python3
"""Fleet benchmark: builds pfm_perfbench from the checkout's sources, runs
one workload, checks its sim-time fingerprints and prints its metrics.

    python3 perfbench/run.py --workload dense_ensemble --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root. Build output goes to .bench_build/ and to
stderr; stdout carries one manifest line and, as its last line, the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see perfbench/README.md for what each means and which workload moves it).
A fingerprint mismatch, an incomplete run or a failed build exits non-zero
without printing a result.

    python3 perfbench/run.py compare OLD.out NEW.out

prints the metric ratios of two saved outputs and refuses (exit 3) when
their manifests name different hosts or builds.
"""

import argparse
import collections
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "pfm_perfbench")
WORKLOADS = ("dense_ensemble", "score_heavy", "churn_faults")
PREDICTORS = ("ubf", "threshold", "trend", "hsmm", "dft")
# Manifest fields that must match before two results may be compared
# ("git" is recorded but differs between the commits being compared).
MANIFEST_KEYS = ("nproc", "cpu", "compiler", "build_type", "simd")


class BenchError(Exception):
    """A run that must not produce a result."""


# A percentile of a sample, with the sample count it rests on and the
# number of samples beyond it.
Percentile = collections.namedtuple("Percentile", "value count beyond")


def percentile(samples, q):
    """Nearest-rank percentile q (0 < q < 1) of `samples`.

    Refuses (ValueError) when fewer than ten samples lie beyond it: such a
    tail is one or two outliers, not a percentile.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("percentile: q must be in (0, 1)")
    n = len(samples)
    if n == 0:
        raise ValueError("percentile: no samples")
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < 10:
        raise ValueError(
            "percentile: p%g of %d samples has only %d samples beyond it "
            "(need 10)" % (100 * q, n, beyond))
    return Percentile(sorted(samples)[rank - 1], n, beyond)


def manifests_differ(a, b):
    """The manifest keys on which two results disagree."""
    return [k for k in MANIFEST_KEYS if a.get(k) != b.get(k)]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds pfm_perfbench from the checkout."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources not found under %s/src" % ROOT)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "pfm_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--dirty", "--always"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def run_binary(args):
    """Runs pfm_perfbench and returns its JSON lines grouped by type."""
    # An invocation must end within 180 s; a run still going at 170 s has
    # hung or the host is far too slow to measure anything.
    proc = subprocess.run([BINARY] + args, capture_output=True, text=True,
                          timeout=170)
    sys.stderr.write(proc.stderr)
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode != 0:
        bad = [r["error"] for r in lines if r.get("type") == "run" and r["error"]]
        raise BenchError("pfm_perfbench exited %d%s" % (
            proc.returncode, ": " + bad[0] if bad else ""))
    out = {}
    for line in lines:
        out.setdefault(line["type"], []).append(line)
    return out


def check_runs(runs, adaptive):
    """Every run completed, all fingerprints are identical, and every run
    timed each epoch once, as a positive interval. An adaptive schedule may
    run epochs that step no node; their time falls into the round before."""
    for r in runs:
        if not r["complete"]:
            raise BenchError("incomplete run: " + r["error"])
        rounds, epochs = r["round_ms"], r["fingerprint"]["epochs"]
        if len(rounds) > epochs or (len(rounds) < epochs and not adaptive):
            raise BenchError("%d round times for %d epochs (threads %d traced "
                             "%s)" % (len(rounds), epochs, r["threads"],
                                      r["traced"]))
        if min(rounds) <= 0.0:
            raise BenchError("round time %.6g ms <= 0 (threads %d traced %s)" % (
                min(rounds), r["threads"], r["traced"]))
    first = runs[0]["fingerprint"]
    for r in runs[1:]:
        if r["fingerprint"] != first:
            raise BenchError(
                "fingerprint mismatch (threads %d traced %s vs threads %d "
                "traced %s): %s != %s" % (
                    runs[0]["threads"], runs[0]["traced"], r["threads"],
                    r["traced"], json.dumps(first), json.dumps(r["fingerprint"])))
    availability = float(first["availability"])
    if not 0.0 < availability <= 1.0:
        raise BenchError("availability %r out of (0, 1]" % availability)


def busy_seconds(layers):
    return (layers["step"]["seconds"] + layers["hooks"]["seconds"] +
            layers["act"]["seconds"] + layers["factory"]["seconds"] +
            sum(p["seconds"] for p in layers["predictors"].values()))


def failed_ops(traced_run):
    """(failed, attempted) over node steps, predictor batches and action
    attempts, from a traced run (its counts equal every run's: same
    fingerprint)."""
    t = traced_run["telemetry"]
    layers = traced_run["layers"]
    failed = t["node_faults"] + t["stall_detections"]
    attempted = layers["step"]["calls"]
    for p in layers["predictors"].values():
        failed += p["faults"]
        attempted += p["calls"]
    failed += layers["act"]["faults"]
    attempted += layers["act"]["calls"]
    return failed, attempted


def metric(value, unit):
    return {"value": value, "unit": unit}


def least_per_round(runs):
    """Each round's least time over `runs`. Runs with one fingerprint replay
    the same rounds, so round i did the same work in every run; the least
    of its times is the one the shared host disturbed least."""
    counts = {len(r["round_ms"]) for r in runs}
    if len(counts) != 1:
        raise BenchError("timed runs timed different numbers of rounds: %s"
                         % sorted(counts))
    return [min(times) for times in zip(*(r["round_ms"] for r in runs))]


def end_to_end(out, workload):
    timed = [r for r in out["run"]
             if not r["traced"] and r["threads"] == workload["threads"]]
    traced = [r for r in out["run"] if r["traced"]]
    rounds = least_per_round(timed)
    p50 = percentile(rounds, 0.50)
    p99 = percentile(rounds, 0.99)
    log("round latency: least of %d runs for each of %d rounds, %d beyond "
        "p99; %d of %d epochs stepped no node" % (
            len(timed), p99.count, p99.beyond,
            timed[0]["fingerprint"]["epochs"] - len(rounds),
            timed[0]["fingerprint"]["epochs"]))
    rss = out["rss"][0]
    log("peak resident memory: %.1f MB in the setups, %.1f MB in the runs%s" % (
        rss["setup_peak_mb"], rss["peak_rss_mb"],
        "" if rss["reset"] else " (could not reset the peak: includes the setups)"))
    failed, attempted = failed_ops(traced[0])
    return {
        # The rounds cover a run from its first node step to its end, so
        # their least times add up to the run's least disturbed host time.
        "node_sim_s_per_s": metric(
            timed[0]["telemetry"]["simulated_s"] / (1e-3 * sum(rounds)), "1/s"),
        "round_ms_p50": metric(p50.value, "ms"),
        "round_ms_p99": metric(p99.value, "ms"),
        "setup_s": metric(statistics.median(
            s["setup_s"] for s in out["setup"]), "s"),
        "peak_rss_mb": metric(rss["peak_rss_mb"], "MB"),
        "availability": metric(float(timed[0]["fingerprint"]["availability"]),
                               "ratio"),
        "ok_ops_ratio": metric(1.0 - failed / attempted, "ratio"),
    }, len(out["run"])


def per_layer(out, workload):
    # Untraced runs at the timed thread count, after the warm-up run.
    untraced = [r for r in out["run"]
                if not r["traced"] and r["threads"] == workload["threads"]][1:]
    traced = [r for r in out["run"] if r["traced"]]
    run = sorted(traced, key=lambda r: r["wall_s"])[len(traced) // 2]
    t, layers = run["telemetry"], run["layers"]
    busy = busy_seconds(layers)
    capacity = workload["threads"] * run["wall_s"]
    idle_share = 1.0 - busy / capacity
    if idle_share < -0.05:
        raise BenchError("layer busy time %.3f s exceeds threads x wall %.3f s "
                         "by more than 5%%" % (busy, capacity))
    share = lambda s: s / busy if busy > 0 else 0.0
    step = layers["step"]
    act = layers["act"]
    setups = out["setup"]
    med = lambda key: statistics.median(s[key] for s in setups)
    cpu_u = statistics.median(r["cpu_s"] for r in untraced)
    cpu_t = statistics.median(r["cpu_s"] for r in traced)
    failed, attempted = failed_ops(run)
    dense_steps = t["simulated_s"] / workload["interval_s"]
    probe = out["probe"][0]
    m = {
        "telecom.step_s": metric(step["seconds"], "s"),
        "telecom.steps": metric(step["calls"], "count"),
        "telecom.step_us": metric(1e6 * step["seconds"] / max(1, step["calls"]), "us"),
        "telecom.share": metric(share(step["seconds"]), "ratio"),
        "numerics.poisson_ns": metric(probe["poisson_ns"], "ns"),
        "numerics.normal_ns": metric(probe["normal_ns"], "ns"),
        "monitoring.context_us": metric(layers["context_us"], "us"),
        "monitoring.sequence_us": metric(layers["sequence_us"], "us"),
        "monitoring.samples_per_node": metric(t["samples_per_node"], "count"),
        "monitoring.events_per_node": metric(t["events_per_node"], "count"),
        "monitoring.trace_bytes_per_node": metric(t["trace_bytes_per_node"], "B"),
    }
    for name in PREDICTORS:
        p = layers["predictors"][name]
        m["prediction.%s.score_s" % name] = metric(p["seconds"], "s")
        m["prediction.%s.calls" % name] = metric(p["calls"], "count")
        m["prediction.%s.items" % name] = metric(p["items"], "count")
        m["prediction.%s.ns_per_item" % name] = metric(
            1e9 * p["seconds"] / max(1, p["items"]), "ns")
    m["prediction.share"] = metric(
        share(sum(p["seconds"] for p in layers["predictors"].values())), "ratio")
    m.update({
        "act.hook_s": metric(act["seconds"] + layers["hooks"]["seconds"], "s"),
        "act.executions": metric(act["calls"], "count"),
        "act.faults": metric(act["faults"], "count"),
        "act.retries": metric(t["action_retries"], "count"),
        "act.abandoned": metric(t["actions_abandoned"], "count"),
        "act.success_ratio": metric(
            1.0 - act["faults"] / act["calls"] if act["calls"] else 1.0, "ratio"),
        "runtime.idle_share": metric(idle_share, "ratio"),
        "runtime.visit_ratio": metric(run["fingerprint"]["node_steps"] / dense_steps,
                                      "ratio"),
        "runtime.node_steps": metric(run["fingerprint"]["node_steps"], "count"),
        "runtime.epochs": metric(run["fingerprint"]["epochs"], "count"),
        "runtime.rounds": metric(run["fingerprint"]["rounds"], "count"),
        "runtime.monitor_s": metric(t["monitor_s"], "s"),
        "runtime.evaluate_s": metric(t["evaluate_s"], "s"),
        "runtime.act_s": metric(t["act_s"], "s"),
        "runtime.scratch_bytes": metric(t["scratch_bytes"], "B"),
        "membership.joins": metric(t["joins"], "count"),
        "membership.leaves": metric(t["leaves"], "count"),
        "membership.handoffs": metric(t["handoffs"], "count"),
        "membership.factory_s": metric(layers["factory"]["seconds"], "s"),
        "injection.faults_injected": metric(t["faults_injected"], "count"),
        "resilience.quarantined": metric(t["quarantined"], "count"),
        "resilience.breaker_trips": metric(t["breaker_trips"], "count"),
        "resilience.scores_sanitized": metric(t["scores_sanitized"], "count"),
        "failed_ops_ratio": metric(failed / attempted, "ratio"),
        "obs.precision": metric(t["precision"], "ratio"),
        "obs.recall": metric(t["recall"], "ratio"),
        "obs.auc": metric(t["auc"], "ratio"),
        "obs.availability_drift": metric(abs(t["availability_drift"]), "ratio"),
        "trace.overhead_pct": metric(100.0 * (cpu_t - cpu_u) / cpu_u, "%"),
        "ctmc.eq8_us": metric(probe["eq8_us"], "us"),
        "setup.trace_s": metric(med("trace_s"), "s"),
        "setup.ubf_train_s": metric(med("ubf_train_s"), "s"),
        "setup.hsmm_train_s": metric(med("hsmm_train_s"), "s"),
        "setup.baselines_train_s": metric(med("baselines_train_s"), "s"),
    })
    return m, len(out["run"])


def bench(args):
    build()
    out = run_binary([
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    for key in ("manifest", "workload", "setup", "run", "rss"):
        if key not in out:
            raise BenchError("pfm_perfbench printed no %s line" % key)
    workload = out["workload"][0]
    check_runs(out["run"], workload["adaptive"])
    manifest = dict(out["manifest"][0])
    del manifest["type"]
    manifest["git"] = git_describe()
    if args.trace:
        metrics, attempted = per_layer(out, workload)
    else:
        metrics, attempted = end_to_end(out, workload)
    print(json.dumps({"manifest": manifest, "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))


def read_output(path):
    """(manifest, metrics) of a saved run.py output."""
    manifest = metrics = None
    with open(path) as f:
        for line in f:
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "manifest" in obj:
                manifest = obj["manifest"]
            elif "metrics" in obj:
                metrics = obj["metrics"]
    if manifest is None or metrics is None:
        raise BenchError("%s holds no manifest and result" % path)
    return manifest, metrics


def compare(old_path, new_path):
    old_manifest, old = read_output(old_path)
    new_manifest, new = read_output(new_path)
    differ = manifests_differ(old_manifest, new_manifest)
    if differ:
        log("refusing to compare: manifests differ on %s" % ", ".join(differ))
        return 3
    for name in sorted(set(old) & set(new)):
        a, b = old[name]["value"], new[name]["value"]
        ratio = "%.4f" % (b / a) if a else "n/a"
        print("%-36s %14.6g %14.6g  x%s %s" % (name, a, b, ratio,
                                               new[name]["unit"]))
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            log("usage: run.py compare OLD NEW")
            return 2
        try:
            return compare(argv[1], argv[2])
        except (OSError, ValueError, BenchError) as e:
            log("perfbench: %s" % e)
            return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bench(args)
    except (BenchError, ValueError, KeyError, OSError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
