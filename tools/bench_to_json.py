#!/usr/bin/env python3
"""Run the fleet benches and collect their JSON-line output into files.

The bench binaries print one ``{"bench": ...}`` object per configuration
amid their human-readable tables. This script runs

  - ``bench_fleet_throughput``  ->  BENCH_fleet.json
  - ``bench_fleet_churn``       ->  BENCH_fleet.json (merged)
  - ``bench_fleet_quality``     ->  BENCH_fleet.json (merged)
  - ``bench_fault_injection``   ->  BENCH_injection.json

scrapes those lines, and writes each file as a JSON array (benches
sharing an output file contribute to one merged array, in bench order),
so dashboards and regression checks can consume bench results without
parsing tables.

All benches are run and validated before any output file is touched:
a missing binary, a failing bench, or a bench that emits no JSON lines
exits non-zero with every BENCH_*.json unchanged — never a partial
refresh.

Gates (each exits non-zero on violation):
  - the observability overhead arm must stay within the 5% budget;
  - adaptive sharded scheduling (8 shards, 8 threads) must beat the
    dense-schedule baseline of the shard-scaling arm (8 shards,
    epoch_ticks 1, 8 threads) by >=1.5x wall time over the same fleet
    and sim horizon;
  - the frozen-artifact serving path must stay within 30% of the live
    engine's scoring rate (both wrap the same sweep, so a larger gap
    means the mmap serving path grew overhead);
  - an armed-but-idle elastic membership config must cost < 5% wall
    time against the inactive default on a churn-free run (the
    fleet_churn_overhead arm of bench_fleet_churn);
  - the online quality scoreboard + flight recorder must cost < 5%
    wall time against the quality-free default on the same fleet (the
    fleet_quality_overhead arm of bench_fleet_quality), and must have
    resolved at least one instant for the ratio to mean anything.

Usage:
  tools/bench_to_json.py [--build-dir build] [--out-dir .] [--quick]
"""

import argparse
import json
import pathlib
import subprocess
import sys

BENCHES = {
    "bench_fleet_throughput": "BENCH_fleet.json",
    "bench_fleet_churn": "BENCH_fleet.json",
    "bench_fleet_quality": "BENCH_fleet.json",
    "bench_fault_injection": "BENCH_injection.json",
}

# Benches that understand the --quick trim flag.
QUICK_AWARE = {"bench_fleet_throughput", "bench_fleet_churn",
               "bench_fleet_quality"}

# Acceptance budget for the fleet_obs_overhead arm (fraction, not %).
OBS_OVERHEAD_BUDGET = 0.05

# Acceptance budget for the fleet_churn_overhead arm: elasticity that
# never fires may cost at most this fraction on a churn-free run.
CHURN_OVERHEAD_BUDGET = 0.05

# Acceptance budget for the fleet_quality_overhead arm: the online
# scoreboard + flight recorder against the quality-free default.
QUALITY_OVERHEAD_BUDGET = 0.05

# Adaptive sharded scheduling (8 shards, 8 threads) must cover the same
# fleet and sim horizon in at most 1/1.5 the dense-schedule wall time.
SHARD_SPEEDUP_FLOOR = 1.5

# The frozen serving path may score at worst this fraction of the live
# engine's rate (same sweep underneath — the gap is serving overhead).
FROZEN_SERVING_RATIO_FLOOR = 0.7


def scrape_json_lines(text: str) -> list:
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith('{"bench"'):
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as err:
            print(f"warning: unparsable bench line ({err}): {line}",
                  file=sys.stderr)
    return records


def run_bench(binary: pathlib.Path, quick: bool) -> list:
    # --benchmark_filter=NONE skips the microbenchmark section; the
    # experiment tables (and their JSON lines) always run.
    cmd = [str(binary), "--benchmark_filter=NONE"]
    if quick and binary.name in QUICK_AWARE:
        cmd.append("--quick")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{binary.name} exited with {proc.returncode}")
    return scrape_json_lines(proc.stdout)


def check_obs_overhead(records: list) -> None:
    for record in records:
        if record.get("bench") != "fleet_obs_overhead":
            continue
        overhead = record.get("overhead_pct", 0.0) / 100.0
        dropped = record.get("spans_dropped", 0)
        print(f"obs overhead: {overhead * 100.0:+.2f}% "
              f"({record.get('spans_recorded', 0)} spans, {dropped} dropped)")
        if overhead > OBS_OVERHEAD_BUDGET:
            raise SystemExit(
                f"observability overhead {overhead * 100.0:.2f}% exceeds "
                f"the {OBS_OVERHEAD_BUDGET * 100.0:.0f}% budget")


def check_churn_overhead(records: list) -> None:
    seen = False
    for record in records:
        if record.get("bench") != "fleet_churn_overhead":
            continue
        seen = True
        overhead = record.get("overhead_pct", 0.0) / 100.0
        joins = record.get("policy_joins", 0)
        print(f"elastic membership overhead (armed-but-idle vs off): "
              f"{overhead * 100.0:+.2f}% ({joins} policy joins)")
        if joins != 0:
            raise SystemExit(
                "the armed-but-idle churn overhead arm performed "
                f"{joins} policy joins — the ratio is not an overhead "
                "measurement")
        if overhead > CHURN_OVERHEAD_BUDGET:
            raise SystemExit(
                f"elastic membership overhead {overhead * 100.0:.2f}% "
                f"exceeds the {CHURN_OVERHEAD_BUDGET * 100.0:.0f}% budget")
    if not seen:
        raise SystemExit(
            "bench_fleet_churn emitted no fleet_churn_overhead row")


def check_quality_overhead(records: list) -> None:
    seen = False
    for record in records:
        if record.get("bench") != "fleet_quality_overhead":
            continue
        seen = True
        overhead = record.get("overhead_pct", 0.0) / 100.0
        resolved = record.get("instants_resolved", 0)
        print(f"quality scoreboard overhead (on vs off): "
              f"{overhead * 100.0:+.2f}% ({resolved} instants resolved)")
        if resolved <= 0:
            raise SystemExit(
                "the quality overhead arm resolved no instants — the "
                "scoreboard did no work, so the ratio is not an overhead "
                "measurement")
        if overhead > QUALITY_OVERHEAD_BUDGET:
            raise SystemExit(
                f"quality scoreboard overhead {overhead * 100.0:.2f}% "
                f"exceeds the {QUALITY_OVERHEAD_BUDGET * 100.0:.0f}% budget")
    if not seen:
        raise SystemExit(
            "bench_fleet_quality emitted no fleet_quality_overhead row")


def shard_speedup(records: list):
    """Dense wall vs adaptive event wall of the shard-scaling arm, both at
    8 shards and 8 threads, or None if either row is missing. Rows must
    agree on the fleet size (the bench emits both from the same grid)."""
    dense = None
    event = None
    for record in records:
        if record.get("bench") != "fleet_shard_scaling":
            continue
        if record.get("threads") != 8 or record.get("shards") != 8:
            continue
        if record.get("mode") == "dense":
            dense = record
        elif record.get("mode") == "event":
            event = record
    if dense is None or event is None:
        return None
    if dense.get("nodes") != event.get("nodes"):
        return None
    dense_wall = dense.get("wall_seconds", 0.0)
    event_wall = event.get("wall_seconds", 0.0)
    if dense_wall <= 0.0 or event_wall <= 0.0:
        return None
    return dense_wall / event_wall


def check_shard_scaling(records: list) -> None:
    speedup = shard_speedup(records)
    if speedup is None:
        raise SystemExit(
            "bench_fleet_throughput emitted no complete fleet_shard_scaling "
            "arm (need an 8-shard/8-thread dense row and an 8-shard/8-thread "
            "event row over the same fleet)")
    print(f"adaptive scheduling speedup (dense/event, 8 shards, 8 threads): "
          f"{speedup:.3f}x")
    if speedup < SHARD_SPEEDUP_FLOOR:
        raise SystemExit(
            f"adaptive sharded scheduling speedup {speedup:.3f}x is below "
            f"the {SHARD_SPEEDUP_FLOOR:.1f}x floor against the dense "
            f"baseline")


def check_frozen_serving(records: list) -> None:
    seen = False
    for record in records:
        if record.get("bench") != "frozen_serving":
            continue
        seen = True
        ratio = record.get("ratio", 0.0)
        print(f"frozen serving rate vs live engine: {ratio:.3f}x")
        if ratio < FROZEN_SERVING_RATIO_FLOOR:
            raise SystemExit(
                f"frozen serving rate is {ratio:.3f}x the live engine's "
                f"(floor {FROZEN_SERVING_RATIO_FLOOR:.1f}x) — the mmap "
                f"serving path grew overhead")
    if not seen:
        raise SystemExit(
            "bench_fleet_throughput emitted no frozen_serving row")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="CMake build tree containing bench/")
    parser.add_argument("--out-dir", default=".",
                        help="where the BENCH_*.json files go")
    parser.add_argument("--quick", action="store_true",
                        help="pass --quick to quick-aware benches (CI trim)")
    args = parser.parse_args()

    bench_dir = pathlib.Path(args.build_dir) / "bench"
    out_dir = pathlib.Path(args.out_dir)

    # Validate everything up front: no output file is written until every
    # bench binary exists, ran successfully, and produced records.
    missing = [name for name in BENCHES
               if not (bench_dir / name).exists()]
    if missing:
        raise SystemExit("bench binaries not found (build them first): " +
                         ", ".join(str(bench_dir / name) for name in missing))

    collected = {}
    for name, out_name in BENCHES.items():
        records = run_bench(bench_dir / name, args.quick)
        if not records:
            raise SystemExit(f"{name} produced no JSON lines")
        # Benches sharing an output file merge into one array, in
        # BENCHES order — never clobber an earlier bench's records.
        collected.setdefault(out_name, []).extend(records)

    fleet_records = collected["BENCH_fleet.json"]
    check_obs_overhead(fleet_records)
    check_shard_scaling(fleet_records)
    check_frozen_serving(fleet_records)
    check_churn_overhead(fleet_records)
    check_quality_overhead(fleet_records)

    out_dir.mkdir(parents=True, exist_ok=True)
    for out_name, records in collected.items():
        out_path = out_dir / out_name
        out_path.write_text(json.dumps(records, indent=2) + "\n")
        print(f"wrote {out_path} ({len(records)} records)")


if __name__ == "__main__":
    main()
