"""Measure the baseline: two independent sets of runs of every workload.

    python3 perfbench/make_baseline.py

Set A uses seeds 1000+ and set B seeds 2000+.  Each set runs every workload
RUNS times untraced and TRACE_RUNS times traced, each run with its own seed.
The runs alternate between the sets, run by run and across workloads, so a
change in host speed during the hour it takes falls on both sets alike.
For every metric and workload it records each set's median, quartiles
(statistics.quantiles, n=4) and sample count, the spread (quartile distance
over median) and, for the end-to-end metrics, how far set B's median lies
from set A's, against the metric's bound in BENCHMARK.json.  Runs that
report a wrong result are listed under failed_runs, and Monte Carlo checks
that passed only on a redraw under redrawn.  Writes
perfbench/baseline.json and prints one line per end-to-end metric and
workload.  Takes about an hour on two cores.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SET_SEEDS = {"A": 1000, "B": 2000}
RUNS = 10
TRACE_RUNS = 2
TRACE_SEED_OFFSET = 500


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{cmd} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(line.split("run record: ", 1)[1]) for line in lines if "run record: " in line)
    failed = [line for line in lines if line.startswith("FAILED")]
    redrawn = [line for line in lines if line.startswith("REDRAWN")]
    return {"result": json.loads(lines[-1]), "record": record, "failed": failed, "redrawn": redrawn}


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / med if med else 0.0,
    }


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    # values[set][workload][trace][metric] -> one value per run
    values: dict = {s: {w: {0: {}, 1: {}} for w in workloads} for s in SET_SEEDS}
    seeds: dict = {s: {w: {0: [], 1: []} for w in workloads} for s in SET_SEEDS}
    record = None
    failed_runs: list[dict] = []
    redrawn: list[dict] = []
    schedule = [(0, i) for i in range(RUNS)] + [(1, i) for i in range(TRACE_RUNS)]
    for trace, i in schedule:
        for workload in workloads:
            for set_name, base in SET_SEEDS.items():
                seed = base + i + TRACE_SEED_OFFSET * trace
                got = run(workload, seed, seconds, trace)
                record = record or got["record"]
                seeds[set_name][workload][trace].append(seed)
                for line in got["redrawn"]:
                    redrawn.append({"workload": workload, "seed": seed, "trace": trace, "check": line})
                if not got["result"]["correct"]:
                    failed_runs.append({"workload": workload, "seed": seed, "trace": trace,
                                        "failures": got["failed"]})
                    print(f"{workload} seed {seed} trace={trace} FAILED: {got['failed']}", flush=True)
                for name, metric in got["result"]["metrics"].items():
                    values[set_name][workload][trace].setdefault(name, []).append(metric["value"])
            print(f"run {i + 1} trace={trace} {workload} done", flush=True)

    out: dict = {"run_seconds": seconds, "order": "A and B alternate run by run across workloads",
                 "failed_runs": failed_runs, "redrawn": redrawn, "sets": {}, "between_sets": {}}
    for set_name in SET_SEEDS:
        out["sets"][set_name] = {
            w: {
                "end_to_end": {k: summary(v) for k, v in values[set_name][w][0].items()},
                "per_layer": {k: summary(v) for k, v in values[set_name][w][1].items()},
                "seeds": seeds[set_name][w][0],
                "trace_seeds": seeds[set_name][w][1],
            }
            for w in workloads
        }
    for w in workloads:
        out["between_sets"][w] = {}
        for name, metric in bounds.items():
            a = out["sets"]["A"][w]["end_to_end"][name]
            b = out["sets"]["B"][w]["end_to_end"][name]
            change = (b["median"] - a["median"]) / a["median"]
            out["between_sets"][w][name] = {"b_over_a": change, "within_bound": abs(change) <= metric["bound"]}
            print(f"{w} {name}: A {a['median']:.6g} (spread {a['spread']:.4f}) "
                  f"B {b['median']:.6g} (spread {b['spread']:.4f}) B/A-1 {change:+.4f} "
                  f"bound {metric['bound']}", flush=True)
    record["seed"] = "per run, see seeds"
    out["run_record"] = record
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
