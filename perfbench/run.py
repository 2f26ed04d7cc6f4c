"""pfdr-sizer benchmark: one workload per process, checked, with metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py): exact-plans, rate-plans, mc-verify, cli-cold.
Each is a closed loop with one client.  Rounds of seeded requests run until
the time spent inside operations reaches --seconds; input generation and
the correctness checks run between operations and are not timed.  Every
result is checked by oracle.py.

--trace 0 prints the end-to-end metrics.  set-up time is the median of
SETUP_REPEATS fresh processes that each import the package and make one
warm-up call of each operation kind.  --trace 1 runs a fixed number of
rounds with spans and counters around each public function, replays the
same requests untraced to measure the tracing overhead and to check that
both passes return bit-identical results, and prints the per-layer metrics.

Human-readable lines come first; the last line of stdout is one JSON object
with correct, attempted, failed and metrics.  Spans are written to
.perfbench/ under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS_ENV = "PFDR_SIZER_THREADS"
WORKLOADS = ("exact-plans", "rate-plans", "mc-verify", "cli-cold")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120.0
P90_MIN_OPS = 100
MC_KINDS = ("tail_ratio_mc", "simulate_pfdr")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha() -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def run_record(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        THREADS_ENV: os.environ.get(THREADS_ENV),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# set-up time


def setup_seconds(workload: str) -> list[float]:
    """Wall time from spawning a fresh set-up process to its "ready" line."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_child.py"), workload],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=ROOT,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("set-up process timed out")
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed ({proc.returncode}): {err.strip()[-500:]}")
        times.append(ready - start)
    return times


# ---------------------------------------------------------------------------
# running requests


def run_round(requests: list[dict], execute) -> tuple[list, list[float]]:
    """Outcomes and latencies of requests run back to back."""
    outputs, latencies = [], []
    for req in requests:
        start = time.perf_counter()
        try:
            out = execute(req)
        except Exception as exc:  # every failure is recorded and checked
            out = exc
        latencies.append(time.perf_counter() - start)
        outputs.append(out)
    return outputs, latencies


def fingerprint(out) -> str:
    """Text that is equal for two outcomes exactly when they are bit-identical."""
    if isinstance(out, BaseException):
        return f"{type(out).__name__}: {out}"
    return repr(out)


def check_all(requests: list[dict], outputs: list, workloads, oracle) -> list[str]:
    """Failure reasons, one per failed request.

    A Monte Carlo result outside its 4-SE band is drawn once more on a fresh
    stream and fails only if that draw misses too.  The band assumes normal
    errors, but the standard errors come from 11 to 66 batch means or from
    a few dozen hits that only one of the two tail events has, and their
    tails are heavier: without the redraw, 20 runs of mc-verify on the
    baseline commit made about 1000 Monte Carlo checks and 2 fell just
    outside (4.05 and 4.15 SE), against about 0.07 expected for normal
    errors.  A bias of 5 SE or more still fails nearly always.  Each redraw
    prints a REDRAWN line.
    """
    failures = []
    for req, out in zip(requests, outputs):
        why = oracle.check(req, out)
        if why and req["kind"] in MC_KINDS and not isinstance(out, BaseException):
            print(f"REDRAWN {req['kind']}: {why}")
            retry = dict(req, seed=req["seed"] + 2**31)
            try:
                why = oracle.check(retry, workloads.execute(retry))
            except Exception as exc:
                why = f"redraw raised {type(exc).__name__}: {exc}"
        if why:
            failures.append(f"{req['kind']}: {why}")
    return failures


def warm_up(workload: str, workloads) -> None:
    """One untimed call of each operation kind (one CLI process for cli-cold)."""
    requests = workloads.warmup_requests(workload)
    for req in requests[:1] if workload == "cli-cold" else requests:
        workloads.execute(req)


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def measured_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[str], int]:
    setup = setup_seconds(workload)
    import oracle
    import workloads

    warm_up(workload, workloads)
    lat: list[float] = []
    failures: list[str] = []
    mc_calls: list[tuple[int, float, float, float]] = []
    invariance_probe = None
    cli_peak_kb = 0
    rounds = 0
    # whole rounds keep the mix of request kinds the same in every run; the
    # run stops at the round boundary nearest to --seconds of operation time
    while not lat or sum(lat) * (1.0 + 0.5 / rounds) < seconds:
        requests = workloads.generate_round(workload, seed, rounds)
        outputs, latencies = run_round(requests, workloads.execute)
        failures += check_all(requests, outputs, workloads, oracle)
        lat += latencies
        rounds += 1
        for req, out, dt in zip(requests, outputs, latencies):
            if workload == "cli-cold":
                cli_peak_kb = max(cli_peak_kb, out.maxrss_kb)
            elif req["kind"] in MC_KINDS and not isinstance(out, BaseException):
                # one Studentized statistic per simulated null
                nulls = 1 if req["kind"] == "tail_ratio_mc" else workloads.SIM_BATCH_NULLS
                mc_calls.append((req["trials"] * nulls, dt, *oracle.mc_estimate(out)))
                if invariance_probe is None and req["kind"] == "tail_ratio_mc" and req["family"] == "normal":
                    invariance_probe = (req, out)

    if workload == "mc-verify":
        failures += thread_invariance(invariance_probe, workloads)
    n = len(lat)
    peak_kb = cli_peak_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": (n / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    extra = {
        "fail_frac": (len(failures) / n, f"ratio ({len(failures)}/{n})"),
        "setup_samples": (len(setup), "count"),
        "op_count": (n, "count"),
        "rounds": (rounds, "count"),
    }
    if n >= P90_MIN_OPS:
        extra["op_p90_ms"] = (1e3 * statistics.quantiles(lat, n=10)[8], f"ms (n={n})")
    if mc_calls:
        stats = sum(c[0] for c in mc_calls)
        seconds_mc = sum(c[1] for c in mc_calls)
        per_1pct = [dt * (se / value / 0.01) ** 2 for _, dt, value, se in mc_calls]
        extra["mc_stats_per_s"] = (stats / seconds_mc, "1/s")
        extra["mc_s_per_1pct"] = (statistics.median(per_1pct), f"s (n={len(per_1pct)})")
    return metrics, extra, failures, n


def thread_invariance(probe, workloads) -> list[str]:
    """Re-run one normal-family tail ratio single-threaded; the result must
    be bit-identical to the one computed with nproc threads."""
    if probe is None:
        return ["thread invariance: no normal tail-ratio request ran"]
    req, out = probe
    saved = os.environ[THREADS_ENV]
    os.environ[THREADS_ENV] = "1"
    try:
        single = workloads.execute(req)
    finally:
        os.environ[THREADS_ENV] = saved
    if fingerprint(single) != fingerprint(out):
        return [f"thread invariance: {single!r} with 1 thread vs {out!r} with {saved}"]
    return []


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def traced_run(workload: str, seed: int) -> tuple[dict, dict, list[str], int]:
    import oracle
    import tracing
    import workloads

    warm_up(workload, workloads)
    tracer = tracing.Tracer()
    cli_samples: dict[str, list[float]] = {"interp_start_ms": [], "import_ms": [], "exit_nonzero": []}
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    child_trace = out_dir / f"cli-trace-{os.getpid()}.json"
    op = 0

    def traced_execute(req: dict):
        nonlocal op
        tracer.op = op
        op += 1
        if workload != "cli-cold":
            return workloads.execute(req)
        prefix = [str(HERE / "cli_child.py"), str(child_trace), repr(time.time())]
        result = workloads.run_cli(req["argv"], prefix=prefix)
        child = json.loads(child_trace.read_text())
        child_trace.unlink()
        tracer.merge(child, tracer.op)
        for key in ("interp_start_ms", "import_ms"):
            cli_samples[key].append(child["cli"][key])
        return result

    rounds = workloads.TRACE_ROUNDS[workload]
    failures: list[str] = []
    prints: list[str] = []
    traced_s = 0.0
    for r in range(rounds):
        requests = workloads.generate_round(workload, seed, r)
        tracer.install()
        try:
            outputs, latencies = run_round(requests, traced_execute)
        finally:
            tracer.uninstall()
        traced_s += sum(latencies)
        failures += check_all(requests, outputs, workloads, oracle)
        prints += [fingerprint(out) for out in outputs]
        if workload == "cli-cold":
            cli_samples["exit_nonzero"] += [int(out.code != 0) for out in outputs]

    plain_s = 0.0
    i = 0
    for r in range(rounds):
        requests = workloads.generate_round(workload, seed, r)
        outputs, latencies = run_round(requests, workloads.execute)
        plain_s += sum(latencies)
        for req, out in zip(requests, outputs):
            if fingerprint(out) != prints[i]:
                failures.append(f"{req['kind']}: traced result differs from untraced: {prints[i]} vs {out!r}"[:500])
            i += 1

    metrics = tracing.layer_metrics(tracer, cli_samples, traced_s / plain_s)
    trace_path = out_dir / f"trace-{workload}-seed{seed}.json"
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, **tracer.dump()}, fh, separators=(",", ":"))
    extra = {
        "traced_wall_s": (traced_s, "s"),
        "untraced_wall_s": (plain_s, "s"),
        "fail_frac": (len(failures) / i, f"ratio ({len(failures)}/{i})"),
        "spans": (len(tracer.spans), f"count, written to {trace_path.relative_to(ROOT)}"),
    }
    return metrics, extra, failures, i


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pfdr_sizer" / "__init__.py").is_file():
        print(f"error: no pfdr_sizer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    os.environ["PERFBENCH_ROOT"] = str(ROOT)
    # Monte Carlo runs on every core; nothing else reads this variable
    os.environ[THREADS_ENV] = str(nproc())

    if args.trace:
        metrics, extra, failures, attempted = traced_run(args.workload, args.seed)
    else:
        metrics, extra, failures, attempted = measured_run(args.workload, args.seed, args.seconds)

    print(f"# {args.workload} trace={args.trace} run record: {json.dumps(run_record(args.seed))}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} {value:.6g} {unit}")
    for why in failures[:20]:
        print(f"FAILED {why}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
