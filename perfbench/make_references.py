"""Regenerate mc_references.json, the long-run Monte Carlo references.

Each catalogue scenario of the mc-verify workload is estimated once with
REFERENCE_FACTOR times the trials (or batches) a benchmark request uses.
The estimates come from the sampler in this file, which does not call
pfdr_sizer: it draws from numpy's default generator in its own layout and
applies the Studentized rejection rule as mc_verify's module docstring
defines it.  Each estimate is stored with its own standard error.  Run from
the repository root:

    python3 perfbench/make_references.py

This takes about five minutes on one core.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from oracle import REFERENCES_PATH  # noqa: E402

REFERENCE_FACTOR = 20
REFERENCE_SEED = 20261018
# nulls drawn at once, to bound memory
CHUNK = 20_000
EULER_GAMMA = 0.5772156649015328606


def _scale(pairs: np.ndarray) -> np.ndarray:
    """S = sqrt((1/2m) sum over the m pairs of squared differences)."""
    size, two_m = pairs.shape
    d = np.diff(pairs.reshape(size, two_m // 2, 2), axis=2)[..., 0]
    return np.sqrt((d * d).sum(axis=1) / two_m)


def _observations(rng, family: str, params: dict, shape: tuple, effect: float):
    """(null, shifted) observations after the family's transform.

    Shift families return centred data and the same data plus the effect.
    Score families shift the underlying observation by the effect and
    return the score of both.
    """
    if family == "uniform":
        x = params["width"] * rng.uniform(-0.5, 0.5, shape)
        return x, x + effect
    if family == "gamma":
        k = params["shape"]
        x = rng.gamma(k, 1.0, shape) - k
        return x, x + effect
    if family == "cauchy-score":
        w = rng.standard_cauchy(shape)
        return 2.0 * w / (1.0 + w * w), 2.0 * (w + effect) / (1.0 + (w + effect) ** 2)
    if family == "gamma-score":
        # unit-rate exponential data; the shifted observation adds an
        # independent Gamma(effect), so its density is the shifted one
        w = rng.exponential(1.0, shape)
        shifted = w + rng.gamma(effect, 1.0, shape) if effect > 0.0 else w
        return np.log(w) + EULER_GAMMA, np.log(shifted) + EULER_GAMMA
    raise ValueError(f"no reference sampler for family {family!r}")


def _statistics(rng, req: dict, size: int, effect: float):
    """Mean and scale of size nulls, without and with the effect."""
    x0, x1 = _observations(rng, req["family"], req["params"], (size, req["n"]), effect)
    y0, y1 = _observations(rng, req["family"], req["params"], (size, 2 * req["m"]), effect)
    return x0.mean(axis=1), _scale(y0), x1.mean(axis=1), _scale(y1)


def tail_ratio(rng, req: dict) -> tuple[float, float]:
    """P(reject | shift T/N) / P(reject | null) on common draws, and its SE."""
    d = req["t_target"] / (req["n"] + req["m"])
    z = req["z0"]
    num = den = joint = 0
    for start in range(0, req["trials"], CHUNK):
        size = min(CHUNK, req["trials"] - start)
        m0, s0, m1, s1 = _statistics(rng, req, size, d)
        a, b = m1 >= z * s1, m0 >= z * s0
        num += int(a.sum())
        den += int(b.sum())
        joint += int((a & b).sum())
    t = req["trials"]
    ratio = num / den
    # delta method on the per-trial indicators: Var(a - ratio * b) / (T p_b^2)
    var = (num + ratio * ratio * den - 2.0 * ratio * joint) / t / (den / t) ** 2
    return ratio, math.sqrt(max(var, 0.0) / t)


def pfdr(rng, req: dict) -> tuple[float, float]:
    """Mean over batches with a rejection of V/R, and its SE."""
    z = req["z0"]
    nulls = workloads.SIM_BATCH_NULLS
    ratios = []
    for _ in range(req["trials"]):
        false = rng.random(nulls) < req["pi"]
        m0, s0, m1, s1 = _statistics(rng, req, nulls, req["effect"])
        reject = np.where(false, m1 >= z * s1, m0 >= z * s0)
        r = int(reject.sum())
        if r:
            ratios.append(int((reject & ~false).sum()) / r)
    ratios = np.array(ratios)
    return float(ratios.mean()), float(ratios.std(ddof=1) / math.sqrt(ratios.size))


def main() -> None:
    refs = {}
    for i, (name, req) in enumerate(sorted(workloads.catalogue_requests().items())):
        req = dict(req, trials=req["trials"] * REFERENCE_FACTOR)
        rng = np.random.default_rng([REFERENCE_SEED, i])
        start = time.perf_counter()
        value, se = (tail_ratio if req["kind"] == "tail_ratio_mc" else pfdr)(rng, req)
        refs[name] = {"value": value, "stderr": se, "trials": req["trials"], "seed": [REFERENCE_SEED, i]}
        print(f"{name}: {value:.6f} +/- {se:.6f} ({time.perf_counter() - start:.1f} s)", flush=True)
    record = {
        "factor": REFERENCE_FACTOR,
        "sampler": "perfbench/make_references.py, numpy default_rng",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "references": refs,
    }
    with open(REFERENCES_PATH, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
