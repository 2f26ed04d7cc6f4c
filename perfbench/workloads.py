"""Seeded request generation and execution for the four benchmark workloads.

A workload is a sequence of rounds.  Each round has a fixed composition of
request kinds, and scalar inputs follow seeded low-discrepancy sequences
across rounds (RoundDraws), so two seeds differ in values but not in the mix
of work; that keeps throughput and latency comparable between runs without
repeating a request.  Round r of seed s depends only on (s, workload, r), so
the inputs do not depend on how many rounds a run gets through.

Requests are plain dicts.  execute() turns one into one public call into
pfdr_sizer (or one CLI process for cli-cold) and returns what came back.
Calls go through module attributes looked up at call time, so the tracer's
wrappers see them.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

import pfdr_sizer as pf
from pfdr_sizer import ldp_engine, mc_verify

WORKLOADS = ("exact-plans", "rate-plans", "mc-verify", "cli-cold")

# rounds run by the traced pass: about the same op time as one untraced run
TRACE_ROUNDS = {"exact-plans": 60, "rate-plans": 200, "mc-verify": 2, "cli-cold": 1}

ALPHAS = (0.01, 0.05, 0.1)
PIS = (0.01, 0.1, 0.3)

MC_FAMILIES = mc_verify.SHIFT_FAMILIES + mc_verify.SCORE_FAMILIES
# families whose Monte Carlo references come from the stored catalogue
CATALOGUE_FAMILIES = ("uniform", "gamma", "cauchy-score", "gamma-score")
CATALOGUE_PARAMS = {
    "uniform": {"width": 1.0},
    "gamma": {"shape": 2.0},
    "cauchy-score": {},
    "gamma-score": {},
}
# size classes for tail-ratio requests: (n, m, null rejection probability
# range, T for the catalogue).  Rare thresholds go with small sizes and
# common ones with large sizes, so every request draws about 1.5e7 numbers;
# sizes and trials are fixed per class, so the cost mix of a round does not
# depend on the seed, while the threshold, T and scale vary
MC_CLASSES = (
    (20, 20, (1.0e-3, 1.5e-3), 0.5),
    (60, 50, (2.5e-3, 4.0e-3), 1.0),
    (150, 150, (7.0e-3, 1.0e-2), 2.0),
)
# expected null tail hits at the most extreme threshold of a class
MC_HITS_TARGET = 250
# trials (or batches) multiplier per family, inverse to its cost per draw at
# the baseline commit, so that every Monte Carlo request takes about the
# same time: the latency distribution then has one mode and its median does
# not jump between per-family clusters.  Only trial counts change, so the
# stored references still target the same estimands.
MC_FAMILY_SCALE = {
    "normal": 1.7,
    "uniform": 3.3,
    "gamma": 1.0,
    "normal-score": 1.7,
    "cauchy-score": 0.67,
    "gamma-score": 0.55,
}
MC_MIN_HITS = 50
SIM_BATCH_NULLS = 5000
SIM_EFFECT_SCENARIO = {"n": 50, "m": 50, "pi": 0.2, "p_null": 1e-2, "batches": 20}
SIM_EFFECTS = {"uniform": 0.05, "gamma": 0.3, "cauchy-score": 0.3, "gamma-score": 0.3}

CLI_TIMEOUT_S = 60.0


def _primes(count: int) -> list[int]:
    found: list[int] = []
    k = 2
    while len(found) < count:
        if all(k % q for q in found if q * q <= k):
            found.append(k)
        k += 1
    return found


# Weyl steps frac(sqrt(prime)): rationally independent, so the points of
# different input dimensions fill their joint range evenly across rounds
_STEPS = [math.sqrt(q) % 1.0 for q in _primes(256)]


class RoundDraws:
    """Seeded inputs for one round of one workload.

    Scalar inputs follow Weyl sequences across rounds: the d-th scalar of
    every round takes the value frac(offset_d + round * step_d), with
    offset_d drawn from the seed.  A run of R rounds therefore covers each
    input range about as evenly as R stratified draws, whatever the seed,
    while no two rounds or seeds repeat a value.  Each round must draw its
    scalars in the same order, with any round-dependent branch at its end.
    Bulk randomness (pilot samples, mixture atoms, stream seeds, order)
    comes from rng, a generator keyed by (seed, workload, round).
    """

    def __init__(self, seed: int, workload: str, round_index: int):
        wid = WORKLOADS.index(workload)
        self.rng = np.random.default_rng([seed, wid, round_index])
        self._offsets = np.random.default_rng([seed, wid, 2**32 - 1])
        self._round = round_index
        self._dim = 0

    def unit(self) -> float:
        step = _STEPS[self._dim % len(_STEPS)]
        self._dim += 1
        return (self._offsets.random() + self._round * step) % 1.0

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.unit()

    def log_uniform(self, lo: float, hi: float) -> float:
        return float(math.exp(self.uniform(math.log(lo), math.log(hi))))

    def integers(self, lo: int, hi: int) -> int:
        """An integer in [lo, hi]."""
        return min(hi, lo + int((hi - lo + 1) * self.unit()))

    def choice(self, options):
        return options[min(len(options) - 1, int(len(options) * self.unit()))]

    def strata(self, lo: float, hi: float, k: int) -> list[float]:
        """One value from each of k equal slices of [lo, hi], in slice order.

        The order stays fixed so that slice j always pairs with the same
        dimensions of the request it feeds; generate_round shuffles the
        requests themselves.
        """
        return [lo + (hi - lo) * (j + self.unit()) / k for j in range(k)]


def _target(dr: RoundDraws) -> dict:
    return {"alpha": float(dr.choice(ALPHAS)), "pi": float(dr.choice(PIS))}


def generate_round(workload: str, seed: int, round_index: int) -> list[dict]:
    dr = RoundDraws(seed, workload, round_index)
    reqs = _GENERATORS[workload](dr, round_index)
    order = dr.rng.permutation(len(reqs))
    return [reqs[i] for i in order]


# ---------------------------------------------------------------------------
# exact-plans


def _mixture_atoms(dr: RoundDraws, k: int) -> list[tuple[float, float]]:
    locs = dr.rng.uniform(0.5, 2.0, k)
    w = dr.rng.dirichlet(np.ones(k))
    w = w / w.sum()
    return [(float(a), float(b)) for a, b in zip(locs, w)]


def _gen_exact(dr: RoundDraws, round_index: int) -> list[dict]:
    reqs = []
    for log_r in dr.strata(-3.0, 0.0, 8):
        reqs.append({"kind": "plan_t", **_target(dr), "r": 10.0**log_r})
    for log_p in dr.strata(0.0, 4.0, 6):
        reqs.append(
            {
                "kind": "plan_f",
                **_target(dr),
                "p": int(round(10.0**log_p)),
                "delta": dr.uniform(1e-2, 1.0),
            }
        )
    for log_k in dr.strata(1.0, 7.0, 3):
        reqs.append(
            {
                "kind": "plan_t_mixture",
                **_target(dr),
                "atoms": _mixture_atoms(dr, int(round(2.0**log_k))),
                "scale": dr.log_uniform(1e-3, 1.0),
            }
        )
    # a request whose n_max is too small: tiny effects keep the ratio far
    # below every Q in the target grid, so NotAttainableError is expected
    req = {**_target(dr), "n_max": dr.integers(1, 10), "expect_error": "NotAttainableError"}
    kind = ("plan_t", "plan_f", "plan_t_mixture")[round_index % 3]
    if kind == "plan_t":
        req.update(kind=kind, r=dr.log_uniform(1e-3, 1e-2))
    elif kind == "plan_f":
        req.update(kind=kind, p=int(round(dr.log_uniform(1.0, 1e4))), delta=dr.uniform(1e-2, 2e-2))
    else:
        req.update(kind=kind, atoms=_mixture_atoms(dr, dr.integers(2, 8)),
                   scale=dr.log_uniform(1e-3, 10.0**-2.5))
    reqs.append(req)
    return reqs


# ---------------------------------------------------------------------------
# rate-plans


EMPIRICAL_T_GRID = (-2.0, 2.0)


def empirical_edge_slope(pilot: np.ndarray) -> float:
    """Tilted mean of the centred pilot at the upper edge of its cgf domain.

    Mirrors the domain rule of empirical_cgf (grid hull cut to keep every
    exponent under 700) with plain numpy, so slopes can be drawn inside the
    derivative range without calling the package.
    """
    x = pilot - pilot.mean()
    sup = min(EMPIRICAL_T_GRID[1], 700.0 / x.max())
    w = np.exp(sup * x - sup * x.max())
    return float((x * w).sum() / w.sum())


def _pilot(dr: RoundDraws, lo: float, hi: float) -> np.ndarray:
    """Gamma-distributed pilot sample of log-uniform size in [lo, hi]."""
    size = int(round(dr.log_uniform(lo, hi)))
    return dr.rng.standard_gamma(dr.uniform(1.0, 4.0), size)


def _families(dr: RoundDraws) -> dict[str, dict]:
    return {
        "normal": {"family": "normal", "sigma": dr.uniform(0.5, 2.0)},
        "uniform": {"family": "uniform", "width": dr.uniform(0.5, 3.0)},
        "gamma": {"family": "gamma", "shape": dr.log_uniform(0.3, 4.0), "scale": dr.uniform(0.5, 2.0)},
    }


def _gen_rate(dr: RoundDraws, round_index: int) -> list[dict]:
    reqs = []
    for fam in _families(dr).values():
        reqs.append(
            {
                "kind": "n_star_general",
                **_target(dr),
                **fam,
                "rho": dr.uniform(0.1, 0.9),
                "d": dr.uniform(0.05, 1.0),
            }
        )
    reqs.append(
        {
            "kind": "n_star_general",
            **_target(dr),
            "family": "empirical",
            "pilot": _pilot(dr, 1e3, 1e5),
            "rho": dr.uniform(0.1, 0.9),
            "d": dr.uniform(0.05, 1.0),
        }
    )
    for model in ("normal-score", "cauchy-score", "gamma-score"):
        reqs.append(
            {
                "kind": "n_star_score",
                **_target(dr),
                "model": model,
                "sigma": dr.uniform(0.5, 2.0),
                "rho": dr.uniform(0.1, 0.9),
                "theta": dr.uniform(0.05, 1.0),
            }
        )
    for fam in _families(dr).values():
        reqs.append({"kind": "optimal_split", **fam})
    # an empirical cgf has a finite domain, so the split search meets a
    # fraction whose tilt root lies beyond it: RootBracketError is expected
    reqs.append({"kind": "optimal_split", "family": "empirical", "pilot": _pilot(dr, 1e3, 1e4)})
    fams = _families(dr)
    reqs.append({"kind": "legendre", **fams["normal"], "u": dr.uniform(0.05, 2.0)})
    width = fams["uniform"]["width"]
    reqs.append({"kind": "legendre", **fams["uniform"], "u": width * dr.uniform(0.01, 0.45)})
    reqs.append({"kind": "legendre", **fams["gamma"], "u": dr.uniform(0.05, 3.0)})
    pilot = _pilot(dr, 1e3, 1e5)
    reqs.append(
        {
            "kind": "legendre",
            "family": "empirical",
            "pilot": pilot,
            "u": dr.uniform(0.05, 0.8) * empirical_edge_slope(pilot),
        }
    )
    # slopes at or above half the width lie outside the uniform cgf's range
    width = dr.uniform(0.5, 3.0)
    reqs.append(
        {
            "kind": "legendre",
            "family": "uniform",
            "width": width,
            "u": width * dr.uniform(0.55, 1.0),
            "expect_error": "RootRangeError",
        }
    )
    for name in ("normal", "gamma"):
        spec = _families(dr)[name]
        n = dr.integers(50, 500)
        sd = spec["sigma"] if name == "normal" else spec["scale"] * math.sqrt(spec["shape"])
        # u several standard errors out keeps the tail in the large-deviation regime
        reqs.append(
            {"kind": "bahadur_rao_tail", **spec, "n": n, "u": sd * dr.uniform(4.0, 8.0) / math.sqrt(n)}
        )
    reqs.append({"kind": "k_f", "shift": dr.uniform(-1.0, 1.0), "scale": dr.uniform(0.5, 2.0)})
    return reqs


# ---------------------------------------------------------------------------
# mc-verify


def _z0(p_null: float, n: int, m: int) -> float:
    """Threshold whose null rejection probability is p_null for normal data."""
    from scipy import stats

    return float(stats.t.isf(p_null, m)) / math.sqrt(n)


def _gen_mc(dr: RoundDraws, round_index: int) -> list[dict]:
    catalogue = catalogue_requests()
    reqs = []
    for i, fam in enumerate(MC_FAMILIES):
        cls = (i + round_index) % len(MC_CLASSES)
        seed = int(dr.rng.integers(0, 2**31))
        scale = MC_FAMILY_SCALE[fam]
        if fam in CATALOGUE_FAMILIES:
            ref = f"tail:{fam}:{cls}"
            trials = int(round(catalogue[ref]["trials"] * scale))
            reqs.append({**catalogue[ref], "trials": trials, "seed": seed, "ref": ref})
            continue
        n, m, (p_lo, p_hi), _ = MC_CLASSES[cls]
        reqs.append(
            {
                "kind": "tail_ratio_mc",
                "family": fam,
                "params": {"sigma": dr.uniform(0.5, 2.0)},
                "n": n,
                "m": m,
                "z0": _z0(dr.log_uniform(p_lo, p_hi), n, m),
                "trials": int(round(MC_HITS_TARGET / p_lo * scale)),
                "t_target": dr.uniform(0.5, 2.0),
                "seed": seed,
                "ref": "exact-normal",
            }
        )
    # zero effect: rejections carry no information about theta, so the
    # estimator's expectation is exactly 1 - pi for every family
    pi, sigma, shape = dr.uniform(0.1, 0.9), dr.uniform(0.5, 2.0), dr.uniform(1.0, 4.0)
    fam = MC_FAMILIES[round_index % len(MC_FAMILIES)]
    params = {"normal": {"sigma": sigma}, "normal-score": {"sigma": sigma}, "gamma": {"shape": shape}}
    sc = SIM_EFFECT_SCENARIO
    reqs.append(
        {
            "kind": "simulate_pfdr",
            "family": fam,
            "params": params.get(fam, CATALOGUE_PARAMS.get(fam, {})),
            "effect": 0.0,
            "pi": pi,
            "n": sc["n"],
            "m": sc["m"],
            "z0": _z0(sc["p_null"], sc["n"], sc["m"]),
            "trials": int(round(sc["batches"] * MC_FAMILY_SCALE[fam])),
            "seed": int(dr.rng.integers(0, 2**31)),
            "ref": "one-minus-pi",
        }
    )
    fam = CATALOGUE_FAMILIES[round_index % len(CATALOGUE_FAMILIES)]
    sim = catalogue[f"sim:{fam}"]
    reqs.append(
        {
            **sim,
            "trials": int(round(sim["trials"] * MC_FAMILY_SCALE[fam])),
            "seed": int(dr.rng.integers(0, 2**31)),
            "ref": f"sim:{fam}",
        }
    )
    return reqs


def catalogue_requests() -> dict[str, dict]:
    """The fixed scenarios whose references are stored, keyed by ref name."""
    out = {}
    for fam in CATALOGUE_FAMILIES:
        for cls, (n, m, (p_null, _), t_target) in enumerate(MC_CLASSES):
            out[f"tail:{fam}:{cls}"] = {
                "kind": "tail_ratio_mc",
                "family": fam,
                "params": dict(CATALOGUE_PARAMS[fam]),
                "n": n,
                "m": m,
                "z0": _z0(p_null, n, m),
                "trials": int(round(MC_HITS_TARGET / p_null)),
                "t_target": t_target,
            }
        sc = SIM_EFFECT_SCENARIO
        out[f"sim:{fam}"] = {
            "kind": "simulate_pfdr",
            "family": fam,
            "params": dict(CATALOGUE_PARAMS[fam]),
            "effect": SIM_EFFECTS[fam],
            "pi": sc["pi"],
            "n": sc["n"],
            "m": sc["m"],
            "z0": _z0(sc["p_null"], sc["n"], sc["m"]),
            "trials": sc["batches"],
        }
    return out


# ---------------------------------------------------------------------------
# cli-cold


def _gen_cli(dr: RoundDraws, round_index: int) -> list[dict]:
    def f(x: float) -> str:
        return repr(float(x))

    def target() -> list[str]:
        t = _target(dr)
        return ["--alpha", f(t["alpha"]), "--pi", f(t["pi"])]

    atoms = _mixture_atoms(dr, dr.integers(2, 8))
    sigma, width = dr.uniform(0.5, 2.0), dr.uniform(0.5, 3.0)
    fam_args = {
        "normal": ["--sigma", f(sigma)],
        "uniform": ["--width", f(width)],
        "gamma": ["--shape", f(dr.uniform(0.3, 4.0)), "--scale", f(dr.uniform(0.5, 2.0))],
    }
    general = dr.choice(("normal", "uniform", "gamma"))
    split = dr.choice(("normal", "uniform", "gamma"))
    info = dr.choice(MC_FAMILIES)
    n, m = dr.integers(10, 30), dr.integers(10, 30)
    p_null = 1e-2
    runs = [
        (0, ["plan-t", *target(), "--snr", f(dr.log_uniform(1e-2, 1.0))]),
        (0, ["plan-f", *target(), "--delta", f(dr.uniform(0.05, 1.0)), "--p", str(dr.integers(1, 100))]),
        (0, ["plan-t-mixture", *target(), "--atoms", ",".join(f"{a!r}:{w!r}" for a, w in atoms),
             "--scale", f(dr.log_uniform(1e-2, 1.0))]),
        (0, ["plan-general", *target(), "--family", general, *fam_args[general],
             "--effect", f(dr.uniform(0.05, 1.0)), "--rho", f(dr.uniform(0.1, 0.9))]),
        (0, ["plan-score", *target(), "--family", dr.choice(mc_verify.SCORE_FAMILIES),
             "--sigma", f(dr.uniform(0.5, 2.0)), "--effect", f(dr.uniform(0.05, 1.0)),
             "--rho", f(dr.uniform(0.1, 0.9))]),
        (0, ["optimize-split", "--family", split, *fam_args[split]]),
        (0, ["simulate", "--family", "normal", "--estimand", "tail-ratio",
             "--sigma", f(dr.uniform(0.5, 2.0)), "--n", str(n), "--m", str(m),
             "--trials", str(int(MC_HITS_TARGET / p_null)), "--z0", f(_z0(p_null, n, m)),
             "--t-target", f(dr.uniform(0.5, 2.0)), "--min-hits", str(MC_MIN_HITS),
             "--seed", str(int(dr.rng.integers(0, 2**31)))]),
        # uniform slopes must stay below half the width, the edge of its cgf range
        (0, ["ldp-info", "--family", info, *fam_args.get(info, []),
             "--rho", f(dr.uniform(0.1, 0.9)),
             "--u", f(dr.uniform(0.05, 0.4) * (width if info == "uniform" else 1.0))]),
        (1, ["plan-t", *target(), "--snr", f(dr.log_uniform(1e-3, 1e-2)),
             "--n-max", str(dr.integers(1, 10))]),
    ]
    usage = (
        ["plan-f", *target(), "--delta", "0.3"],  # missing --p
        ["plan-t", "--alpha", f(dr.uniform(1.0, 2.0)), "--pi", "0.1", "--snr", "0.1"],
        ["optimize-split", "--family", "cauchy"],  # not a choice
    )
    runs.append((2, usage[round_index % len(usage)]))
    return [{"kind": "cli", "argv": argv, "expect_exit": code} for code, argv in runs]


_GENERATORS = {
    "exact-plans": _gen_exact,
    "rate-plans": _gen_rate,
    "mc-verify": _gen_mc,
    "cli-cold": _gen_cli,
}


# ---------------------------------------------------------------------------
# warm-up: one small request of each operation kind, fixed literals


def warmup_requests(workload: str) -> list[dict]:
    t = {"alpha": 0.05, "pi": 0.1}
    if workload == "exact-plans":
        return [
            {"kind": "plan_t", **t, "r": 0.1},
            {"kind": "plan_f", **t, "p": 10, "delta": 0.3},
            {"kind": "plan_t_mixture", **t, "atoms": [(1.0, 0.5), (2.0, 0.5)], "scale": 0.1},
        ]
    if workload == "rate-plans":
        pilot = np.linspace(0.0, 1.0, 1000) ** 2
        g = {"family": "gamma", "shape": 2.0, "scale": 1.0}
        return [
            {"kind": "n_star_general", **t, **g, "rho": 0.5, "d": 0.3},
            {"kind": "n_star_score", **t, "model": "gamma-score", "sigma": 1.0, "rho": 0.5, "theta": 0.3},
            {"kind": "optimal_split", **g},
            {"kind": "legendre", "family": "empirical", "pilot": pilot, "u": 0.1},
            {"kind": "bahadur_rao_tail", **g, "n": 100, "u": 0.8},
            {"kind": "k_f", "shift": 0.0, "scale": 1.0},
        ]
    if workload == "mc-verify":
        base = {"family": "normal", "params": {}, "n": 5, "m": 5, "z0": 0.5, "seed": 1}
        return [
            {"kind": "tail_ratio_mc", **base, "trials": 2000, "t_target": 1.0},
            {"kind": "simulate_pfdr", **base, "effect": 0.0, "pi": 0.5, "trials": 2},
        ]
    return [
        {"kind": "cli", "argv": a, "expect_exit": 0}
        for a in (
            ["plan-t", "--alpha", "0.05", "--pi", "0.1", "--snr", "0.1"],
            ["plan-f", "--alpha", "0.05", "--pi", "0.1", "--delta", "0.3", "--p", "10"],
            ["plan-t-mixture", "--alpha", "0.05", "--pi", "0.1", "--atoms", "1:0.5,2:0.5"],
            ["plan-general", "--alpha", "0.05", "--pi", "0.1", "--family", "normal",
             "--effect", "0.3", "--rho", "0.5"],
            ["plan-score", "--alpha", "0.05", "--pi", "0.1", "--family", "gamma-score",
             "--effect", "0.3", "--rho", "0.5"],
            ["optimize-split", "--family", "normal"],
            ["simulate", "--family", "normal", "--n", "5", "--m", "5", "--trials", "2",
             "--z0", "0.5", "--batch-nulls", "1000"],
            ["ldp-info", "--family", "uniform", "--u", "0.2"],
        )
    ]


# ---------------------------------------------------------------------------
# execution


def _data_model(req: dict):
    fam = req["family"]
    if fam == "empirical":
        return pf.empirical_cgf(req["pilot"], EMPIRICAL_T_GRID), ldp_engine.TailIndex()
    if fam == "normal":
        return pf.make_family("normal", sigma=req["sigma"])
    if fam == "uniform":
        return pf.make_family("uniform", width=req["width"])
    return pf.make_family("gamma", shape=req["shape"], scale=req["scale"])


def _scenario(req: dict, effect: float) -> "pf.SimScenario":
    return pf.SimScenario(
        family=req["family"],
        effect=effect,
        pi=req.get("pi", 0.5),
        n=req["n"],
        m=req["m"],
        schedule=pf.ThresholdSchedule(kind="fixed", z0=req["z0"]),
        trials=req["trials"],
        seed=req["seed"],
        params=dict(req["params"]),
    )


def _shifted_gamma_score(shift: float, scale: float):
    density = ldp_engine.gamma_score_density
    return lambda z: density((z - shift) / scale) / scale


def execute(req: dict):
    """Run one request; returns the library's result or raises its error."""
    kind = req["kind"]
    if kind == "plan_t":
        return pf.plan_t(
            pf.PfdrTarget(req["alpha"], req["pi"]),
            pf.SnrEffect(req["r"]),
            n_max=req.get("n_max", 10_000_000),
        )
    if kind == "plan_f":
        return pf.plan_f(
            pf.PfdrTarget(req["alpha"], req["pi"]),
            pf.FEffect(req["delta"], req["p"]),
            n_max=req.get("n_max", 10_000_000),
        )
    if kind == "plan_t_mixture":
        return pf.plan_t_mixture(
            pf.PfdrTarget(req["alpha"], req["pi"]),
            pf.SnrMixture(atoms=tuple(req["atoms"]), scale=req["scale"]),
            n_max=req.get("n_max", 10_000_000),
        )
    if kind == "n_star_general":
        cgf, tail = _data_model(req)
        return pf.n_star_general(
            pf.PfdrTarget(req["alpha"], req["pi"]), cgf, tail, pf.SplitSpec(req["rho"]), req["d"]
        )
    if kind == "n_star_score":
        model = pf.make_score_model(req["model"], sigma=req["sigma"])
        return pf.n_star_score(
            pf.PfdrTarget(req["alpha"], req["pi"]), model, pf.SplitSpec(req["rho"]), req["theta"]
        )
    if kind == "optimal_split":
        return pf.optimal_split(*_data_model(req))
    if kind == "legendre":
        cgf, _ = _data_model(req)
        return pf.legendre(cgf, req["u"])
    if kind == "bahadur_rao_tail":
        cgf, _ = _data_model(req)
        return pf.bahadur_rao_tail(cgf, req["u"], req["n"])
    if kind == "k_f":
        return pf.k_f(_shifted_gamma_score(req["shift"], req["scale"]))
    if kind == "tail_ratio_mc":
        return pf.tail_ratio_mc(
            _scenario(req, 0.0), req["t_target"], min_hits=req.get("min_hits", MC_MIN_HITS)
        )
    if kind == "simulate_pfdr":
        return pf.simulate_pfdr(_scenario(req, req["effect"]), batch_nulls=SIM_BATCH_NULLS)
    if kind == "cli":
        return run_cli(req["argv"])
    raise ValueError(f"unknown request kind {kind!r}")


@dataclass
class CliResult:
    """Exit code and output of one CLI process, plus its peak memory."""

    code: int
    stdout: str
    stderr: str
    maxrss_kb: int = field(repr=False, compare=False)


def run_cli(argv: list[str], prefix: list[str] | None = None) -> CliResult:
    """Run one fresh CLI process and reap it with its resource usage.

    Output goes to files rather than pipes so the child can never block on a
    full pipe while the parent waits; a timer kills a child that overruns.
    """
    root = os.environ["PERFBENCH_ROOT"]
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [sys.executable] + (prefix or ["-m", "pfdr_sizer.cli"]) + list(argv)
    out_path = os.path.join(out_dir, f"cli-{os.getpid()}.out")
    err_path = os.path.join(out_dir, f"cli-{os.getpid()}.err")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")]))
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=root, env=env)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    os.unlink(out_path)
    os.unlink(err_path)
    return CliResult(proc.returncode, stdout, stderr, usage.ru_maxrss)
