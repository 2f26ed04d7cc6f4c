"""Independent correctness gate for every benchmark request.

Nothing here calls pfdr_sizer.  Exact plans are checked at the crossing
with confluent hypergeometric closed forms (scipy.special.hyp1f1, with an
mpmath fallback where scipy returns a non-finite value); rate plans against
closed forms or scipy's brentq on independently written cgf derivatives;
Monte Carlo results against exact references (normal families, and 1 - pi
for zero effect) or stored long-run ones (the other four families), which
make_references.py draws with a numpy sampler of its own.

check(req, out) returns None when the result is right and a one-line reason
when it is not.  An exception the request did not expect is a failure, and
so is an expected typed error that did not appear.
"""

from __future__ import annotations

import json
import math
import os
import sys
from types import SimpleNamespace

import numpy as np
from scipy import optimize, special

from workloads import EMPIRICAL_T_GRID

EULER_GAMMA = 0.5772156649015328606
# relative slack on crossings and boundary decisions: the series and the
# closed forms agree to about 1e-11, so only true near-ties fall inside
TIE_TOL = 1e-9
# Monte Carlo results must sit within this many combined standard errors
MC_SIGMAS = 4.0

_HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES_PATH = os.path.join(_HERE, "mc_references.json")

sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "tests"))
from oracles import studentized_tail_ratio_exact  # noqa: E402


def q_threshold(alpha: float, pi: float) -> float:
    return (1.0 - alpha) * (1.0 - pi) / (alpha * pi)


# ---------------------------------------------------------------------------
# density-ratio suprema in closed form


def _mp_hyp1f1(a: float, b: float, x: float) -> float:
    import mpmath

    return float(mpmath.hyp1f1(mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)))


def _hyp1f1(a: float, b: float, x: float) -> float:
    v = float(special.hyp1f1(a, b, x))
    return v if math.isfinite(v) else _mp_hyp1f1(a, b, x)


def lr_t(n: int, r: float) -> float:
    """L(n, r) = e^-x [M((n+1)/2, 1/2, x) + sqrt2 d G((n+2)/2)/G((n+1)/2) M((n+2)/2, 3/2, x)]."""
    d = math.sqrt(n + 1.0) * r
    x = 0.5 * d * d
    c = math.sqrt(2.0) * d * math.exp(special.gammaln(0.5 * (n + 2)) - special.gammaln(0.5 * (n + 1)))
    return math.exp(-x) * (_hyp1f1(0.5 * (n + 1), 0.5, x) + c * _hyp1f1(0.5 * (n + 2), 1.5, x))


def lr_f(p: int, n: int, delta: float) -> float:
    """K(p, n, delta) = M(-n/2, p/2, -A), the Kummer-transformed form."""
    a = 0.5 * (n + p) * delta * delta
    return _hyp1f1(-0.5 * n, 0.5 * p, -a)


def lr_mixture(n: int, atoms, scale: float) -> float:
    return sum(w * lr_t(n, scale * r) for r, w in atoms)


def _rho_fn(req: dict):
    kind = req["kind"]
    if kind == "plan_t":
        return lambda n: lr_t(n, req["r"])
    if kind == "plan_f":
        return lambda n: lr_f(req["p"], n, req["delta"])
    return lambda n: lr_mixture(n, req["atoms"], req["scale"])


def _check_crossing(req: dict, n: int | None, q_value: float) -> str | None:
    q = q_threshold(req["alpha"], req["pi"])
    if abs(q_value / q - 1.0) > 1e-14:
        return f"Q {q_value!r} differs from {q!r}"
    if n is None or n < 1:
        return f"n_exact {n!r} is not a positive integer"
    rho = _rho_fn(req)
    at = rho(n)
    if not at >= q * (1.0 - TIE_TOL):
        return f"rho({n}) = {at:.17g} is below Q = {q:.17g}"
    if n > 1:
        below = rho(n - 1)
        if not below < q * (1.0 + TIE_TOL):
            return f"rho({n - 1}) = {below:.17g} already reaches Q = {q:.17g}"
    return None


def _check_not_attainable(req: dict, exc) -> str | None:
    q = q_threshold(req["alpha"], req["pi"])
    if exc.n_max != req["n_max"]:
        return f"error reports n_max {exc.n_max}, request had {req['n_max']}"
    at = _rho_fn(req)(req["n_max"])
    if not at < q * (1.0 + TIE_TOL):
        return f"rho(n_max) = {at:.17g} reaches Q = {q:.17g}; the plan was attainable"
    return None


# ---------------------------------------------------------------------------
# cgf oracles: (Lambda, Lambda') per family, written from the formulas


def _uniform_lam(w: float):
    def lam(t: float) -> float:
        s = abs(w * t)
        return 0.5 * s + math.log(-math.expm1(-s)) - math.log(s)

    def lam1(t: float) -> float:
        s = w * t
        return w * (0.5 / math.tanh(0.5 * s) - 1.0 / s)

    return lam, lam1


def _gamma_lam(a: float, b: float):
    return (
        lambda t: -a * math.log1p(-b * t) - a * b * t,
        lambda t: a * b * b * t / (1.0 - b * t),
    )


def _empirical(pilot: np.ndarray):
    x = pilot - pilot.mean()
    sup = min(EMPIRICAL_T_GRID[1], 700.0 / x.max())

    def lam(t: float) -> float:
        return float(special.logsumexp(t * x) - math.log(x.size))

    def lam1(t: float) -> float:
        w = np.exp(t * x - (t * x).max())
        return float((x * w).sum() / w.sum())

    return lam, lam1, sup


def _score_lam(model: str, sigma: float):
    if model == "normal-score":
        return (lambda t: 0.5 * t * t / sigma**2), (lambda t: t / sigma**2), 0.0
    if model == "cauchy-score":
        return (
            lambda t: abs(t) + math.log(special.i0e(abs(t))),
            lambda t: float(special.ive(1, t) / special.ive(0, t)),
            0.0,
        )
    return (
        lambda t: math.lgamma(1.0 + t) + EULER_GAMMA * t,
        lambda t: float(special.digamma(1.0 + t)) + EULER_GAMMA,
        1.0 - math.log(2.0),
    )


def _increasing_root(fn, target: float, hi: float = math.inf) -> float:
    """Root of an increasing fn on (0, hi) by brentq after a doubling bracket."""
    lo_x = 1e-12
    hi_x = 1.0 if math.isinf(hi) else 0.5 * hi
    for _ in range(2000):
        if fn(hi_x) >= target:
            break
        lo_x = hi_x
        hi_x = 2.0 * hi_x if math.isinf(hi) else 0.5 * (hi_x + hi)
    else:
        raise ValueError(f"oracle found no bracket for target {target!r}")
    return optimize.brentq(lambda t: fn(t) - target, lo_x, hi_x, xtol=1e-15, rtol=1e-15)


def _tail_lambda_gamma(shape: float) -> float:
    return 2.0 * shape - 1.0 if shape < 0.5 else 0.0


def t0_oracle(req: dict, rho: float) -> float | None:
    """Positive root of t Lambda'(t) = (1 + lam) rho / (1 - rho); None when
    the cgf domain ends before the root."""
    fam = req["family"]
    c = rho / (1.0 - rho)
    if fam == "normal":
        return math.sqrt(c) / req["sigma"]
    if fam == "gamma":
        a, b = req["shape"], req["scale"]
        g = (1.0 + _tail_lambda_gamma(a)) * c / (2.0 * a)
        return (math.sqrt(g * g + 2.0 * g) - g) / b
    if fam == "uniform":
        _, lam1 = _uniform_lam(req["width"])
        return _increasing_root(lambda t: t * lam1(t), c)
    _, lam1, sup = _empirical(req["pilot"])
    if sup * lam1(sup) < c:
        return None
    return _increasing_root(lambda t: t * lam1(t), c, hi=sup)


def _empirical_edge(req: dict, c: float) -> float:
    """Relative distance of t Lambda'(t) at the domain edge from c."""
    _, lam1, sup = _empirical(req["pilot"])
    return sup * lam1(sup) / c - 1.0


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _check_n_star_general(req: dict, rep) -> str | None:
    q = q_threshold(req["alpha"], req["pi"])
    t0 = t0_oracle(req, req["rho"])
    if t0 is None:
        return "cgf domain ends before the tilt root, yet a plan was returned"
    n_asym = math.log(q) / (req["d"] * (1.0 - req["rho"]) * t0) if q > 1.0 else 1.0
    if rep.n_exact is not None or _rel_err(rep.n_asymptotic, n_asym) > 1e-9:
        return f"n_asymptotic {rep.n_asymptotic!r} vs oracle {n_asym!r}"
    return None


def _check_n_star_score(req: dict, rep) -> str | None:
    q = q_threshold(req["alpha"], req["pi"])
    rho = req["rho"]
    _, lam1, kf = _score_lam(req["model"], req["sigma"])
    c = rho / (1.0 - rho)
    if req["model"] == "normal-score":
        t0 = req["sigma"] * math.sqrt(c)
    else:
        t0 = _increasing_root(lambda t: t * lam1(t), c)
    rate = req["theta"] * ((1.0 - rho) * lam1(t0) + 2.0 * rho * kf)
    n_asym = math.log(q) / rate if q > 1.0 else 1.0
    if _rel_err(rep.n_asymptotic, n_asym) > 1e-9:
        return f"n_asymptotic {rep.n_asymptotic!r} vs oracle {n_asym!r}"
    return None


def golden_max(f, lo: float, hi: float, tol: float = 1e-12) -> tuple[float, float]:
    invphi = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _check_optimal_split(req: dict, opt) -> str | None:
    fam = req["family"]
    if fam == "uniform":
        if opt.rho_star is not None or opt.boundary != "upper":
            return f"uniform split should run into the upper boundary, got {opt!r}"
        return None
    if fam == "normal":
        rho_ref, obj_ref = 0.5, 0.5 / req["sigma"]
    else:
        # gamma(shape < 1/2) and gamma(1/2) optimise at 1/(2 + sqrt 2) and
        # gamma(4) at 0.4; golden section on the closed-form t0 covers those
        # and every shape in between
        rho_ref, obj_ref = golden_max(
            lambda r: (1.0 - r) * t0_oracle(req, r), 1e-4, 1.0 - 1e-4
        )
    if opt.rho_star is None or abs(opt.rho_star - rho_ref) > 1e-6:
        return f"rho_star {opt.rho_star!r} vs oracle {rho_ref!r}"
    if _rel_err(opt.objective, obj_ref) > 1e-9:
        return f"objective {opt.objective!r} vs oracle {obj_ref!r}"
    return None


def _family_lam(req: dict):
    fam = req["family"]
    if fam == "normal":
        s2 = req["sigma"] ** 2
        return (lambda t: 0.5 * s2 * t * t), (lambda t: s2 * t), math.inf
    if fam == "uniform":
        return (*_uniform_lam(req["width"]), math.inf)
    if fam == "gamma":
        return (*_gamma_lam(req["shape"], req["scale"]), 1.0 / req["scale"])
    return _empirical(req["pilot"])


def legendre_oracle(req: dict, u: float) -> tuple[float, float]:
    fam = req["family"]
    lam, lam1, sup = _family_lam(req)
    if fam == "normal":
        eta = u / req["sigma"] ** 2
    elif fam == "gamma":
        a, b = req["shape"], req["scale"]
        eta = u / (a * b * b + b * u)
    else:
        eta = _increasing_root(lam1, u, hi=sup)
    return u * eta - lam(eta), eta


def _check_legendre(req: dict, out) -> str | None:
    rate, eta = out
    rate_ref, eta_ref = legendre_oracle(req, req["u"])
    if _rel_err(eta, eta_ref) > 1e-8 or abs(rate - rate_ref) > 1e-8 * abs(rate_ref) + 1e-13:
        return f"(rate, eta) {out!r} vs oracle {(rate_ref, eta_ref)!r}"
    return None


def _check_bahadur(req: dict, out: float) -> str | None:
    u, n = req["u"], req["n"]
    rate, eta = legendre_oracle(req, u)
    if req["family"] == "normal":
        curv = req["sigma"] ** 2
    else:
        a, b = req["shape"], req["scale"]
        curv = a * b * b / (1.0 - b * eta) ** 2
    ref = math.exp(-n * rate) / (eta * math.sqrt(2.0 * math.pi * n * curv))
    if _rel_err(out, ref) > 1e-7:
        return f"tail {out!r} vs oracle {ref!r}"
    return None


def _check_k_f(req: dict, out: float) -> str | None:
    # K_f of the gamma score is 1 - ln 2; a location-scale change z -> s z + mu
    # maps it to s (1 - ln 2) + mu
    ref = req["scale"] * (1.0 - math.log(2.0)) + req["shift"]
    if abs(out - ref) > 1e-8 * max(1.0, req["scale"]):
        return f"k_f {out!r} vs closed form {ref!r}"
    return None


# ---------------------------------------------------------------------------
# Monte Carlo references


_REFERENCES: dict | None = None


def references() -> dict:
    global _REFERENCES
    if _REFERENCES is None:
        with open(REFERENCES_PATH, encoding="utf-8") as fh:
            _REFERENCES = json.load(fh)["references"]
    return _REFERENCES


def mc_reference(req: dict) -> tuple[float, float]:
    """(value, standard error) of the estimand a Monte Carlo request targets."""
    ref = req["ref"]
    if ref == "exact-normal":
        n, m = req["n"], req["m"]
        d = req["t_target"] / (n + m) / req["params"].get("sigma", 1.0)
        return studentized_tail_ratio_exact(n, m, req["z0"], d), 0.0
    if ref == "one-minus-pi":
        return 1.0 - req["pi"], 0.0
    entry = references()[ref]
    return entry["value"], entry["stderr"]


def mc_estimate(out) -> tuple[float, float]:
    if hasattr(out, "ratio_hat"):
        return out.ratio_hat, out.stderr
    return out.pfdr_hat, out.stderr


def mc_outside(req: dict, out) -> str | None:
    value, se = mc_estimate(out)
    ref, ref_se = mc_reference(req)
    band = MC_SIGMAS * math.sqrt(se * se + ref_se * ref_se)
    if not abs(value - ref) <= band:
        return f"estimate {value!r} +/- {se:.3g} is {abs(value - ref) / max(band / MC_SIGMAS, 1e-300):.2f} SE from reference {ref!r}"
    return None


def _check_mc(req: dict, out) -> str | None:
    if req["kind"] == "tail_ratio_mc" and out.trials != req["trials"]:
        return f"trials {out.trials} vs requested {req['trials']}"
    if req["kind"] == "simulate_pfdr" and out.batches != req["trials"]:
        return f"batches {out.batches} vs requested {req['trials']}"
    return mc_outside(req, out)


# ---------------------------------------------------------------------------
# CLI reports


def _argv_dict(argv: list[str]) -> dict:
    out = {"command": argv[0]}
    for key, value in zip(argv[1::2], argv[2::2]):
        out[key.lstrip("-")] = value
    return out


def _num(x):
    return float(x) if isinstance(x, str) else x


def _check_cli(req: dict, res) -> str | None:
    want = req["expect_exit"]
    if res.code != want:
        return f"exit code {res.code}, expected {want}: {res.stderr.strip()[-200:]}"
    if want == 2:
        if res.stdout.strip() or not res.stderr.strip():
            return "usage error should print only to stderr"
        return None
    report = json.loads(res.stdout)
    a = _argv_dict(req["argv"])
    cmd = a["command"]
    out, diag = report["outputs"], report["diagnostics"]
    if want == 1:
        if report["status"] != "not-attainable":
            return f"status {report['status']!r}, expected not-attainable"
        plan = {"kind": "plan_t", "alpha": float(a["alpha"]), "pi": float(a["pi"]),
                "r": float(a["snr"]), "n_max": int(a["n-max"])}
        if not diag["rho_at_n_max"] < q_threshold(plan["alpha"], plan["pi"]):
            return "reported rho_at_n_max reaches Q"
        return _check_not_attainable(plan, SimpleNamespace(n_max=diag["n_max"]))
    if report["status"] != "ok":
        return f"status {report['status']!r}"
    target = {"alpha": float(a.get("alpha", 0.5)), "pi": float(a.get("pi", 0.5))}
    fam = {k: float(a[k]) for k in ("sigma", "width", "shape", "scale") if k in a}
    fam.setdefault("sigma", 1.0)
    fam.setdefault("width", 1.0)
    fam.setdefault("scale", 1.0)
    if cmd == "plan-t":
        return _check_crossing({"kind": "plan_t", **target, "r": float(a["snr"])},
                               out["n_exact"], out["q_value"])
    if cmd == "plan-f":
        return _check_crossing(
            {"kind": "plan_f", **target, "p": int(a["p"]), "delta": float(a["delta"])},
            out["n_exact"], out["q_value"])
    if cmd == "plan-t-mixture":
        atoms = [tuple(float(v) for v in piece.split(":")) for piece in a["atoms"].split(",")]
        return _check_crossing(
            {"kind": "plan_t_mixture", **target, "atoms": atoms, "scale": float(a["scale"])},
            out["n_exact"], out["q_value"])
    if cmd == "plan-general":
        plan = {**target, **fam, "family": a["family"], "rho": float(a["rho"]), "d": float(a["effect"])}
        return _check_n_star_general(plan, SimpleNamespace(n_exact=out["n_exact"], n_asymptotic=out["n_asymptotic"]))
    if cmd == "plan-score":
        plan = {**target, "model": a["family"], "sigma": fam["sigma"], "rho": float(a["rho"]),
                "theta": float(a["effect"])}
        return _check_n_star_score(plan, SimpleNamespace(n_asymptotic=out["n_asymptotic"]))
    if cmd == "optimize-split":
        return _check_optimal_split({**fam, "family": a["family"]},
                                    SimpleNamespace(rho_star=out["rho_star"], objective=out["objective"],
                                         boundary=out["boundary"]))
    if cmd == "simulate":
        n, m = int(a["n"]), int(a["m"])
        mc = {"kind": "tail_ratio_mc", "ref": "exact-normal", "n": n, "m": m, "z0": float(a["z0"]),
              "t_target": float(a["t-target"]), "params": {"sigma": fam["sigma"]},
              "trials": int(a["trials"])}
        return _check_mc(mc, SimpleNamespace(ratio_hat=out["ratio_hat"], stderr=out["stderr"],
                                  trials=out["trials"]))
    if cmd == "ldp-info":
        return _check_ldp_info(a, fam, out)
    return f"no check for command {cmd!r}"


def _check_ldp_info(a: dict, fam: dict, out: dict) -> str | None:
    rho, u = float(a["rho"]), float(a["u"])
    family = a["family"]
    if family.endswith("-score"):
        lam, lam1, kf = _score_lam(family, fam["sigma"])
        t0 = _increasing_root(lambda t: t * lam1(t), rho / (1.0 - rho))
        eta = _increasing_root(lam1, u)
        rate = u * eta - lam(eta)
        if _rel_err(_num(out["k_f"]), kf) > 1e-12 and abs(_num(out["k_f"]) - kf) > 1e-15:
            return f"k_f {out['k_f']!r} vs {kf!r}"
    else:
        req = {**fam, "family": family}
        t0 = t0_oracle(req, rho)
        rate, eta = legendre_oracle(req, u)
    if _rel_err(out["t0"], t0) > 1e-9:
        return f"t0 {out['t0']!r} vs oracle {t0!r}"
    if _rel_err(out["legendre_eta"], eta) > 1e-8 or abs(out["legendre_rate"] - rate) > 1e-8 * abs(rate) + 1e-13:
        return f"legendre ({out['legendre_rate']!r}, {out['legendre_eta']!r}) vs ({rate!r}, {eta!r})"
    return None


# ---------------------------------------------------------------------------
# dispatch


def _expected_error(req: dict) -> tuple[str | None, bool]:
    """(error name the request must raise or None, whether either is fine)."""
    if "expect_error" in req:
        return req["expect_error"], False
    fam = req.get("family")
    if fam == "empirical" and req["kind"] == "n_star_general":
        c = req["rho"] / (1.0 - req["rho"])
        edge = _empirical_edge(req, c)
        return ("RootBracketError" if edge < 0.0 else None), abs(edge) < 1e-6
    if fam == "empirical" and req["kind"] == "optimal_split":
        # the upper end of the search interval is rho = 1 - 1e-4
        c = (1.0 - 1e-4) / 1e-4
        edge = _empirical_edge(req, c)
        return ("RootBracketError" if edge < 0.0 else None), abs(edge) < 1e-6
    return None, False


_CHECKS = {
    "plan_t": lambda req, rep: _check_crossing(req, rep.n_exact, rep.q_value),
    "plan_f": lambda req, rep: _check_crossing(req, rep.n_exact, rep.q_value),
    "plan_t_mixture": lambda req, rep: _check_crossing(req, rep.n_exact, rep.q_value),
    "n_star_general": _check_n_star_general,
    "n_star_score": _check_n_star_score,
    "optimal_split": _check_optimal_split,
    "legendre": _check_legendre,
    "bahadur_rao_tail": _check_bahadur,
    "k_f": _check_k_f,
    "tail_ratio_mc": _check_mc,
    "simulate_pfdr": _check_mc,
    "cli": _check_cli,
}


def check(req: dict, out) -> str | None:
    """None when out is the right outcome for req, else the reason it is not."""
    expect, either = _expected_error(req)
    if isinstance(out, BaseException):
        name = type(out).__name__
        if expect is None and not either:
            return f"unexpected {name}: {out}"
        if name != (expect or "RootBracketError"):
            return f"raised {name}, expected {expect}: {out}"
        if name == "NotAttainableError":
            return _check_not_attainable(req, out)
        return None
    if either:
        # the tilt root sits within 1e-6 of the domain edge: a plan is as
        # right as the error, and its value cannot be pinned down
        return None
    if expect is not None:
        return f"expected {expect}, got {out!r}"[:300]
    return _CHECKS[req["kind"]](req, out)
