"""Sample size planning for the F statistic with p numerator constraints.

A false null displaces the p-dimensional parameter by noncentrality delta
per denominator observation; with denominator degrees of freedom n the
statistic's false-null to true-null density ratio, supremized over the
one-sided rejection regions, is

    K(p, n, delta) = exp(-A) * sum_k b_{p,n,k} A^k / k!,
    A = (n + p) delta^2 / 2,
    b_{p,n,k} = prod_{j<k} (n + p + 2j) / (p + 2j),

increasing in n and delta.  Three large-sample approximations cover the
parameter space, selected by where (delta, p) sits:

  * mgf inversion      n ~ M_p^{-1}(Q) / delta        (delta -> 0, p moderate)
  * quadratic root     the positive root of the uniform small-delta
                       approximation, valid jointly in p and delta
  * log power          n ~ 2 ln(Q) / ln(1 + delta^2)  (delta fixed, p large)

where M_p(t) = sum_k Gamma(p/2) (t^2/4)^k / (k! Gamma(k + p/2)) is the limit
of K along n * delta -> t (M_1 = cosh, M_2 the order-zero Bessel function).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .numerics import find_root_increasing, log_sum_rows, sum_series
from .pfdr_core import LrSupCurve, PfdrTarget, PlanReport, min_n_search

__all__ = [
    "FEffect",
    "lr_sup_f",
    "log_lr_sup_f",
    "m_p",
    "quadratic_root_n",
    "plan_f",
    "REGIME_F_MGF",
    "REGIME_F_QUAD",
    "REGIME_F_LOGPOW",
]

REGIME_F_MGF = "f-mgf-inversion"
REGIME_F_QUAD = "f-quadratic-root"
REGIME_F_LOGPOW = "f-log-power"

# regime selection boundaries: the log-power form needs delta^2 * p to be
# comfortably large, the mgf inversion needs small delta and moderate p;
# the quadratic root is the uniform fallback between them
_LOGPOW_MIN_D2P = 10.0
_LOGPOW_MIN_DELTA = 0.1
_MGF_MAX_P = 50
_MGF_MAX_DELTA = 0.05


@dataclass(frozen=True)
class FEffect:
    """Noncentrality delta per denominator observation, p constraints."""

    delta: float
    p: int

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta!r}")
        if self.p < 1:
            raise ValueError(f"p must be a positive integer, got {self.p!r}")


def _f_log_terms(p: int, n: int, log_a: float) -> Callable[[int, int], np.ndarray]:
    """Chunks of log(b_{p,n,k} A^k / k!) for log_sum_rows, as one row.

    log b_{p,n,k} is the running sum of log1p(n / (p + 2j)) over j < k,
    carried from one chunk to the next.
    """
    from scipy import special

    lb = 0.0  # log b_{p,n,k0} at the start of the next chunk

    def chunk(k0: int, k1: int) -> np.ndarray:
        nonlocal lb
        k = np.arange(k0, k1, dtype=float)
        step = np.log1p(n / (p + 2.0 * k))
        lbs = np.cumsum(np.concatenate(([lb], step[:-1])))
        lb = lbs[-1] + step[-1]
        return (lbs + k * log_a - special.gammaln(k + 1.0))[None, :]

    return chunk


def _log_k(p: int, n: int, delta: float) -> float:
    a = 0.5 * (n + p) * delta * delta
    if a == 0.0:  # delta = 0, or A underflowed: K = 1
        return 0.0
    return -a + float(log_sum_rows(_f_log_terms(p, n, math.log(a)))[0])


def log_lr_sup_f(p: int, n: int, delta: float) -> float:
    """log of lr_sup_f, safe when the ratio exceeds float range."""
    _check_f_args(p, n, delta)
    return _log_k(p, n, delta)


def lr_sup_f(p: int, n: int, delta: float) -> float:
    """Density-ratio supremum K(p, n, delta) of the noncentral F statistic.

    Equals 1 at delta = 0, is increasing in delta and in n, and is bounded
    above by exp((n + p)^2 delta^2 / 2).  Returns inf when the true value
    overflows, which the curve search tolerates.
    """
    _check_f_args(p, n, delta)
    log_value = _log_k(p, n, delta)
    return math.inf if log_value >= 709.78 else math.exp(log_value)


def _check_f_args(p: int, n: int, delta: float) -> None:
    if p < 1:
        raise ValueError(f"p must be a positive integer, got {p!r}")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not delta >= 0.0:
        raise ValueError(f"delta must be >= 0, got {delta!r}")


def m_p(p: int, t: float) -> float:
    """Limit of K along n * delta -> t: an even, increasing-in-|t| transform.

    M_p(t) = sum_k Gamma(p/2) (t^2/4)^k / (k! Gamma(k + p/2))
           = 0F1(; p/2; t^2/4);  M_p(0) = 1.

    The closed form comes from scipy (I0 for p = 2, hyp0f1 otherwise); where
    it returns a value that is not >= 1, the series is summed instead.
    """
    if p < 1:
        raise ValueError(f"p must be a positive integer, got {p!r}")
    u = abs(t)
    if u == 0.0:
        return 1.0
    from scipy import special

    # hyp0f1 at p = 2 and t above about 730, where the true value overflows,
    # returns 0 and prints an ignored ZeroDivisionError; i0 returns inf
    value = float(special.i0(u) if p == 2 else special.hyp0f1(0.5 * p, 0.25 * u * u))
    if value >= 1.0:
        return value
    log_u2_4 = 2.0 * math.log(u) - math.log(4.0)
    lg_p2 = math.lgamma(0.5 * p)

    def terms() -> Iterator[float]:
        k = 0
        while True:
            yield lg_p2 + k * log_u2_4 - math.lgamma(k + 1) - math.lgamma(k + 0.5 * p)
            k += 1

    return sum_series(terms())


def quadratic_root_n(p: int, delta: float, a: float) -> float:
    """Positive root of the uniform small-delta approximation, a = ln Q.

    A single expression that interpolates the Gaussian limit of the mgf
    inversion, sqrt(2 p a) / delta, as delta^2 p -> 0 and the small-delta
    log-power value 2 a / delta^2 as delta^2 p -> infinity.
    """
    d2p = delta * delta * p
    return 4.0 * a / (delta * delta) / (1.0 + math.sqrt(1.0 + 8.0 * a / d2p))


def plan_f(target: PfdrTarget, effect: FEffect, n_max: int = 10_000_000) -> PlanReport:
    """Minimum denominator degrees of freedom n with K(p, n, delta) >= Q.

    Runs the exact curve search and evaluates all three approximations; the
    one matching the (delta, p) regime is reported as n_asymptotic, the rest
    ride along in diagnostics.
    """
    delta, p = effect.delta, effect.p
    curve = LrSupCurve(eval=lambda n: lr_sup_f(p, n, delta))
    report = min_n_search(curve, target, n_max=n_max)
    q = report.q_value
    a = math.log(q)

    if a <= 0.0:
        n_mgf = n_quad = n_logpow = 1.0
    else:
        t_star = find_root_increasing(
            lambda t: m_p(p, t),
            q,
            bracket_hint=max(1.0, min(a + 1.0, math.sqrt(2.0 * p * a))),
            lo=0.0,
        )
        n_mgf = max(1.0, t_star / delta)
        n_quad = max(1.0, quadratic_root_n(p, delta, a))
        n_logpow = max(1.0, math.ceil(2.0 * a / math.log1p(delta * delta)))

    if delta * delta * p >= _LOGPOW_MIN_D2P and delta >= _LOGPOW_MIN_DELTA:
        regime, n_asym = REGIME_F_LOGPOW, n_logpow
    elif p <= _MGF_MAX_P and delta <= _MGF_MAX_DELTA:
        regime, n_asym = REGIME_F_MGF, n_mgf
    else:
        regime, n_asym = REGIME_F_QUAD, n_quad

    diagnostics = dict(report.diagnostics)
    diagnostics.update(
        {
            "log_q": a,
            "delta_sq_p": delta * delta * p,
            "n_mgf_inversion": n_mgf,
            "n_quadratic_root": n_quad,
            "n_log_power": n_logpow,
        }
    )
    return PlanReport(
        n_exact=report.n_exact,
        n_asymptotic=n_asym,
        regime=regime,
        q_value=q,
        diagnostics=diagnostics,
    )
