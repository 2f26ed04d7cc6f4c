"""Sample size planning for the F statistic with p numerator constraints.

A false null displaces the p-dimensional parameter by noncentrality delta
per denominator observation; with denominator degrees of freedom n the
statistic's false-null to true-null density ratio, supremized over the
one-sided rejection regions, is

    K(p, n, delta) = exp(-A) * sum_k b_{p,n,k} A^k / k!,
    A = (n + p) delta^2 / 2,
    b_{p,n,k} = prod_{j<k} (n + p + 2j) / (p + 2j),

increasing in n and delta.  Its terms peak at one mode (_f_mode).  Below
mode _SHORT_MODE, K is summed from k = 0 in plain floats by the exact term
ratio A (n + p + 2k) / ((k + 1)(p + 2k)); from it on, over a numpy window
around the mode, and numpy is imported only then.

Three large-sample approximations cover the parameter space, selected by
where (delta, p) sits:

  * mgf inversion      n ~ M_p^{-1}(Q) / delta        (delta -> 0, p moderate)
  * quadratic root     the positive root of the uniform small-delta
                       approximation, valid jointly in p and delta
  * log power          n ~ 2 ln(Q) / ln(1 + delta^2)  (delta fixed, p large)

where M_p(t) = sum_k Gamma(p/2) (t^2/4)^k / (k! Gamma(k + p/2)) is the limit
of K along n * delta -> t (M_1 = cosh, M_2 the order-zero Bessel function),
summed by m_p in plain floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np

from .normal_t import _LOG_RESCALE, _RESCALE_AT
from .numerics import _MAX_CHUNK_CELLS, _REL_TOL, _check_budget, _check_size, exp_or_inf
from .numerics import find_root_increasing, log_factorials, log_sum_rows
from .pfdr_core import DEFAULT_N_MAX, LrSupCurve, PfdrTarget, PlanReport, min_n_search

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
        _check_size("p", self.p)


def _f_mode(p: int, n: int, a: float) -> float:
    """Mode of b_{p,n,k} A^k / k!: the root of A (n + p + 2k) = (k + 1)(p + 2k), or 0."""
    b = p + 2.0 - 2.0 * a
    c = p - a * (n + p)
    root = math.sqrt(b * b - 8.0 * c)
    return max(0.0, (root - b) / 4.0 if b <= 0.0 else -2.0 * c / (b + root))


# below this mode K is summed from k = 0 in plain floats, from it on over a
# numpy window.  On 2 cores the plain sum took 9 us per evaluation at modes
# under 10 against 50 us for the window, was about even from 150 to 300, and
# the exact-plans workload ran fastest with the switch here (CHANGES.md)
_SHORT_MODE = 200.0


def _log_k(p: int, n: int, delta: float) -> float:
    """log K: from k = 0 below _SHORT_MODE, else by log_sum_rows as one row.

    Below _SHORT_MODE term k + 1 is term k times A (n + p + 2k) /
    ((k + 1)(p + 2k)), from term 0 = 1.  The ratios fall, so past the mode
    the terms cut after term e with next ratio q < 1 sum to at most
    e q / (1 - q), and the sum stops once that is at most _REL_TOL of it,
    the window's rule.  There log K + A stays under 2 (mode + 1), its value
    at p = 1 as n grows, where the series tends to cosh, so no term nears
    float range.

    In the window, log b_{p,n,k0} is a pairwise sum of log1p(n / (p + 2j))
    over j < k0, by blocks, carried through each chunk as a running sum;
    log k! is sliced from the shared table of numerics.log_factorials.
    log_sum_rows refuses a mode past the term budget before any chunk, so
    the table is not built for it.
    """
    a = 0.5 * (n + p) * delta * delta
    if a == 0.0:  # delta = 0, or A underflowed: K = 1
        return 0.0
    mode = _f_mode(p, n, a)
    if mode < _SHORT_MODE:
        total = term = 1.0
        # exact integers in floats: u = n + p + 2k, v = p + 2k, j = k + 1
        u, v, j = float(n + p), float(p), 1.0
        while True:
            q = a * u / (j * v)
            if q < 1.0 and term * q <= _REL_TOL * total * (1.0 - q):
                return -a + math.log(total)
            term *= q
            total += term
            u += 2.0
            v += 2.0
            j += 1.0
    import numpy as np

    log_a, block = math.log(a), _MAX_CHUNK_CELLS

    def chunk(k0: int, k1: int) -> np.ndarray:
        lb = math.fsum(
            float(np.log1p(n / (p + 2.0 * np.arange(j, min(j + block, k0)))).sum())
            for j in range(0, k0, block)
        )
        k = np.arange(k0, k1, dtype=float)
        step = np.log1p(n / (p + 2.0 * k))
        lbs = np.cumsum(np.concatenate(([lb], step[:-1])))
        return (lbs + k * log_a - log_factorials(k1)[k0:k1])[None, :]

    return -a + float(log_sum_rows(chunk, mode, mode)[0])


def log_lr_sup_f(p: int, n: int, delta: float) -> float:
    """log of lr_sup_f, safe when the ratio exceeds float range."""
    _check_f_args(p, n, delta)
    return _log_k(p, n, delta)


def lr_sup_f(p: int, n: int, delta: float) -> float:
    """Density-ratio supremum K(p, n, delta) of the noncentral F statistic.

    Equals 1 at delta = 0, is increasing in delta and in n, is bounded above
    by exp((n + p)^2 delta^2 / 2), and is inf past float range.
    """
    _check_f_args(p, n, delta)
    return exp_or_inf(_log_k(p, n, delta))


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

    Summed by _log_m_p; inf once it passes exp(709.78).
    """
    if p < 1:
        raise ValueError(f"p must be a positive integer, got {p!r}")
    if math.isnan(t):
        raise ValueError("t must be a number, got nan")
    # below the mode m (m (m + p/2 - 1) = t^2 / 4) terms 1 to m/2 each at least
    # double, so M_p > 2^(m/2) is past float range once m reaches 2048
    if not 0.25 * t * t < 2048.0 * (2047.0 + 0.5 * p):
        return math.inf
    return exp_or_inf(_log_m_p(p, t))


def _log_m_p(p: int, t: float) -> float:
    """log M_p(t): log1p of the float sum of terms k >= 1 of its series.

    Term k is term k - 1 times z / (k (k + p/2 - 1)), z = t^2 / 4, and the
    sum stops at the first term that leaves it unchanged.  Past 2^800 the
    sum and the term move exactly to a scale 2^800 lower, so the log stays
    finite.  Every step rounds monotonically, so the result is nondecreasing
    in |t| up to the rounding of the final log.  _check_budget refuses
    the mode, the root of k (k + b1) = z, before any term.
    """
    z, b1 = 0.25 * t * t, 0.5 * p - 1.0
    if z == 0.0:
        return 0.0
    # the mode, without cancellation for b1 >= 0; one under term 10^6 keeps
    # each step's factor under about 2 * 10^12 < 2^41, so no term overflows
    # between rescales
    root = math.hypot(0.5 * b1, math.sqrt(z))
    stable = b1 >= 0.0 and z < math.inf
    _check_budget(z / (root + 0.5 * b1) if stable else root - 0.5 * b1)
    total, term, k, rescales = 0.0, 1.0, 0.0, 0
    while True:
        k += 1.0
        term *= z / (k * (k + b1))
        new = total + term
        if new == total:
            return math.log(total) + rescales * _LOG_RESCALE if rescales else math.log1p(total)
        total = new
        if total > _RESCALE_AT:
            total, term = total / _RESCALE_AT, term / _RESCALE_AT
            rescales += 1


def quadratic_root_n(p: int, delta: float, a: float) -> float:
    """Positive root of the uniform small-delta approximation, a = ln Q.

    A single expression that interpolates the Gaussian limit of the mgf
    inversion, sqrt(2 p a) / delta, as delta^2 p -> 0 and the small-delta
    log-power value 2 a / delta^2 as delta^2 p -> infinity.
    """
    d2p = delta * delta * p
    return 4.0 * a / (delta * delta) / (1.0 + math.sqrt(1.0 + 8.0 * a / d2p))


def plan_f(target: PfdrTarget, effect: FEffect, n_max: int = DEFAULT_N_MAX) -> PlanReport:
    """Minimum denominator degrees of freedom n with log K(p, n, delta) >= ln Q.

    Runs the exact curve search from the quadratic root and evaluates all
    three approximations; the one matching the (delta, p) regime is reported
    as n_asymptotic, the rest ride along in diagnostics.
    """
    delta, p = effect.delta, effect.p
    curve = LrSupCurve(eval=lambda n: log_lr_sup_f(p, n, delta))
    a = target.log_q()
    # the quadratic root starts the search; it has no meaning for a <= 0,
    # where n = 1 suffices, or when delta^2 underflows and K stays at 1
    n_quad = quadratic_root_n(p, delta, a) if a > 0.0 and delta * delta > 0.0 else 1.0
    report = min_n_search(curve, target, n_max=n_max, hint=n_quad)

    if a <= 0.0:
        n_mgf = n_quad = n_logpow = 1.0
    else:
        hint = max(1.0, min(a + 1.0, math.sqrt(2.0 * p * a)))
        t_star = find_root_increasing(lambda t: _log_m_p(p, t), a, hint)
        n_mgf = max(1.0, t_star / delta)
        n_quad = max(1.0, n_quad)
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
        q_value=report.q_value,
        diagnostics=diagnostics,
    )
