"""Sample size planning for the one-sample t statistic under normal data.

Per null, n + 1 observations are drawn and the usual t statistic with n
degrees of freedom is formed; a false null shifts the mean by r standard
deviations (signal-to-noise ratio r).  Over the natural one-sided rejection
regions, the supremum of the false-null to true-null density ratio of the
statistic has the closed series form

    L(n, r) = exp(-d^2 / 2) * sum_k a_{n,k} (sqrt(2) d)^k / k!,
    d = sqrt(n + 1) * r,   a_{n,k} = Gamma((n+k+1)/2) / Gamma((n+1)/2),

which is increasing in both n and r, so the minimum n with L(n, r) >= Q is
found by the generic curve search on log L.  For large n the plan behaves
like n ~ ln(Q) / r.  L is summed from k = 0 in plain floats by its exact term
ratio, term k + 2 = term k d^2 (n + k + 1) / ((k + 1)(k + 2)), in two
parity chains, so a t plan loads no numpy.

Mixtures over r (a prior G on the signal-to-noise ratio, discretized to
atoms) average L over the atoms, and the large-n plan solves
E_G[exp(a R)] = Q for the rate a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

from .numerics import (
    _MAX_TERMS,
    _REL_TOL,
    RootBracketError,
    _budget_error,
    _check_budget,
    exp_or_inf,
    find_root_increasing,
    log_sum_rows,
)
from .pfdr_core import DEFAULT_N_MAX, LrSupCurve, PfdrTarget, PlanReport, min_n_search

__all__ = [
    "SnrEffect",
    "SnrMixture",
    "lr_sup_t",
    "log_lr_sup_t",
    "lr_sup_t_mixture",
    "log_lr_sup_t_mixture",
    "plan_t",
    "plan_t_mixture",
    "REGIME_T_RATE",
    "REGIME_T_MIXTURE",
]

REGIME_T_RATE = "t-snr-rate"
REGIME_T_MIXTURE = "t-mixture-mgf"

# atom budget of a mixture: enough for a discretized smooth prior, small
# enough that a curve search stays interactive
MAX_MIXTURE_ATOMS = 512


@dataclass(frozen=True)
class SnrEffect:
    """Mean shift of a false null, in units of the data standard deviation."""

    r: float

    def __post_init__(self) -> None:
        if not 0.0 < self.r < math.inf:
            raise ValueError(
                f"signal-to-noise ratio must be positive and finite, got {self.r!r}"
            )


@dataclass(frozen=True)
class SnrMixture:
    """Discrete prior on the signal-to-noise ratio, with a common scale.

    atoms are (r_i, w_i) pairs with r_i > 0, w_i > 0 and weights summing to
    one; the effective per-null ratio of atom i is scale * r_i.  Keeping the
    scale separate lets one shrink all effects together while holding the
    shape of the prior fixed.
    """

    atoms: tuple[tuple[float, float], ...]
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("mixture needs at least one atom")
        if len(self.atoms) > MAX_MIXTURE_ATOMS:
            raise ValueError(
                f"at most {MAX_MIXTURE_ATOMS} atoms supported, got {len(self.atoms)}"
            )
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale!r}")
        total = 0.0
        for r, w in self.atoms:
            if not 0.0 < r < math.inf:
                raise ValueError(f"atom location must be positive and finite, got {r!r}")
            if not w > 0.0:
                raise ValueError(f"atom weight must be positive, got {w!r}")
            total += w
        if abs(total - 1.0) > 1e-12 * len(self.atoms):
            raise ValueError(f"atom weights must sum to 1, got {total!r}")


# the running sum moves to the next scale 2^800 lower once it passes 2^800.
# While the mode is under term 10^6, d^2 and d^2 n are under 10^12, so a step
# multiplies a term by less than 2^40 and no term overflows between checks
_RESCALE_AT = 2.0**800
_LOG_RESCALE = 800.0 * math.log(2.0)


def _t_mode(n: int, d2: float) -> float:
    """Where the t series' terms peak: (d^2 + sqrt(d^4 + 4 d^2 n)) / 2 - 1.

    inf once d^4 overflows, so a comparison with the term budget still holds.
    """
    return 0.5 * (d2 + math.sqrt(d2 * d2 + 4.0 * d2 * n)) - 1.0


def _gamma_half_ratio(x: float) -> float:
    """Gamma(x + 1/2) / Gamma(x) for x >= 1.

    math.gamma up to x = 30, then sqrt(x) exp(s) with s the Stirling series
    of the log ratio, -1/(8x) + 1/(192x^3) - 1/(640x^5) + 17/(14336x^7),
    whose next term is below 1e-16 there.  lgamma differences would lose
    eps lgamma(x), 1e-9 at x = 5e5.
    """
    if x < 30.0:
        return math.gamma(x + 0.5) / math.gamma(x)
    w = 1.0 / (x * x)
    s = -0.125 + w * (1.0 / 192.0 + w * (-1.0 / 640.0 + w * (17.0 / 14336.0)))
    return math.sqrt(x) * math.exp(s / x)


def _log_l(n: int, r: float) -> float:
    """log L(n, r), summed from k = 0 by exact term ratios in plain floats.

    Term k + 2 is term k times d^2 (n + k + 1) / ((k + 1)(k + 2)), so the
    even terms run from 1 and the odd ones from
    sqrt(2) d Gamma((n + 2)/2) / Gamma((n + 1)/2), a pair per step.  The
    terms rise to one mode and fall; the sum stops at the first pair past
    it whose last term is at most _REL_TOL of the sum.  _check_budget
    refuses the mode before any term; a stop past term _MAX_TERMS raises
    SeriesDivergenceError too.
    """
    if r == 0.0:
        return 0.0
    d = math.sqrt(n + 1.0) * r
    d2 = d * d
    mode = _t_mode(n, d2)
    _check_budget(mode)
    odd = math.sqrt(2.0) * d * _gamma_half_ratio(0.5 * (n + 1.0))
    even = 0.5 * d2 * (n + 1.0)
    total, rescales = 1.0, 0
    # exact integers in floats: m = n + k + 1 and j = k + 1 for the odd k
    m, j = n + 2.0, 2.0
    while True:
        # terms k (odd) and k + 1 (even) join the sum
        total += odd + even
        if even <= _REL_TOL * total and even < odd:
            return -0.5 * d2 + math.log(total) + rescales * _LOG_RESCALE
        if total > _RESCALE_AT:
            total, odd, even = total / _RESCALE_AT, odd / _RESCALE_AT, even / _RESCALE_AT
            rescales += 1
        j1 = j + 1.0
        odd *= d2 * m / (j * j1)
        m += 1.0
        j += 2.0
        even *= d2 * m / (j1 * j)
        m += 1.0
        if j > _MAX_TERMS:
            raise _budget_error(mode)


def log_lr_sup_t(n: int, r: float) -> float:
    """log of lr_sup_t, safe when the ratio exceeds float range."""
    _check_t_args(n, r)
    return _log_l(n, r)


def lr_sup_t(n: int, r: float) -> float:
    """Density-ratio supremum of the t statistic: L(n, r) above.

    Equals 1 at r = 0 and increases without bound in each argument; inf
    past float range, where log_lr_sup_t stays finite.
    """
    _check_t_args(n, r)
    return exp_or_inf(_log_l(n, r))


def _check_t_args(n: int, r: float) -> None:
    if n < 1:
        raise ValueError(f"degrees of freedom n must be >= 1, got {n!r}")
    if not r >= 0.0:
        raise ValueError(f"signal-to-noise ratio must be >= 0, got {r!r}")


def plan_t(target: PfdrTarget, effect: SnrEffect, n_max: int = DEFAULT_N_MAX) -> PlanReport:
    """Minimum degrees of freedom n with log L(n, r) >= ln Q(alpha, pi).

    The per-null sample size is n + 1 observations.  n_asymptotic carries the
    large-n rate approximation ln(Q) / r, which also starts the exact search.
    """
    curve = LrSupCurve(eval=lambda n: log_lr_sup_t(n, effect.r))
    log_q = target.log_q()
    n_rate = log_q / effect.r
    report = min_n_search(curve, target, n_max=n_max, hint=n_rate)
    diagnostics = dict(report.diagnostics)
    diagnostics["snr"] = effect.r
    diagnostics["log_q"] = log_q
    assert report.n_exact is not None
    diagnostics["delta_at_n_exact"] = math.sqrt(report.n_exact + 1.0) * effect.r
    return PlanReport(
        n_exact=report.n_exact,
        # a sample size below one observation is meaningless, so the rate
        # approximation is floored there for trivially attainable targets
        n_asymptotic=max(1.0, n_rate),
        regime=REGIME_T_RATE,
        q_value=report.q_value,
        diagnostics=diagnostics,
    )


def lr_sup_t_mixture(n: int, mixture: SnrMixture) -> float:
    """Weighted average of lr_sup_t over the mixture atoms; inf past float range."""
    return exp_or_inf(log_lr_sup_t_mixture(n, mixture))


def log_lr_sup_t_mixture(n: int, mixture: SnrMixture) -> float:
    """log of lr_sup_t_mixture, safe when the average exceeds float range.

    All atoms are summed together, one row each: the gamma ratios a_{n,k}
    do not depend on the atom, so each chunk computes them once.  The row of
    atom d peaks near k = (d^2 + sqrt(d^4 + 4 d^2 n)) / 2 - 1.  The term
    budget checks the largest d's mode in Python floats, so an infinite d is
    refused before any array is formed.  An atom whose d underflows to 0 has
    ratio exactly 1: it joins the final log-sum-exp as log w, with no row.
    """
    _check_t_args(n, mixture.scale)
    root_n, atoms = math.sqrt(n + 1.0) * mixture.scale, mixture.atoms
    d_lo, d_hi = root_n * min(atoms)[0], root_n * max(atoms)[0]
    mode_hi = _t_mode(n, d_hi * d_hi)
    _check_budget(mode_hi)
    import numpy as np

    r, w = np.array(atoms).T
    d, logs, row = root_n * r, np.log(w), slice(None)
    if d_lo == 0.0:  # only the atoms with d > 0 get rows
        if d_hi == 0.0:
            return float(np.log(w.sum()))
        row = d > 0.0
        d = d[row]
        d_lo = float(d.min())
    log_x = (0.5 * math.log(2.0) + np.log(d))[:, None]
    lg0 = math.lgamma(0.5 * (n + 1.0))

    def shared_at(k: int) -> float:
        return math.lgamma(0.5 * (n + k + 1.0)) - lg0 - math.lgamma(k + 1.0)

    def chunk(k0: int, k1: int) -> np.ndarray:
        # log a_{n,k} - log k! from lgamma at k0 and k0 + 1, then by one
        # cumsum per parity down the columns of a (pairs, 2) view, as the
        # terms k and k + 2 differ by log((n + k + 1) / (2 (k + 1)(k + 2)))
        pairs = (k1 - k0 + 1) // 2
        k = np.arange(k0, k0 + 2 * pairs, dtype=float)
        j = k[:-2]
        shared = np.empty(2 * pairs)
        shared[0], shared[1] = shared_at(k0), shared_at(k0 + 1)
        shared[2:] = np.log(0.5 * (j + (n + 1.0)) / ((j + 1.0) * (j + 2.0)))
        shared = shared.reshape(pairs, 2).cumsum(axis=0).ravel()
        return (shared + k * log_x)[:, : k1 - k0]

    sums = log_sum_rows(chunk, _t_mode(n, d_lo * d_lo), mode_hi, len(d))
    logs[row] = logs[row] - 0.5 * d * d + sums
    m = float(logs.max())
    return m + math.log(float(np.exp(logs - m).sum()))


def _mgf_rate(mixture: SnrMixture, log_q: float) -> float:
    """Root a* of log E[exp(a R)] = ln Q; 0 when ln Q <= 0.

    The log-sum-exp runs in Python: over the few atoms of a typical prior
    it costs less than numpy's per-call overhead.
    """
    if log_q <= 0.0:
        return 0.0
    atoms = mixture.atoms
    r_top = max(atoms)[0]
    offsets = [(r - r_top, w) for r, w in atoms]

    def log_mgf(a: float) -> float:
        return a * r_top + math.log(sum([w * math.exp(a * dr) for dr, w in offsets]))

    return find_root_increasing(log_mgf, log_q, log_q / sum(w * r for r, w in atoms))


def plan_t_mixture(
    target: PfdrTarget, mixture: SnrMixture, n_max: int = DEFAULT_N_MAX
) -> PlanReport:
    """Minimum n for a mixture prior on the signal-to-noise ratio.

    The exact search runs on the averaged ratio curve, starting from the
    asymptotic plan.  That plan solves E[exp(a R)] = Q for a and reports
    n_asymptotic = a / scale: along n * scale -> a, the averaged ratio
    converges to that expectation, so its inverse is the right large-n rate.
    A point mass reduces both answers to plan_t with r = scale * r_1.
    """
    curve = LrSupCurve(eval=lambda n: log_lr_sup_t_mixture(n, mixture))
    log_q = target.log_q()
    rate_error = None
    try:
        a_star = _mgf_rate(mixture, log_q)
    except (ValueError, RootBracketError) as exc:
        # raised only after the search, so that a target the curve cannot
        # reach still reports as not attainable
        a_star, rate_error = 0.0, exc
    report = min_n_search(curve, target, n_max=n_max, hint=a_star / mixture.scale)
    if rate_error is not None:
        raise rate_error
    diagnostics = dict(report.diagnostics)
    diagnostics["log_q"] = log_q
    diagnostics["mgf_rate"] = a_star
    diagnostics["n_atoms"] = float(len(mixture.atoms))
    diagnostics["scale"] = mixture.scale
    return PlanReport(
        n_exact=report.n_exact,
        n_asymptotic=a_star / mixture.scale,
        regime=REGIME_T_MIXTURE,
        q_value=report.q_value,
        diagnostics=diagnostics,
        notes=(
            "rate solves the increasing moment condition E[exp(a R)] = Q; "
            "a decreasing integral-transform convention cannot reach "
            "thresholds above 1 and is not used",
        ),
    )
