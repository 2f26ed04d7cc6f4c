"""Sample size planning for the one-sample t statistic under normal data.

Per null, n + 1 observations are drawn and the usual t statistic with n
degrees of freedom is formed; a false null shifts the mean by r standard
deviations (signal-to-noise ratio r).  Over the natural one-sided rejection
regions, the supremum of the false-null to true-null density ratio of the
statistic has the closed series form

    L(n, r) = exp(-d^2 / 2) * sum_k a_{n,k} (sqrt(2) d)^k / k!,
    d = sqrt(n + 1) * r,   a_{n,k} = Gamma((n+k+1)/2) / Gamma((n+1)/2),

which is increasing in both n and r, so the minimum n with L(n, r) >= Q is
found by the generic curve search.  For large n the plan behaves like
n ~ ln(Q) / r.

Mixtures over r (a prior G on the signal-to-noise ratio, discretized to
atoms) average L over the atoms, and the large-n plan solves
E_G[exp(a R)] = Q for the rate a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    import numpy as np

from .numerics import (
    RootBracketError,
    exp_or_inf,
    find_root_increasing,
    log_sum_rows,
    log_sum_series,
)
from .pfdr_core import DEFAULT_N_MAX, LrSupCurve, PfdrTarget, PlanReport, min_n_search

__all__ = [
    "SnrEffect",
    "SnrMixture",
    "lr_sup_t",
    "log_lr_sup_t",
    "lr_sup_t_mixture",
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


def _log_terms_t(n: int, log_sqrt2_d: float) -> Iterator[float]:
    """Log terms of sum_k a_{n,k} (sqrt(2) d)^k / k! via the gamma recurrence."""
    la = 0.0  # log a_{n,k}, starting at k = 0
    lg_prev = math.lgamma(0.5 * (n + 1))
    k = 0
    while True:
        yield la + k * log_sqrt2_d - math.lgamma(k + 1)
        k += 1
        lg_next = math.lgamma(0.5 * (n + k + 1))
        la += lg_next - lg_prev
        lg_prev = lg_next


def _log_l(n: int, r: float) -> float:
    if r == 0.0:
        return 0.0
    d = math.sqrt(n + 1.0) * r
    return -0.5 * d * d + log_sum_series(
        _log_terms_t(n, 0.5 * math.log(2.0) + math.log(d))
    )


def log_lr_sup_t(n: int, r: float) -> float:
    """log of lr_sup_t, safe when the ratio exceeds float range."""
    _check_t_args(n, r)
    return _log_l(n, r)


def lr_sup_t(n: int, r: float) -> float:
    """Density-ratio supremum of the t statistic: L(n, r) above.

    Equals 1 at r = 0 and increases without bound in each argument; may
    return inf when the true value overflows, which the curve search
    tolerates.
    """
    _check_t_args(n, r)
    return exp_or_inf(_log_l(n, r))


def _check_t_args(n: int, r: float) -> None:
    if n < 1:
        raise ValueError(f"degrees of freedom n must be >= 1, got {n!r}")
    if not r >= 0.0:
        raise ValueError(f"signal-to-noise ratio must be >= 0, got {r!r}")


def plan_t(target: PfdrTarget, effect: SnrEffect, n_max: int = DEFAULT_N_MAX) -> PlanReport:
    """Minimum degrees of freedom n with L(n, r) >= Q(alpha, pi).

    The per-null sample size is n + 1 observations.  n_asymptotic carries the
    large-n rate approximation ln(Q) / r, which also starts the exact search.
    """
    curve = LrSupCurve(eval=lambda n: lr_sup_t(n, effect.r))
    q = target.q()
    log_q = math.log(q)
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
        q_value=q,
        diagnostics=diagnostics,
    )


def lr_sup_t_mixture(n: int, mixture: SnrMixture) -> float:
    """Weighted average of lr_sup_t over the mixture atoms.

    All atoms are summed together, one row each: the gamma ratios a_{n,k}
    do not depend on the atom, so each chunk computes them once.  The row of
    atom d peaks near k = (d^2 + sqrt(d^4 + 4 d^2 n)) / 2 - 1.
    """
    import numpy as np

    _check_t_args(n, mixture.scale)
    r, w = np.array(mixture.atoms).T
    d = math.sqrt(n + 1.0) * mixture.scale * r
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

    def mode(atom: tuple[float, float]) -> float:
        d = math.sqrt(n + 1.0) * mixture.scale * atom[0]
        d2 = d * d
        return 0.5 * (d2 + math.sqrt(d2 * d2 + 4.0 * d2 * n)) - 1.0

    atoms = mixture.atoms
    sums = log_sum_rows(chunk, mode(min(atoms)), mode(max(atoms)), len(atoms))
    logs = np.log(w) - 0.5 * d * d + sums
    m = float(logs.max())
    return exp_or_inf(m + math.log(float(np.exp(logs - m).sum())))


def _mgf_rate(mixture: SnrMixture, q: float) -> float:
    """Root a* of log E[exp(a R)] = ln Q; 0 when Q <= 1.

    The log-sum-exp runs in Python: over the few atoms of a typical prior
    it costs less than numpy's per-call overhead.
    """
    if q <= 1.0:
        return 0.0
    atoms = mixture.atoms
    r_top = max(atoms)[0]
    offsets = [(r - r_top, w) for r, w in atoms]

    def log_mgf(a: float) -> float:
        return a * r_top + math.log(sum([w * math.exp(a * dr) for dr, w in offsets]))

    log_q = math.log(q)
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
    curve = LrSupCurve(eval=lambda n: lr_sup_t_mixture(n, mixture))
    q = target.q()
    rate_error = None
    try:
        a_star = _mgf_rate(mixture, q)
    except (ValueError, RootBracketError) as exc:
        # raised only after the search, so that a target the curve cannot
        # reach still reports as not attainable
        a_star, rate_error = 0.0, exc
    report = min_n_search(curve, target, n_max=n_max, hint=a_star / mixture.scale)
    if rate_error is not None:
        raise rate_error
    diagnostics = dict(report.diagnostics)
    diagnostics["log_q"] = math.log(q)
    diagnostics["mgf_rate"] = a_star
    diagnostics["n_atoms"] = float(len(mixture.atoms))
    diagnostics["scale"] = mixture.scale
    return PlanReport(
        n_exact=report.n_exact,
        n_asymptotic=a_star / mixture.scale,
        regime=REGIME_T_MIXTURE,
        q_value=q,
        diagnostics=diagnostics,
        notes=(
            "rate solves the increasing moment condition E[exp(a R)] = Q; "
            "a decreasing integral-transform convention cannot reach "
            "thresholds above 1 and is not used",
        ),
    )
