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
from typing import Callable, Iterator

import numpy as np

from .numerics import find_root_increasing, log_sum_rows, log_sum_series, sum_series
from .pfdr_core import LrSupCurve, PfdrTarget, PlanReport, min_n_search

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

# atom budget for density discretization: enough for smooth priors, small
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

    @classmethod
    def from_density(
        cls,
        pdf: Callable[[float], float],
        support: tuple[float, float],
        scale: float = 1.0,
    ) -> "SnrMixture":
        """Discretize a density on a positive interval by Gauss-Legendre nodes.

        It uses MAX_MIXTURE_ATOMS nodes.  The stated support must carry all
        but 1e-10 of the density's mass; otherwise the truncation would
        silently bias the plan, so it is an error.  Weights are renormalized
        to sum to one exactly.
        """
        lo, hi = support
        if not 0.0 < lo < hi:
            raise ValueError(f"support must satisfy 0 < lo < hi, got {support!r}")
        nodes, gl_weights = np.polynomial.legendre.leggauss(MAX_MIXTURE_ATOMS)
        half = 0.5 * (hi - lo)
        xs = lo + half * (nodes + 1.0)
        ws = half * gl_weights * np.array([float(pdf(float(x))) for x in xs])
        if np.any(ws < 0.0):
            raise ValueError("density returned a negative value")
        mass = float(ws.sum())
        if abs(mass - 1.0) > 1e-10:
            raise ValueError(
                f"support {support!r} captures mass {mass:.12g}, not within "
                "1e-10 of 1; widen the support or check the density"
            )
        atoms = tuple(
            (float(x), float(w) / mass) for x, w in zip(xs, ws) if w > 0.0
        )
        return cls(atoms=atoms, scale=scale)


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


def log_lr_sup_t(n: int, r: float) -> float:
    """log of lr_sup_t, safe when the ratio exceeds float range."""
    _check_t_args(n, r)
    if r == 0.0:
        return 0.0
    d = math.sqrt(n + 1.0) * r
    return -0.5 * d * d + log_sum_series(
        _log_terms_t(n, 0.5 * math.log(2.0) + math.log(d))
    )


def lr_sup_t(n: int, r: float) -> float:
    """Density-ratio supremum of the t statistic: L(n, r) above.

    Equals 1 at r = 0 and increases without bound in each argument; may
    return inf when the true value overflows, which the curve search
    tolerates.
    """
    _check_t_args(n, r)
    if r == 0.0:
        return 1.0
    d = math.sqrt(n + 1.0) * r
    scaled = sum_series(_log_terms_t(n, 0.5 * math.log(2.0) + math.log(d)))
    if math.isinf(scaled):
        log_value = log_lr_sup_t(n, r)
        return math.inf if log_value >= 709.78 else math.exp(log_value)
    return math.exp(-0.5 * d * d) * scaled


def _check_t_args(n: int, r: float) -> None:
    if n < 1:
        raise ValueError(f"degrees of freedom n must be >= 1, got {n!r}")
    if not r >= 0.0:
        raise ValueError(f"signal-to-noise ratio must be >= 0, got {r!r}")


def plan_t(target: PfdrTarget, effect: SnrEffect, n_max: int = 10_000_000) -> PlanReport:
    """Minimum degrees of freedom n with L(n, r) >= Q(alpha, pi).

    The per-null sample size is n + 1 observations.  n_asymptotic carries the
    large-n rate approximation ln(Q) / r alongside the exact search result.
    """
    curve = LrSupCurve(eval=lambda n: lr_sup_t(n, effect.r))
    report = min_n_search(curve, target, n_max=n_max)
    q = report.q_value
    diagnostics = dict(report.diagnostics)
    diagnostics["snr"] = effect.r
    diagnostics["log_q"] = math.log(q)
    assert report.n_exact is not None
    diagnostics["delta_at_n_exact"] = math.sqrt(report.n_exact + 1.0) * effect.r
    return PlanReport(
        n_exact=report.n_exact,
        # a sample size below one observation is meaningless, so the rate
        # approximation is floored there for trivially attainable targets
        n_asymptotic=max(1.0, math.log(q) / effect.r),
        regime=REGIME_T_RATE,
        q_value=q,
        diagnostics=diagnostics,
    )


def lr_sup_t_mixture(n: int, mixture: SnrMixture) -> float:
    """Weighted average of lr_sup_t over the mixture atoms.

    All atoms are summed together, one row each: the gamma ratios a_{n,k}
    do not depend on the atom, so each chunk computes them once.
    """
    from scipy import special

    _check_t_args(n, mixture.scale)
    r, w = np.array(mixture.atoms).T
    d = math.sqrt(n + 1.0) * mixture.scale * r
    log_x = (0.5 * math.log(2.0) + np.log(d))[:, None]
    lg0 = math.lgamma(0.5 * (n + 1))

    def chunk(k0: int, k1: int) -> np.ndarray:
        k = np.arange(k0, k1, dtype=float)
        shared = special.gammaln(0.5 * (n + k + 1.0)) - lg0 - special.gammaln(k + 1.0)
        return shared + k * log_x

    logs = np.log(w) - 0.5 * d * d + log_sum_rows(chunk)
    m = float(logs.max())
    out = m + math.log(float(np.exp(logs - m).sum()))
    return math.inf if out >= 709.78 else math.exp(out)


def _mixture_mgf(mixture: SnrMixture, a: float) -> float:
    # exponent capped below the overflow point; the cap preserves ordering
    # well past any threshold a planner can ask for
    return sum(w * math.exp(min(a * r, 709.0)) for r, w in mixture.atoms)


def plan_t_mixture(
    target: PfdrTarget, mixture: SnrMixture, n_max: int = 10_000_000
) -> PlanReport:
    """Minimum n for a mixture prior on the signal-to-noise ratio.

    The exact search runs on the averaged ratio curve.  The asymptotic plan
    solves E[exp(a R)] = Q for a and reports n_asymptotic = a / scale: along
    n * scale -> a, the averaged ratio converges to that expectation, so its
    inverse is the right large-n rate.  A point mass reduces both answers to
    plan_t with r = scale * r_1.
    """
    curve = LrSupCurve(eval=lambda n: lr_sup_t_mixture(n, mixture))
    report = min_n_search(curve, target, n_max=n_max)
    q = report.q_value
    if q <= 1.0:
        a_star = 0.0
    else:
        mean_r = sum(w * r for r, w in mixture.atoms)
        a_star = find_root_increasing(
            lambda a: _mixture_mgf(mixture, a),
            q,
            bracket_hint=math.log(q) / mean_r,
            lo=0.0,
        )
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
