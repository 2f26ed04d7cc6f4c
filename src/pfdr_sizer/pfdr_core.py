"""Random-effects pFDR model and the generic minimum sample size search.

Each of a large number of independent nulls is false with probability pi.
For a fixed rejection rule at per-null sample size n, the discriminating
power of the test statistic is summarized by rho_n, the supremum over the
rejection region of the false-null to true-null density ratio.  Two facts
drive everything here:

  * the smallest pFDR attainable with that statistic is
    (1 - pi) / ((1 - pi) + pi * rho_n), and
  * pFDR <= alpha is therefore attainable iff
    rho_n >= Q(alpha, pi) = (1 - alpha)(1 - pi) / (alpha * pi).

Planners for specific statistics build an LrSupCurve (n -> rho_n) and hand
it to min_n_search, which finds the first n where the curve clears Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "PfdrTarget",
    "LrSupCurve",
    "PlanReport",
    "NotAttainableError",
    "q_threshold",
    "min_pfdr",
    "min_n_search",
    "DEFAULT_N_MAX",
    "REGIME_EXACT_SEARCH",
]

DEFAULT_N_MAX = 10_000_000

# regime label for a plan produced by the bare curve search
REGIME_EXACT_SEARCH = "exact-search"


class NotAttainableError(RuntimeError):
    """rho_n never reaches Q within the search budget."""

    def __init__(self, n_max: int, rho_at_n_max: float, q_value: float):
        self.n_max = n_max
        self.rho_at_n_max = rho_at_n_max
        self.q_value = q_value
        super().__init__(
            f"density-ratio supremum reaches only {rho_at_n_max:.6g} at "
            f"n_max={n_max}, below the required Q={q_value:.6g}"
        )


@dataclass(frozen=True)
class PfdrTarget:
    """Target pFDR level alpha under false-null prior probability pi."""

    alpha: float
    pi: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha!r}")
        if not 0.0 < self.pi < 1.0:
            raise ValueError(f"pi must be in (0, 1), got {self.pi!r}")

    def q(self) -> float:
        return q_threshold(self.alpha, self.pi)


def q_threshold(alpha: float, pi: float) -> float:
    """Density-ratio level the statistic must reach for pFDR <= alpha.

    Q = (1 - alpha)(1 - pi) / (alpha * pi).  Always > 1 when alpha + pi < 1,
    equal to 1 when alpha + pi = 1.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    if not 0.0 < pi < 1.0:
        raise ValueError(f"pi must be in (0, 1), got {pi!r}")
    return (1.0 - alpha) * (1.0 - pi) / (alpha * pi)


def min_pfdr(pi: float, rho: float) -> float:
    """Smallest attainable pFDR given the density-ratio supremum rho.

    Decreasing in rho; equals 1 - pi at rho = 1 (a useless statistic) and
    tends to 0 as rho grows.
    """
    if not 0.0 < pi < 1.0:
        raise ValueError(f"pi must be in (0, 1), got {pi!r}")
    if not rho >= 1.0:
        raise ValueError(f"rho must be >= 1, got {rho!r}")
    return (1.0 - pi) / ((1.0 - pi) + pi * rho)


@dataclass
class LrSupCurve:
    """Density-ratio supremum as a function of the per-null sample size.

    eval(n) must return rho_n >= 1 for integer n >= 1.  The curve is assumed
    nondecreasing in n; min_n_search verifies that assumption on the points
    it actually evaluates and reports the outcome in its diagnostics.
    """

    eval: Callable[[int], float]


@dataclass(frozen=True)
class PlanReport:
    """Outcome of a sample size plan.

    n_exact is the integer from a curve search (None when only an asymptotic
    formula was evaluated); n_asymptotic is the closed-form approximation
    (None when the plan is purely a search).  regime names the formula or
    search strategy used, and diagnostics carries solver internals worth
    surfacing in reports.
    """

    n_exact: int | None
    n_asymptotic: float | None
    regime: str
    q_value: float
    diagnostics: dict[str, float] = field(default_factory=dict)
    notes: tuple[str, ...] = ()


# relative slack when checking that cached curve values are nondecreasing;
# series-evaluated curves can wobble at round-off level near flat stretches
_MONOTONE_SLACK = 1e-12


def _cache_is_monotone(cache: dict[int, float]) -> bool:
    ns = sorted(cache)
    for prev, cur in zip(ns, ns[1:]):
        a, b = cache[prev], cache[cur]
        if b < a and a - b > _MONOTONE_SLACK * abs(a):
            return False
    return True


def min_n_search(
    curve: LrSupCurve,
    target: PfdrTarget,
    n_max: int = DEFAULT_N_MAX,
) -> PlanReport:
    """Smallest integer n with rho_n >= Q(alpha, pi).

    Brackets the crossing by doubling n, then bisects; every evaluated point
    is cached and checked for monotonicity afterwards.  If the check fails,
    the result is recomputed by a linear scan from n = 1 (correct for any
    curve) and the diagnostic monotone_checked is 0.

    Raises NotAttainableError when rho_{n_max} < Q.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max!r}")
    q = target.q()
    cache: dict[int, float] = {}

    def rho(n: int) -> float:
        v = cache.get(n)
        if v is None:
            v = float(curve.eval(n))
            if not v >= 1.0 - 1e-9:
                raise ValueError(
                    f"curve returned rho_{n} = {v!r}; a density-ratio supremum "
                    "cannot be below 1"
                )
            cache[n] = v
        return v

    n_star = _bracketed_search(rho, q, n_max)
    crossing_ok = rho(n_star) >= q and (n_star == 1 or rho(n_star - 1) < q)
    monotone_checked = crossing_ok and _cache_is_monotone(cache)
    if not monotone_checked:
        cache.clear()
        n_star = _linear_scan(rho, q, n_max)

    diagnostics = {
        "rho_at_n_exact": rho(n_star),
        "monotone_checked": 1.0 if monotone_checked else 0.0,
    }
    if n_star > 1:
        diagnostics["rho_below_n_exact"] = rho(n_star - 1)
    return PlanReport(
        n_exact=n_star,
        n_asymptotic=None,
        regime=REGIME_EXACT_SEARCH,
        q_value=q,
        diagnostics=diagnostics,
    )


def _bracketed_search(rho: Callable[[int], float], q: float, n_max: int) -> int:
    if rho(1) >= q:
        return 1
    lo = 1
    n = 1
    while True:
        if n >= n_max:
            raise NotAttainableError(n_max, rho(n_max), q)
        n = min(2 * n, n_max)
        if rho(n) >= q:
            hi = n
            break
        lo = n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rho(mid) >= q:
            hi = mid
        else:
            lo = mid
    return hi


def _linear_scan(rho: Callable[[int], float], q: float, n_max: int) -> int:
    for n in range(1, n_max + 1):
        if rho(n) >= q:
            return n
    raise NotAttainableError(n_max, rho(n_max), q)
