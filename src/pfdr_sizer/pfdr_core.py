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
it to min_n_search together with their large-n approximation of the answer.
The search starts there, finds the first n where the curve clears Q, and
raises NonMonotoneCurveError when the points it evaluated show the curve
falling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "PfdrTarget",
    "LrSupCurve",
    "PlanReport",
    "NotAttainableError",
    "InvalidRatioError",
    "NonMonotoneCurveError",
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
            f"density-ratio supremum reaches only {rho_at_n_max!r} at "
            f"n_max={n_max}, below the required Q={q_value!r}"
        )


class InvalidRatioError(RuntimeError):
    """A curve returned a density-ratio supremum below 1: a numerical fault."""


class NonMonotoneCurveError(RuntimeError):
    """Two evaluated points show the curve falling as n grows.

    The search assumes a nondecreasing curve, so its answer cannot be
    trusted; n_pair names the two offending sample sizes, smaller first.
    """

    def __init__(self, n_low: int, n_high: int, rho_low: float, rho_high: float):
        self.n_pair = (n_low, n_high)
        super().__init__(
            f"curve is not nondecreasing in n: rho_{n_low} = {rho_low!r} but "
            f"rho_{n_high} = {rho_high!r}"
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
    equal to 1 when alpha + pi = 1.  Raises ValueError when alpha * pi
    underflows to 0 or Q overflows, since no plan can be read from an
    infinite Q.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    if not 0.0 < pi < 1.0:
        raise ValueError(f"pi must be in (0, 1), got {pi!r}")
    odds = alpha * pi
    q = (1.0 - alpha) * (1.0 - pi) / odds if odds > 0.0 else math.inf
    if q == math.inf:
        raise ValueError(
            f"alpha = {alpha!r} and pi = {pi!r} are too small: "
            f"Q = (1 - alpha)(1 - pi) / (alpha pi) overflows"
        )
    return q


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
    it actually evaluates and raises NonMonotoneCurveError when it fails.
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


def _first_drop(cache: dict[int, float]) -> tuple[int, int] | None:
    """First pair of adjacent evaluated n whose values decrease, if any."""
    ns = sorted(cache)
    for prev, cur in zip(ns, ns[1:]):
        a, b = cache[prev], cache[cur]
        if b < a and a - b > _MONOTONE_SLACK * abs(a):
            return prev, cur
    return None


def min_n_search(
    curve: LrSupCurve,
    target: PfdrTarget,
    n_max: int = DEFAULT_N_MAX,
    hint: float = 1.0,
) -> PlanReport:
    """Smallest integer n with rho_n >= Q(alpha, pi), searched from a hint.

    hint is the caller's guess at the answer, typically a planner's large-n
    approximation.  It is rounded up and clamped into [1, n_max]; a hint
    that is not finite starts the search at 1.  From that n0 the search
    steps geometrically (first step max(1, n0 // 8), doubling) until one
    point lies below Q and one at or above it, never past n_max.  Illinois
    regula falsi on log rho_n - ln Q over the integers then closes the
    bracket, with bisection steps where interpolation cannot help.  The hint
    changes only the cost, never the answer, as long as the curve is
    nondecreasing.

    Every evaluated point is cached and checked afterwards: n* must cross Q
    where n* - 1 does not, and the cached values must be nondecreasing.  The
    diagnostic monotone_checked is 1 on every returned plan.

    Raises NotAttainableError when rho_{n_max} < Q, InvalidRatioError when
    the curve returns a value below 1, and NonMonotoneCurveError when a check
    fails.
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
                raise InvalidRatioError(
                    f"curve returned rho_{n} = {v!r}; a density-ratio supremum "
                    "cannot be below 1"
                )
            cache[n] = v
        return v

    n0 = math.ceil(min(max(hint, 1.0), n_max)) if math.isfinite(hint) else 1
    lo, hi = _bracket(rho, q, n0, n_max)
    n_star = _close_bracket(rho, q, lo, hi)

    crossing_ok = rho(n_star) >= q and (n_star == 1 or rho(n_star - 1) < q)
    drop = _first_drop(cache) if crossing_ok else (n_star - 1, n_star)
    if drop is not None:
        raise NonMonotoneCurveError(*drop, cache[drop[0]], cache[drop[1]])

    diagnostics = {
        "rho_at_n_exact": rho(n_star),
        "monotone_checked": 1.0,
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


def _bracket(
    rho: Callable[[int], float], q: float, n0: int, n_max: int
) -> tuple[int, int]:
    """(lo, hi) with rho(lo) < Q <= rho(hi), stepping geometrically from n0.

    lo = 0 stands for "no n below the crossing": rho(1) already reaches Q.
    """
    step = max(1, n0 // 8)
    if rho(n0) >= q:
        hi = n0
        while hi > 1:
            n = max(1, hi - step)
            if rho(n) < q:
                return n, hi
            hi = n
            step *= 2
        return 0, 1
    lo = n0
    while lo < n_max:
        n = min(n_max, lo + step)
        if rho(n) >= q:
            return lo, n
        lo = n
        step *= 2
    raise NotAttainableError(n_max, rho(n_max), q)


def _close_bracket(rho: Callable[[int], float], q: float, lo: int, hi: int) -> int:
    """First n in (lo, hi] with rho(n) >= Q, by Illinois regula falsi.

    Interpolates g(n) = log rho(n) - ln Q, negative at lo and nonnegative at
    hi.  When the same end moves twice running, the g of the end left behind
    is halved so the next point lands nearer to it.  A step bisects instead
    while g at either end is not finite (an overflowed curve returns inf) or
    both round to 0, and after the same end has moved twice running, which
    bounds the cost on step-shaped curves where interpolation creeps.
    """
    if hi - lo == 1:
        return hi
    log_q = math.log(q)

    def g(n: int) -> float:
        return math.log(rho(n)) - log_q

    g_lo, g_hi = g(lo), g(hi)
    streak = 0  # +k: hi moved on each of the last k steps; -k: lo did
    while hi - lo > 1:
        if abs(streak) < 2 and -math.inf < g_lo < g_hi < math.inf:
            x = lo + (hi - lo) * g_lo / (g_lo - g_hi)
            n = min(hi - 1, max(lo + 1, math.ceil(x)))
        else:
            n = (lo + hi) // 2
        if rho(n) >= q:
            hi, g_hi = n, g(n)
            streak = streak + 1 if streak > 0 else 1
            if streak > 1:
                g_lo *= 0.5
        else:
            lo, g_lo = n, g(n)
            streak = streak - 1 if streak < 0 else -1
            if streak < -1:
                g_hi *= 0.5
    return hi
