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

Plans decide on ln Q, finite even where Q overflows: planners build an
LrSupCurve (n -> log rho_n) and hand it to min_n_search with their large-n
approximation of the answer.  The search starts there, finds the first n
where the curve clears ln Q, and raises NonMonotoneCurveError when the
points it evaluated show the curve falling; reports carry rho and Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .numerics import _check_size, exp_or_inf

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
    The message gives both rho and, once rho_low passes float range, where
    only the logs still differ, both log rho.
    """

    def __init__(self, n_low: int, n_high: int, log_low: float, log_high: float):
        self.n_pair = (n_low, n_high)
        rho_low, rho_high = exp_or_inf(log_low), exp_or_inf(log_high)
        text = (
            f"curve is not nondecreasing in n: rho_{n_low} = {rho_low!r} but "
            f"rho_{n_high} = {rho_high!r}"
        )
        if rho_low == math.inf:
            text += f"; log rho_{n_low} = {log_low!r} but log rho_{n_high} = {log_high!r}"
        super().__init__(text)


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
        odds = self.alpha * self.pi
        return (1.0 - self.alpha) * (1.0 - self.pi) / odds if odds > 0.0 else math.inf

    def log_q(self) -> float:
        """ln Q, the level every plan decides on; finite for every valid target."""
        a, p = self.alpha, self.pi
        return math.log1p(-a) + math.log1p(-p) - math.log(a) - math.log(p)


def q_threshold(alpha: float, pi: float) -> float:
    """Density-ratio level the statistic must reach for pFDR <= alpha.

    Q = (1 - alpha)(1 - pi) / (alpha * pi).  Always > 1 when alpha + pi < 1,
    equal to 1 when alpha + pi = 1, and inf once it passes float range or
    alpha * pi underflows to 0; plans decide on PfdrTarget.log_q instead.
    Raises ValueError when alpha or pi lies outside (0, 1).
    """
    return PfdrTarget(alpha, pi).q()


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
    """Log density-ratio supremum as a function of the per-null sample size.

    eval(n) must return log rho_n >= 0 for integer n >= 1.  The curve is
    assumed nondecreasing in n; min_n_search verifies that assumption on the
    points it evaluates and raises NonMonotoneCurveError when it fails.
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


# slack in log rho when checking that cached curve values are nondecreasing;
# series-evaluated curves can wobble at round-off level near flat stretches
_MONOTONE_SLACK = 1e-12


def _first_drop(cache: dict[int, float]) -> tuple[int, int] | None:
    """First pair of adjacent evaluated n whose log values decrease, if any."""
    ns = sorted(cache)
    for prev, cur in zip(ns, ns[1:]):
        if cache[prev] - cache[cur] > _MONOTONE_SLACK:
            return prev, cur
    return None


def min_n_search(
    curve: LrSupCurve,
    target: PfdrTarget,
    n_max: int = DEFAULT_N_MAX,
    hint: float = 1.0,
) -> PlanReport:
    """Smallest integer n with log rho_n >= ln Q(alpha, pi), searched from a hint.

    hint is the caller's guess at the answer, typically a planner's large-n
    approximation.  It is rounded up and clamped into [1, n_max]; a hint
    that is not finite starts the search at 1.  From that n0 the search
    steps geometrically (first step max(1, n0 // 8), doubling) until one
    point lies below ln Q and one at or above it, never past n_max.  Illinois
    regula falsi on log rho_n - ln Q over the integers then closes the
    bracket, with bisection steps where interpolation cannot help.  The hint
    changes only the cost, never the answer, as long as the curve is
    nondecreasing.

    Every evaluated point is cached and checked afterwards: n* must cross
    ln Q where n* - 1 does not, and the cached logs must be nondecreasing.
    The diagnostic monotone_checked is 1 on every returned plan.

    Raises NotAttainableError when log rho_{n_max} < ln Q, InvalidRatioError
    when the curve returns a log below 0, and NonMonotoneCurveError when a
    check fails.
    """
    _check_size("n_max", n_max)
    log_q = target.log_q()
    cache: dict[int, float] = {}

    def g(n: int) -> float:  # log rho_n - ln Q
        v = cache.get(n)
        if v is None:
            v = float(curve.eval(n))
            if not v >= -1e-9:
                raise InvalidRatioError(
                    f"curve returned rho_{n} = {exp_or_inf(v)!r}; a density-ratio "
                    "supremum cannot be below 1"
                )
            cache[n] = v
        return v - log_q

    n0 = math.ceil(min(max(hint, 1.0), n_max)) if math.isfinite(hint) else 1
    bracket = _bracket(g, n0, n_max)
    if bracket is None:
        raise NotAttainableError(n_max, exp_or_inf(cache[n_max]), target.q())
    n_star = _close_bracket(g, *bracket)

    crossing_ok = g(n_star) >= 0.0 and (n_star == 1 or g(n_star - 1) < 0.0)
    drop = _first_drop(cache) if crossing_ok else (n_star - 1, n_star)
    if drop is not None:
        raise NonMonotoneCurveError(*drop, *(cache[n] for n in drop))

    diagnostics = {
        "rho_at_n_exact": exp_or_inf(cache[n_star]),
        "monotone_checked": 1.0,
    }
    if n_star > 1:
        diagnostics["rho_below_n_exact"] = exp_or_inf(cache[n_star - 1])
    return PlanReport(
        n_exact=n_star,
        n_asymptotic=None,
        regime=REGIME_EXACT_SEARCH,
        q_value=target.q(),
        diagnostics=diagnostics,
    )


def _bracket(g: Callable[[int], float], n0: int, n_max: int) -> tuple[int, int] | None:
    """(lo, hi) with g(lo) < 0 <= g(hi), stepping geometrically from n0.

    lo = 0 stands for "no n below the crossing": g(1) already reaches 0.
    None when g(n_max) < 0, so that no n up to n_max crosses.
    """
    step = max(1, n0 // 8)
    if g(n0) >= 0.0:
        hi = n0
        while hi > 1:
            n = max(1, hi - step)
            if g(n) < 0.0:
                return n, hi
            hi = n
            step *= 2
        return 0, 1
    lo = n0
    while lo < n_max:
        n = min(n_max, lo + step)
        if g(n) >= 0.0:
            return lo, n
        lo = n
        step *= 2
    return None


def _close_bracket(g: Callable[[int], float], lo: int, hi: int) -> int:
    """First n in (lo, hi] with g(n) >= 0, by Illinois regula falsi.

    Interpolates g(n) = log rho(n) - ln Q, negative at lo and nonnegative at
    hi.  When the same end moves twice running, the g of the end left behind
    is halved so the next point lands nearer to it.  A step bisects instead
    while g at hi is not finite (a curve may return inf) or both ends round
    to 0, and after the same end has moved twice running, which bounds the
    cost on step-shaped curves where interpolation creeps.
    """
    if hi - lo == 1:
        return hi
    g_lo, g_hi = g(lo), g(hi)
    streak = 0  # +k: hi moved on each of the last k steps; -k: lo did
    while hi - lo > 1:
        if abs(streak) < 2 and g_lo < g_hi < math.inf:
            x = lo + (hi - lo) * g_lo / (g_lo - g_hi)
            n = min(hi - 1, max(lo + 1, math.ceil(x)))
        else:
            n = (lo + hi) // 2
        g_n = g(n)
        if g_n >= 0.0:
            hi, g_hi = n, g_n
            streak = streak + 1 if streak > 0 else 1
            if streak > 1:
                g_lo *= 0.5
        else:
            lo, g_lo = n, g_n
            streak = streak - 1 if streak < 0 else -1
            if streak < -1:
                g_hi *= 0.5
    return hi
