"""Shared numeric primitives.

digamma with an explicit domain check, a safeguarded summator for positive
series given by their log terms, and a monotone root finder that grows its
own bracket.

The series summator is the workhorse: every likelihood-ratio supremum in this
package is a Poisson-type series whose terms rise to a single mode and then
decay, and whose magnitude can exceed float range.  Summation therefore runs
against a moving scale factor, with compensated addition, and truncation is
only allowed once the terms are past their mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from scipy import optimize, special

__all__ = [
    "SeriesPolicy",
    "DEFAULT_SERIES_POLICY",
    "SeriesDivergenceError",
    "RootRangeError",
    "RootBracketError",
    "digamma",
    "sum_series",
    "log_sum_series",
    "find_root_increasing",
]

# exp() overflows just above 709; rescale well before that so that squaring
# or small products of terms stay finite too
_RESCALE_AT = 680.0


class SeriesDivergenceError(RuntimeError):
    """Series hit the term budget before meeting the truncation criterion."""


class RootRangeError(ValueError):
    """The requested target value lies outside the function's range."""


class RootBracketError(RuntimeError):
    """Bracket expansion reached the domain boundary without a sign change."""


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation control for series summation.

    rel_tol is the relative size, against the partial sum, below which a
    past-mode term allows truncation.  max_terms bounds the work; exceeding
    it raises SeriesDivergenceError.  log_domain anchors the internal scale
    at the running maximum log term, for series whose sum overflows float
    range and is only wanted in log form.
    """

    rel_tol: float = 1e-14
    max_terms: int = 1_000_000
    log_domain: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol <= 1e-6:
            raise ValueError(f"rel_tol must be in (0, 1e-6], got {self.rel_tol!r}")
        if self.max_terms < 1000:
            raise ValueError(f"max_terms must be at least 1000, got {self.max_terms!r}")


DEFAULT_SERIES_POLICY = SeriesPolicy()


def digamma(x: float) -> float:
    """Logarithmic derivative of the gamma function on the positive half line."""
    if not x > 0.0:
        raise ValueError(f"digamma requires x > 0, got {x!r}")
    return float(special.digamma(x))


def _accumulate(
    log_terms: Iterable[float], policy: SeriesPolicy
) -> tuple[float, float]:
    """Sum exp(log term) against a moving scale; return (log_scale, scaled_sum).

    The true sum is scaled_sum * exp(log_scale).  Terms must be -inf or finite;
    the sequence is treated as unimodal for truncation purposes: truncation is
    considered only after a strict decrease has been seen.
    """
    log_scale = 0.0
    total = 0.0
    comp = 0.0  # Neumaier compensation, same scale as total
    prev_lt = -math.inf
    past_mode = False
    count = 0
    for lt in log_terms:
        count += 1
        if count > policy.max_terms:
            raise SeriesDivergenceError(
                f"no truncation after {policy.max_terms} terms "
                f"(last log term {lt:.6g}, rel_tol {policy.rel_tol:g})"
            )
        if lt < prev_lt:
            past_mode = True
        prev_lt = lt

        if lt == -math.inf:
            term = 0.0
        else:
            if (policy.log_domain and lt > log_scale) or lt - log_scale > _RESCALE_AT:
                factor = math.exp(log_scale - lt)
                total *= factor
                comp *= factor
                log_scale = lt
            term = math.exp(lt - log_scale)
        s = total + term
        if abs(total) >= term:
            comp += (total - s) + term
        else:
            comp += (term - s) + total
        total = s

        if past_mode and term <= policy.rel_tol * total:
            break
    return log_scale, total + comp


def sum_series(
    log_terms: Iterable[float], policy: SeriesPolicy = DEFAULT_SERIES_POLICY
) -> float:
    """Sum a series of positive terms given by their natural logs.

    Truncates once terms are decreasing and the current term is below
    rel_tol times the partial sum; a generator that ends earlier is summed
    exactly as a finite series.  May return inf if the sum overflows float
    range; use log_sum_series when that is expected.
    """
    log_scale, total = _accumulate(log_terms, policy)
    if log_scale == 0.0:
        return total
    if total <= 0.0:
        return 0.0
    out = math.log(total) + log_scale
    if out >= 709.78:
        return math.inf
    return total * math.exp(log_scale)


def log_sum_series(
    log_terms: Iterable[float], policy: SeriesPolicy = DEFAULT_SERIES_POLICY
) -> float:
    """Natural log of sum_series, computed without leaving float range."""
    if not policy.log_domain:
        policy = SeriesPolicy(policy.rel_tol, policy.max_terms, log_domain=True)
    log_scale, total = _accumulate(log_terms, policy)
    if total <= 0.0:
        return -math.inf
    return math.log(total) + log_scale


# brentq's minimum relative step; roots are wanted at machine precision
_BRENT_RTOL = 4.0 * math.ulp(1.0)
_MAX_EXPANSIONS = 200
_X_HUGE = 1e300


def find_root_increasing(
    f: Callable[[float], float],
    target: float,
    bracket_hint: float,
    *,
    lo: float = 0.0,
    hi: float = math.inf,
) -> float:
    """Solve f(x) = target for a function increasing on the open interval (lo, hi).

    Starting from bracket_hint, the bracket grows geometrically toward the
    relevant boundary (doubling steps toward an infinite one, halving the
    remaining gap toward a finite one) until the target is straddled, then
    the root is polished to machine precision.

    Raises RootRangeError when the expansion shows the target sits below the
    function's infimum, and RootBracketError when a domain boundary is reached
    without ever crossing the target.
    """
    if not lo < bracket_hint < hi:
        raise ValueError(
            f"bracket_hint {bracket_hint!r} not inside the domain ({lo!r}, {hi!r})"
        )
    x = float(bracket_hint)
    y = f(x)
    if y == target:
        return x

    if y < target:
        a, b = _expand_up(f, target, x, hi)
    else:
        a, b = _expand_down(f, target, x, lo)

    root = optimize.brentq(
        lambda t: f(t) - target, a, b, xtol=1e-14, rtol=_BRENT_RTOL, maxiter=300
    )
    root = float(root)
    resid = abs(f(root) - target)
    if not resid <= 1e-10 * (1.0 + abs(target)):
        raise RootBracketError(
            f"root residual {resid:.3g} exceeds tolerance near x={root:.17g}; "
            "function may not be monotone on the stated domain"
        )
    return root


def _expand_up(
    f: Callable[[float], float], target: float, x: float, hi: float
) -> tuple[float, float]:
    a = x
    step = max(abs(x), 1.0)
    for k in range(1, _MAX_EXPANSIONS + 1):
        if math.isinf(hi):
            b = a + step
            step *= 2.0
            if b > _X_HUGE:
                raise RootRangeError(
                    f"target {target!r} lies above the range of f "
                    f"(still below it at x={a:.3g})"
                )
        else:
            b = hi - (hi - x) * 0.5**k
            if b <= a:
                b = 0.5 * (a + hi)
            if b <= a or k == _MAX_EXPANSIONS:
                raise RootBracketError(
                    f"f stayed below target {target!r} approaching the "
                    f"domain boundary {hi!r}"
                )
        if f(b) >= target:
            return a, b
        a = b
    # only reachable walking toward an infinite boundary: the function has
    # stayed below the target over an astronomically wide range
    raise RootRangeError(f"target {target!r} lies above the range of f (x={a:.3g})")


def _expand_down(
    f: Callable[[float], float], target: float, x: float, lo: float
) -> tuple[float, float]:
    b = x
    step = max(abs(x), 1.0)
    for k in range(1, _MAX_EXPANSIONS + 1):
        if math.isinf(lo):
            a = b - step
            step *= 2.0
            if a < -_X_HUGE:
                raise RootRangeError(
                    f"target {target!r} lies below the range of f "
                    f"(still above it at x={b:.3g})"
                )
        else:
            a = lo + (x - lo) * 0.5**k
            if a >= b:
                a = 0.5 * (lo + b)
            if a >= b or k == _MAX_EXPANSIONS:
                # f is decreasing toward its infimum at the boundary and the
                # target was never reached: it is below the range
                raise RootRangeError(
                    f"target {target!r} lies below the range of f on the domain"
                )
        if f(a) <= target:
            return a, b
        b = a
    raise RootRangeError(f"target {target!r} lies below the range of f on the domain")
