"""Shared numeric primitives.

Two safeguarded summators for positive series given by their log terms, and
a monotone root finder that grows its own bracket and polishes the root with
Brent's method.

The series summators are the workhorse: every likelihood-ratio supremum in
this package is a Poisson-type series whose terms rise to a single mode and
then decay, and whose magnitude can exceed float range.  Summation therefore
runs against a moving scale factor, and truncation is only allowed once the
terms are past their mode.  One fixed rule serves every series: the sum
stops at the first past-mode term at most 1e-14 times the partial sum, and a
series not stopped after 10^6 terms raises SeriesDivergenceError.
sum_series and log_sum_series take one series as a Python iterable and add
it term by term with compensated addition; log_sum_rows sums many series at
once, a numpy chunk of terms at a time, in the log domain.

The Brent polish is a line-for-line port of scipy.optimize.brentq, so roots
match scipy's to the last bit while this module imports no scipy at all.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "SeriesDivergenceError",
    "RootRangeError",
    "RootBracketError",
    "sum_series",
    "log_sum_series",
    "log_sum_rows",
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


# series truncation: a past-mode term at most _REL_TOL times the partial sum
# ends the sum, and a series still running after _MAX_TERMS terms raises
# SeriesDivergenceError; both are read at call time
_REL_TOL = 1e-14
_MAX_TERMS = 1_000_000


def _accumulate(
    log_terms: Iterable[float], log_domain: bool
) -> tuple[float, float]:
    """Sum exp(log term) against a moving scale; return (log_scale, scaled_sum).

    The true sum is scaled_sum * exp(log_scale).  Terms must be -inf or finite;
    the sequence is treated as unimodal for truncation purposes: truncation is
    considered only after a strict decrease has been seen.  log_domain anchors
    the scale at the running maximum log term, for sums wanted only as logs.
    """
    rel_tol, max_terms = _REL_TOL, _MAX_TERMS
    log_scale = 0.0
    total = 0.0
    comp = 0.0  # Neumaier compensation, same scale as total
    prev_lt = -math.inf
    past_mode = False
    count = 0
    for lt in log_terms:
        count += 1
        if count > max_terms:
            raise SeriesDivergenceError(
                f"no truncation after {max_terms} terms "
                f"(last log term {lt:.6g}, rel_tol {rel_tol:g})"
            )
        if lt < prev_lt:
            past_mode = True
        prev_lt = lt

        if lt == -math.inf:
            term = 0.0
        else:
            if (log_domain and lt > log_scale) or lt - log_scale > _RESCALE_AT:
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

        if past_mode and term <= rel_tol * total:
            break
    return log_scale, total + comp


def sum_series(log_terms: Iterable[float]) -> float:
    """Sum a series of positive terms given by their natural logs.

    Truncates once terms are decreasing and the current term is below
    1e-14 times the partial sum; a generator that ends earlier is summed
    exactly as a finite series.  May return inf if the sum overflows float
    range; use log_sum_series when that is expected.
    """
    log_scale, total = _accumulate(log_terms, log_domain=False)
    if log_scale == 0.0:
        return total
    if total <= 0.0:
        return 0.0
    out = math.log(total) + log_scale
    if out >= 709.78:
        return math.inf
    return total * math.exp(log_scale)


def log_sum_series(log_terms: Iterable[float]) -> float:
    """Natural log of sum_series, computed without leaving float range."""
    log_scale, total = _accumulate(log_terms, log_domain=True)
    if total <= 0.0:
        return -math.inf
    return math.log(total) + log_scale


# log_sum_rows chunk widths: small first chunks keep short series cheap, and
# the cap on cells per chunk bounds memory whatever the term budget is
_FIRST_CHUNK = 64
_MAX_CHUNK_CELLS = 16384


def log_sum_rows(chunk: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """Natural logs of the sums of several positive series, one per row.

    chunk(k0, k1) returns the finite log terms k0 <= k < k1 of every series
    as an array of shape (rows, k1 - k0); it is called with consecutive
    ranges starting at 0.  Each row is summed against its running maximum
    log term, so sums beyond float range come back as finite logs.

    The truncation rule is the one sum_series applies, checked at chunk
    ends: summation stops once, in every row, the terms are past their mode
    (the last term is below the chunk's largest) and the last term is at
    most 1e-14 times the partial sum.  Chunks double from 64 terms up to
    16384 cells.  Raises SeriesDivergenceError after 10^6 terms.
    """
    k0, width = 0, _FIRST_CHUNK
    top, total = -math.inf, 0.0  # become one entry per row at the first chunk
    while True:
        k1 = min(k0 + width, _MAX_TERMS)
        lt = chunk(k0, k1)
        chunk_top = lt.max(axis=1)
        new_top = np.maximum(top, chunk_top)
        total = total * np.exp(top - new_top) + np.exp(lt - new_top[:, None]).sum(axis=1)
        top = new_top
        last = lt[:, -1]
        done = (last < chunk_top) & (np.exp(last - top) <= _REL_TOL * total)
        if done.all():
            return top + np.log(total)
        if k1 == _MAX_TERMS:
            raise SeriesDivergenceError(
                f"no truncation after {_MAX_TERMS} terms "
                f"(last log term {last[~done].max():.6g}, rel_tol {_REL_TOL:g})"
            )
        k0 = k1
        width = min(2 * width, max(_FIRST_CHUNK, _MAX_CHUNK_CELLS // len(lt)))


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

    root = _brentq(lambda t: f(t) - target, a, b, 1e-14, _BRENT_RTOL, 300)
    resid = abs(f(root) - target)
    if not resid <= 1e-10 * (1.0 + abs(target)):
        raise RootBracketError(
            f"root residual {resid:.3g} exceeds tolerance near x={root:.17g}; "
            "function may not be monotone on the stated domain"
        )
    return root


def _brentq(
    f: Callable[[float], float],
    xa: float,
    xb: float,
    xtol: float,
    rtol: float,
    maxiter: int,
) -> float:
    """Root of f in the sign-changing bracket [xa, xb] by Brent's method.

    A port of scipy.optimize.brentq (scipy's brentq.c, after Brent 1973,
    Algorithms for Minimization without Derivatives, ch. 4) that keeps its
    operations in the same order, so the same f, bracket and tolerances give
    the same root bit for bit.  It stops once the bracket half-width is below
    (xtol + rtol |x|) / 2.  Raises ValueError when f is NaN or f(xa) and
    f(xb) share a sign, and RootBracketError after maxiter steps.
    """
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = _brent_eval(f, xpre)
    fcur = _brent_eval(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (
                        dblk * dpre * (fblk - fpre)
                    )
            except ZeroDivisionError:
                # C gives an infinite or NaN step here, which then bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _brent_eval(f, xcur)
    raise RootBracketError(
        f"Brent's method did not converge in {maxiter} iterations "
        f"(bracket [{xa!r}, {xb!r}], last x={xcur:.17g})"
    )


def _brent_eval(f: Callable[[float], float], x: float) -> float:
    fx = float(f(x))
    if fx != fx:
        raise ValueError(
            f"The function value at x={x} is NaN; solver cannot continue."
        )
    return fx


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
            # a step rounded onto hi has reached the boundary: f is not
            # defined there
            if not a < b < hi or k == _MAX_EXPANSIONS:
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
            if not lo < a < b or k == _MAX_EXPANSIONS:
                # f is decreasing toward its infimum at the boundary and the
                # target was never reached: it is below the range
                raise RootRangeError(
                    f"target {target!r} lies below the range of f on the domain"
                )
        if f(a) <= target:
            return a, b
        b = a
    raise RootRangeError(f"target {target!r} lies below the range of f on the domain")
