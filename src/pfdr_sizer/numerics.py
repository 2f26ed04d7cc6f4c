"""Shared numeric primitives.

One safeguarded summator for positive series given by their log terms, a
numpy sibling that sums many such series at once, one overflow guard, and a
monotone root finder that grows its own bracket and polishes the root with
Brent's method.

Every likelihood-ratio supremum in this package is a Poisson-type series
whose terms rise to a single mode and then decay, and whose magnitude can
exceed float range.  Each kernel returns the log of its sum, so no sum
overflows, and raises SeriesDivergenceError rather than pass term 10^6:
_check_budget refuses a series from its mode, before any term, once
log_sum_rows' first window about the mode would pass that term.  The t
kernel and F below its crossover sum from k = 0 by their exact term ratios
in plain floats, in normal_t and f_test.
log_sum_rows sums the rest, F's long rows and the t-mixture's rows, over
one numpy window around their modes, so its cost grows with the mode's
square root.  log_sum_series adds one series from k = 0 term by term with
compensated addition against a scale that moves only when a term would
otherwise overflow; no planner calls it or sum_series any more, and the
test oracles and the benchmark's tracer do.  Plans decide on the logs;
exp_or_inf turns a log back into a value for the public ratio functions
and reports, inf once it passes float range; sum_series is the two
composed.

The special functions the kernels need are here too, in plain floats:
Stirling's remainder of log k!, log I0 with I1 / I0, digamma and trigamma.

The root finder is scale-free: its first step is the size of the hint and
the Brent polish stops on a relative tolerance alone, so solving f(x / b)
from b times the hint gives b times the root for any scale b.  The polish is
a line-for-line port of scipy.optimize.brentq, so roots match scipy's to
the last bit at equal tolerances while this module imports no scipy at all.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SeriesDivergenceError",
    "RootRangeError",
    "RootBracketError",
    "exp_or_inf",
    "sum_series",
    "log_sum_series",
    "log_sum_rows",
    "stirlerr",
    "log_i0_and_ratio",
    "digamma",
    "trigamma",
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


# series truncation: the sums stop at _REL_TOL relative to the partial sum,
# and a series that needs a term past index _MAX_TERMS raises
# SeriesDivergenceError; this module reads both at call time
_REL_TOL = 1e-14
_MAX_TERMS = 1_000_000


def _budget_error(mode: float) -> SeriesDivergenceError:
    """The error of a series whose terms peak at mode, cut at the term budget."""
    return SeriesDivergenceError(
        f"no truncation after {_MAX_TERMS} terms "
        f"(terms peak at k = {mode:.6g}, rel_tol {_REL_TOL:g})"
    )


def _check_budget(mode: float) -> tuple[int, int]:
    """(hi, h): log_sum_rows' first window about mode, which ends at term hi + h.

    h = 8 + ceil(9 sqrt(2 hi + 2)) is nine standard deviations where log
    terms curve by 1 / (2 (k + 1)), as the t series' do once k >> n.  A
    series whose window would reach term _MAX_TERMS, a NaN or infinite mode
    included, raises SeriesDivergenceError naming the mode.  Every kernel
    asks before it sums a term, so a refusal costs none.
    """
    if mode < _MAX_TERMS:
        hi = max(0, math.ceil(mode))
        h = 8 + math.ceil(9.0 * math.sqrt(2.0 * hi + 2.0))
        if hi + h < _MAX_TERMS:
            return hi, h
    raise _budget_error(mode)


def _accumulate(log_terms: Iterable[float]) -> tuple[float, float]:
    """Sum exp(log term) against a moving scale; return (log_scale, scaled_sum).

    The true sum is scaled_sum * exp(log_scale).  The scale starts at 0 and
    moves up to a term only when that term passes it by _RESCALE_AT, so a
    series whose first log term is 0 is summed unscaled until it nears float
    range.  Terms must be -inf or finite; the sequence is treated as unimodal
    for truncation purposes: truncation is considered only after a strict
    decrease has been seen.
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
            if lt - log_scale > _RESCALE_AT:
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


# the largest integer size accepted: past 2^53 floats cannot tell n from n + 1
_MAX_SIZE = 2**53


def _check_size(name: str, value: int) -> None:
    """Refuse an integer size below 1 or past _MAX_SIZE, naming it."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")
    if value > _MAX_SIZE:
        raise ValueError(
            f"{name} must be at most 2^53 = {_MAX_SIZE}, past which floats cannot "
            f"tell {name} from {name} + 1"
        )


def exp_or_inf(x: float) -> float:
    """exp(x), or inf from the point where exp overflows float range."""
    return math.inf if x >= 709.78 else math.exp(x)


def log_sum_series(log_terms: Iterable[float]) -> float:
    """Natural log of the sum of positive terms given by their natural logs.

    Truncates once terms are decreasing and the current term is below
    1e-14 times the partial sum; a generator that ends earlier is summed
    exactly as a finite series.  Sums beyond float range come back as
    finite logs, and an empty or all-zero series as -inf.  Terms below
    exp's range underflow to 0, so a series should start near log term 0.
    """
    log_scale, total = _accumulate(log_terms)
    if total <= 0.0:
        return -math.inf
    return math.log(total) + log_scale


def sum_series(log_terms: Iterable[float]) -> float:
    """exp of log_sum_series: the sum itself, inf when it overflows."""
    return exp_or_inf(log_sum_series(log_terms))


# log_sum_rows computes its window in blocks of at most this many cells
# (rows x terms), so memory stays bounded whatever the window's width
_MAX_CHUNK_CELLS = 16384


def log_sum_rows(
    chunk: Callable[[int, int], np.ndarray], mode_lo: float, mode_hi: float, rows: int = 1
) -> np.ndarray:
    """Natural logs of the sums of several log-concave positive series, one per row.

    chunk(k0, k1) returns the finite log terms k0 <= k < k1 of every series
    as an array of shape (rows, k1 - k0), for any range.  A pass sums the
    window [mode_lo - h, mode_hi + h], clipped at 0, in blocks of at most
    16384 cells and at least two terms, each row against its largest term;
    h starts as _check_budget's, which refuses a first window past term
    10^6 before any chunk.  The terms cut beyond an edge term e whose log
    ratio to its inner neighbour is d < 0 sum to at most e e^d / (1 - e^d);
    unless that is at most 1e-14 of the sum at each cut edge of every row,
    h doubles.  A window doubled past term 10^6 raises SeriesDivergenceError.
    """
    import numpy as np

    hi, h = _check_budget(mode_hi)
    while hi + h < _MAX_TERMS:
        k0 = max(0, math.floor(mode_lo) - h)
        width = hi + h + 1 - k0
        # equal blocks under the cell cap, each at least two terms wide
        blocks = min(width // 2, -(-width * rows // _MAX_CHUNK_CELLS))
        lt = head = chunk(k0, k0 + width // blocks)
        top = lt.max(axis=1)
        total = np.exp(lt - top[:, None]).sum(axis=1)
        for i in range(1, blocks):
            lt = chunk(k0 + width * i // blocks, k0 + width * (i + 1) // blocks)
            new_top = np.maximum(top, lt.max(axis=1))
            total = total * np.exp(top - new_top) + np.exp(lt - new_top[:, None]).sum(axis=1)
            top = new_top
        # the bound test as e <= 1e-14 sum (e^-d - 1): where an edge still
        # rises (d >= 0), a log-concave row peaks there, so e = 1 fails it.
        # -d is clamped at 700 so that expm1 stays finite; the right side is
        # then at least 1e-14 e^700 > 1 >= e, so no decision changes
        bound = _REL_TOL * total
        edge = lt[:, -1]
        done = np.exp(edge - top) <= bound * np.expm1(np.minimum(lt[:, -2] - edge, 700.0))
        if k0 > 0:
            edge = head[:, 0]
            done &= np.exp(edge - top) <= bound * np.expm1(np.minimum(head[:, 1] - edge, 700.0))
        if done.all():
            return top + np.log(total)
        h *= 2
    raise _budget_error(mode_hi)


def stirlerr(k: float) -> float:
    """log k! - (k log k - k + log(2 pi k) / 2) for k >= 1, Stirling's remainder.

    Below 15 as an lgamma difference, from 15 on by the series
    1/(12k) - 1/(360k^3) + 1/(1260k^5) - 1/(1680k^7), whose next term is
    under 3e-14 there (Loader 2000, "Fast and accurate computation of
    binomial probabilities").
    """
    if k < 15.0:
        return math.lgamma(k + 1.0) - (k * math.log(k) - k + 0.5 * math.log(2.0 * math.pi * k))
    w = 1.0 / (k * k)
    return (1.0 / 12.0 + w * (-1.0 / 360.0 + w * (1.0 / 1260.0 - w / 1680.0))) / k


def log_i0_and_ratio(u: float) -> tuple[float, float]:
    """(log I0(u), I1(u) / I0(u)) for u >= 0.

    Below u = 25 from the power series in (u/2)^2, of positive terms; from 25
    on from Hankel's expansion (Abramowitz & Stegun 9.7.1), whose terms are
    below rounding by k = 20, before they grow at k = 2u.  Both stop at the
    first term that changes neither sum.
    """
    s0 = s1 = t0 = t1 = 1.0
    k = 0
    if u < 25.0:
        z = 0.25 * u * u
        while True:
            k += 1
            t0 *= z / (k * k)
            t1 *= z / (k * (k + 1))
            if s0 + t0 == s0 and s1 + t1 == s1:
                return math.log(s0), 0.5 * u * s1 / s0
            s0, s1 = s0 + t0, s1 + t1
    while True:
        k += 1
        odd2 = (2 * k - 1) ** 2
        t0 *= odd2 / (8.0 * k * u)
        t1 *= (odd2 - 4) / (8.0 * k * u)
        if s0 + t0 == s0 and s1 + t1 == s1:
            return u - 0.5 * math.log(2.0 * math.pi * u) + math.log(s0), s1 / s0
        s0, s1 = s0 + t0, s1 + t1


# B_2k / 2k and B_2k, k = 8 down to 1: the Stirling series of digamma and
# trigamma (Abramowitz & Stegun 6.3.18 and 6.4.12) to the B_16 term
_BERNOULLI = (-3617 / 510, 7 / 6, -691 / 2730, 5 / 66, -1 / 30, 1 / 42, -1 / 30, 1 / 6)
_DIGAMMA_COEFS = tuple(b / (16 - 2 * i) for i, b in enumerate(_BERNOULLI))


def digamma(x: float) -> float:
    """psi(x) for x > 0: upward recurrence to x >= 10, then the Stirling series.

    The recurrence's sum is compensated, since psi cancels to 0 at 1.4616.
    """
    total = comp = 0.0
    while x < 10.0:
        step = 1.0 / x
        new = total + step
        comp += (total - new) + step
        total = new
        x += 1.0
    w, series = 1.0 / (x * x), 0.0
    for c in _DIGAMMA_COEFS:
        series = (series + c) * w
    return (math.log(x) - total) - comp - 0.5 / x - series


def trigamma(x: float) -> float:
    """psi'(x) for x > 0: upward recurrence to x >= 10, then the Stirling series."""
    total = 0.0
    while x < 10.0:
        step = 1.0 / x
        total += step * step
        x += 1.0
    w, series = 1.0 / (x * x), 0.0
    for b in _BERNOULLI:
        series = (series + b) * w
    return total + (1.0 + 0.5 / x + series) / x


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
    relevant boundary (steps doubling from |bracket_hint| toward an infinite
    one, halving the remaining gap toward a finite one) until the target is
    straddled, then the root is polished to machine precision relative to
    its size.  No step depends on the unit of x, so the hint must be nonzero.

    Raises RootRangeError when the expansion shows the target sits below the
    function's infimum, and RootBracketError when a domain boundary is reached
    without ever crossing the target.
    """
    if not lo < bracket_hint < hi or bracket_hint == 0.0:
        raise ValueError(
            f"bracket_hint {bracket_hint!r} must be nonzero and inside the "
            f"domain ({lo!r}, {hi!r})"
        )
    x = float(bracket_hint)
    y = f(x)
    if y == target:
        return x

    if y < target:
        (a, fa), (b, fb) = _walk(f, target, x, y, hi, 1.0)
    else:
        (b, fb), (a, fa) = _walk(f, target, x, y, lo, -1.0)

    # the polish starts from the walk's last two points and returns a point
    # it evaluated, so f - target is kept and no point is evaluated twice
    seen = {a: fa - target, b: fb - target}

    def g(t: float) -> float:
        v = seen.get(t)
        if v is None:
            v = seen[t] = f(t) - target
        return v

    root = _brentq(g, a, b, math.ulp(0.0), _BRENT_RTOL, 300)
    resid = abs(seen[root])
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


def _walk(
    f: Callable[[float], float],
    target: float,
    x: float,
    y: float,
    edge: float,
    sign: float,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """(x, f(x)) at the last point short of the target and the first past it.

    The walk starts from x, where f is y.  sign is 1 to walk up toward edge
    while f < target, and -1 to walk down while f > target.  Walking down f
    is walking up -f(-x), so the loop runs on s = sign * x, where both walks
    go up.
    """
    up = sign > 0.0
    a, fa, end, goal = sign * x, sign * y, sign * edge, sign * target
    step = abs(x)
    for k in range(1, _MAX_EXPANSIONS + 1):
        if math.isinf(end):
            b = a + step
            step *= 2.0
            if b > _X_HUGE:
                raise RootRangeError(
                    f"target {target!r} lies {'above' if up else 'below'} the "
                    f"range of f (still {'below' if up else 'above'} it at "
                    f"x={sign * a:.3g})"
                )
        else:
            b = end - (end - sign * x) * 0.5**k
            if b <= a:
                b = 0.5 * (a + end)
            # a step rounded onto the edge has reached the boundary: f is not
            # defined there
            if not a < b < end or k == _MAX_EXPANSIONS:
                if up:
                    raise RootBracketError(
                        f"f stayed below target {target!r} approaching the "
                        f"domain boundary {edge!r}"
                    )
                # f is decreasing toward its infimum at the boundary and the
                # target was never reached: it is below the range
                break
        fb = sign * f(sign * b)
        if fb >= goal:
            return (sign * a, sign * fa), (sign * b, sign * fb)
        a, fa = b, fb
    # walking up, only reachable toward an infinite boundary: the function
    # has stayed below the target over an astronomically wide range
    if up:
        raise RootRangeError(
            f"target {target!r} lies above the range of f (x={a:.3g})"
        )
    raise RootRangeError(f"target {target!r} lies below the range of f on the domain")
