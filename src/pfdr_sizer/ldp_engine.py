"""Rate-function machinery for general data distributions.

The split-sample Studentized rule rejects when the mean of n observations
exceeds z times a scale estimate built from a further m paired observations
(rho = m / N is the fraction spent on the scale).  For data whose centered
log moment generating function is Lambda, the exponential rate at which the
density-ratio supremum grows is governed by the unique positive root t0 of

    t * Lambda'(t) = (1 + lambda) * rho / (1 - rho),

where lambda is the tail index of the paired-difference density at zero
(lambda = 0 whenever that density is positive and finite at the origin).
The minimum total sample size to reach the ratio level Q at mean shift d is
then

    N ~ ln(Q) / (d * (1 - rho) * t0),

and the smallest pFDR attainable with threshold growth T = d * N satisfies
pfdr_floor = (1 - pi) / ((1 - pi) + pi * exp((1 - rho) T t0)), which equals
alpha exactly at the planned N.

Score-based variants replace the raw observation by a model score; their
rate gains a variance-side term K_f (a density-weighted mean of the score
argument) so N ~ ln(Q) / (theta [(1 - rho) Lambda'(t0) + 2 rho K_f]).

Everything here works through CgfModel, a container of Lambda and its first
two derivatives with an explicit domain; built-in constructors cover normal,
uniform, and centered gamma data plus normal, Cauchy, and Gumbel-type
(log-exponential) score models, and empirical_cgf fits one from a sample.

FAMILIES declares each built-in family once: its name, whether it is a shift
or a score family, its parameters with their defaults, its model constructor
and the sampler the Monte Carlo engine counts its rejections with.  The
planners, the CLI and mc_verify all read their families from it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

from .numerics import (
    RootBracketError,
    RootRangeError,
    digamma,
    exp_or_inf,
    find_root_increasing,
    log_i0_and_ratio,
    trigamma,
)
from .pfdr_core import PfdrTarget, PlanReport

__all__ = [
    "CgfModel",
    "TailIndex",
    "SplitSpec",
    "ScoreModel",
    "SplitOptimum",
    "Family",
    "UnsupportedFamilyError",
    "QuadratureError",
    "normal_family",
    "uniform_family",
    "gamma_family",
    "make_family",
    "normal_score_model",
    "cauchy_score_model",
    "gamma_score_model",
    "make_score_model",
    "FAMILIES",
    "SHIFT_FAMILIES",
    "SCORE_FAMILIES",
    "legendre",
    "solve_t0",
    "k_f",
    "optimal_split",
    "n_star_general",
    "n_star_score",
    "pfdr_floor_limit",
    "empirical_cgf",
    "REGIME_CGF_RATE",
    "REGIME_SCORE_RATE",
    "EULER_GAMMA",
]

REGIME_CGF_RATE = "cgf-rate"
REGIME_SCORE_RATE = "score-rate"

EULER_GAMMA = 0.5772156649015328606

# golden-section bracket for the split fraction; optima this close to 0 or 1
# are reported as boundary outcomes rather than interior solutions
_RHO_LO = 1e-4
_RHO_HI = 1.0 - 1e-4
_RHO_BOUNDARY_MARGIN = 1e-3


class UnsupportedFamilyError(ValueError):
    """Requested family has no built-in model of the needed kind."""


class QuadratureError(RuntimeError):
    """Numerical integration failed to converge to the requested accuracy."""


@dataclass(frozen=True)
class TailIndex:
    """Behavior of the paired-difference density g near zero.

    g(v) ~ c |v|^lam as v -> 0 with lam > -1; lam = 0 with finite positive
    g(0) is the common case.
    """

    lam: float = 0.0

    def __post_init__(self) -> None:
        if not self.lam > -1.0:
            raise ValueError(f"tail index must be > -1, got {self.lam!r}")


@dataclass(frozen=True)
class SplitSpec:
    """Fraction rho of the per-null sample spent on the scale estimate."""

    rho: float

    def __post_init__(self) -> None:
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {self.rho!r}")


@dataclass(frozen=True)
class CgfModel:
    """Centered log moment generating function with two derivatives.

    lambda_fn(0) = 0 and lambda_d1(0) = 0 (the data are centered); functions
    must be finite on (domain_inf, domain_sup) and are never called outside.
    """

    lambda_fn: Callable[[float], float]
    lambda_d1: Callable[[float], float]
    lambda_d2: Callable[[float], float]
    domain_sup: float = math.inf
    domain_inf: float = -math.inf
    family_tag: str = "custom"


@dataclass(frozen=True)
class ScoreModel:
    """Score transform of the data plus everything the rate formula needs.

    cgf describes the score under the true null; k_f is the variance-side
    rate contribution (0 for scores with even null density).
    """

    cgf: CgfModel
    tail: TailIndex
    k_f: float


@dataclass(frozen=True)
class SplitOptimum:
    """Result of maximizing (1 - rho) t0(rho) over the split fraction.

    rho_star is the interior maximizer, or None when the objective keeps
    improving into a boundary (boundary is then "lower" or "upper" and
    objective is the value at the clipped endpoint).
    """

    rho_star: float | None
    objective: float
    boundary: str | None = None


# ---------------------------------------------------------------------------
# built-in data families


def _positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


# smallest curvature whose reciprocal is finite
_TINY = 1.0 / sys.float_info.max


def _curvature(
    value: float, expr: str, smallest: float = _TINY, **params: float
) -> float:
    # a cgf's curvature sets the root solves' starting points; one that
    # overflows, or underflows below smallest, would send them to 0 or inf
    if value == math.inf or value < smallest:
        given = ", ".join(f"{key} = {v!r}" for key, v in params.items())
        if value == math.inf:
            raise ValueError(f"{given}: too large, {expr} overflows")
        raise ValueError(f"{given}: too small, {expr} underflows")
    return value


def _quadratic_cgf(s2: float, tag: str) -> CgfModel:
    # centered normal data of variance s2
    return CgfModel(
        lambda_fn=lambda t: 0.5 * s2 * t * t,
        lambda_d1=lambda t: s2 * t,
        lambda_d2=lambda t: s2,
        family_tag=tag,
    )


def normal_family(sigma: float = 1.0) -> tuple[CgfModel, TailIndex]:
    _positive("sigma", sigma)
    s2 = _curvature(sigma * sigma, "sigma^2", sigma=sigma)
    # X - Y is normal with variance 2 sigma^2: positive finite density at 0
    return _quadratic_cgf(s2, f"normal(sigma={sigma:g})"), TailIndex(lam=0.0)


def _uniform_lambda(t: float) -> float:
    # ln(2 sinh(u/2) / u) for u = |t|; even in t.  The direct form loses
    # precision to cancellation as u -> 0, so a series takes over there.
    u = abs(t)
    if u < 1e-2:
        u2 = u * u
        return u2 / 24.0 - u2 * u2 / 2880.0 + u2 * u2 * u2 / 181440.0
    return 0.5 * u + math.log(-math.expm1(-u)) - math.log(u)


def _uniform_lambda_d1(t: float) -> float:
    u = abs(t)
    if u < 1e-2:
        v = u / 12.0 - u**3 / 720.0 + u**5 / 30240.0
    else:
        v = 0.5 / math.tanh(0.5 * u) - 1.0 / u
    return math.copysign(v, t) if t != 0.0 else 0.0


def _uniform_lambda_d2(t: float) -> float:
    u = abs(t)
    if u < 0.1:
        u2 = u * u
        return 1.0 / 12.0 - u2 / 240.0 + u2 * u2 / 6048.0
    em1 = -math.expm1(-u)  # 1 - e^(-u) without cancellation
    return 1.0 / (u * u) - math.exp(-u) / (em1 * em1)


def uniform_family(width: float = 1.0) -> tuple[CgfModel, TailIndex]:
    """Uniform on an interval of the given width, centered."""
    _positive("width", width)
    _curvature(width * width / 12.0, "width^2 / 12", width=width)
    w = width
    cgf = CgfModel(
        lambda_fn=lambda t: _uniform_lambda(w * t),
        lambda_d1=lambda t: w * _uniform_lambda_d1(w * t),
        lambda_d2=lambda t: w * w * _uniform_lambda_d2(w * t),
        family_tag=f"uniform(width={width:g})",
    )
    # X - Y is triangular on [-w, w]: g(0) = 1/w
    return cgf, TailIndex(lam=0.0)


def _exp_lambda(x: float) -> float:
    # -ln(1 - x) - x, the cgf of centered unit exponential data, for x < 1.
    # The direct form loses precision to cancellation as x -> 0, so the
    # series sum_k x^k / k, k >= 2, summed to k = 17 takes over there.
    if abs(x) < 0.1:
        s = 0.0
        for k in range(17, 1, -1):
            s = s * x + 1.0 / k
        return s * x * x
    return -math.log1p(-x) - x


def gamma_family(shape: float, scale: float = 1.0) -> tuple[CgfModel, TailIndex]:
    """Gamma(shape) data scaled by scale and centered at its mean.

    The paired-difference density at zero is finite only for shape > 1/2;
    at shape = 1/2 it diverges logarithmically and below it like a power,
    so the tail index is lam = 2 * shape - 1 there.
    """
    _positive("shape", shape)
    _positive("scale", scale)
    tail = min(0.0, 2.0 * shape - 1.0)
    if tail == -1.0:
        raise ValueError(f"shape = {shape!r}: too small, 2 shape - 1 rounds to -1")
    a, b = shape, scale
    # the finite domain t < 1 / scale bounds the root solves, so any
    # nonzero curvature will do
    _curvature(a * b * b, "shape * scale^2", math.ulp(0.0), shape=a, scale=b)
    sup = 1.0 / b

    def lam(t: float) -> float:
        _check_below(t, sup)
        return a * _exp_lambda(b * t)

    def lam1(t: float) -> float:
        _check_below(t, sup)
        return a * b * b * t / (1.0 - b * t)

    def lam2(t: float) -> float:
        _check_below(t, sup)
        return a * b * b / ((1.0 - b * t) * (1.0 - b * t))

    cgf = CgfModel(
        lambda_fn=lam,
        lambda_d1=lam1,
        lambda_d2=lam2,
        domain_sup=sup,
        family_tag=f"gamma(shape={shape:g},scale={scale:g})",
    )
    return cgf, TailIndex(lam=tail)


def _check_below(t: float, sup: float) -> None:
    if t >= sup:
        raise ValueError(f"t = {t!r} is outside the domain (t < {sup!r})")


# ---------------------------------------------------------------------------
# built-in score models


def normal_score_model(sigma: float = 1.0) -> ScoreModel:
    """Location score of normal data: X = omega / sigma^2, standard deviation 1/sigma."""
    _positive("sigma", sigma)
    inv_s2 = 1.0 / _curvature(sigma * sigma, "sigma^2", sigma=sigma)
    cgf = _quadratic_cgf(inv_s2, f"normal-score(sigma={sigma:g})")
    return ScoreModel(cgf=cgf, tail=TailIndex(lam=0.0), k_f=0.0)


def cauchy_score_model() -> ScoreModel:
    """Location score of standard Cauchy data: X = 2 omega / (1 + omega^2).

    The score is bounded in [-1, 1] with an even null density, so K_f = 0;
    its log mgf is ln I0(t), with a logarithmic factor in the tail index
    because the score density blows up like a reciprocal square root at the
    endpoints (which only affects constants, not the plan).
    """

    def lam(t: float) -> float:
        return log_i0_and_ratio(abs(t))[0]

    def lam1(t: float) -> float:
        return math.copysign(log_i0_and_ratio(abs(t))[1], t)

    def lam2(t: float) -> float:
        u = abs(t)
        if u < 1e-5:
            return 0.5 - 3.0 * u * u / 16.0
        r = log_i0_and_ratio(u)[1]
        return 1.0 - r / u - r * r

    cgf = CgfModel(
        lambda_fn=lam, lambda_d1=lam1, lambda_d2=lam2, family_tag="cauchy-score"
    )
    tail = TailIndex(lam=0.0)
    return ScoreModel(cgf=cgf, tail=tail, k_f=0.0)


def gamma_score_model() -> ScoreModel:
    """Location score of unit-rate exponential data on the log scale.

    The null score is X = ln(omega) + EULER_GAMMA for omega standard
    exponential, a centered Gumbel-type variable with log mgf
    ln Gamma(1 + t) + EULER_GAMMA t on t > -1.  Its density is asymmetric,
    and K_f = 1 - ln 2 exactly.
    """

    def lam(t: float) -> float:
        if t <= -1.0:
            raise ValueError(f"t = {t!r} is outside the domain (t > -1)")
        return math.lgamma(1.0 + t) + EULER_GAMMA * t

    def lam1(t: float) -> float:
        if t <= -1.0:
            raise ValueError(f"t = {t!r} is outside the domain (t > -1)")
        return digamma(1.0 + t) + EULER_GAMMA

    def lam2(t: float) -> float:
        if t <= -1.0:
            raise ValueError(f"t = {t!r} is outside the domain (t > -1)")
        return trigamma(1.0 + t)

    cgf = CgfModel(
        lambda_fn=lam,
        lambda_d1=lam1,
        lambda_d2=lam2,
        domain_inf=-1.0,
        family_tag="gamma-score",
    )
    return ScoreModel(cgf=cgf, tail=TailIndex(lam=0.0), k_f=1.0 - math.log(2.0))


def gamma_score_density(x: float) -> float:
    """Null density of the gamma score: f(x) = e^(x+c) exp(-e^(x+c)), c = -EULER_GAMMA."""
    u = x - EULER_GAMMA
    if u > 700.0:
        return 0.0
    return math.exp(u - math.exp(u))


# ---------------------------------------------------------------------------
# Monte Carlo rejections: hits(rng, size, n, m, effect, z, side, **params)
# draws size statistics and returns the boolean indicators (hit0, hit1) of
# the rule xbar >= z S, z > 0.  The 0-side is under the true null, the
# 1-side the same underlying draws with the effect applied (common random
# numbers).  side, when not None, is a boolean per statistic that picks the
# one side the caller counts: hit0 is then False where side is True and
# hit1 False where it is False.  Shift families share one scale between the
# sides: pair differences cancel a mean shift.
#
# The rule is Studentized, so it holds for data X exactly when it holds for
# X / c with the effect divided by c: a family's sigma, width or scale only
# divides the effect, once, and its draws are at unit scale.  theta / sigma
# is also the normal score's standardized shift, so normal-score is drawn
# as normal.  The normal families draw the statistics from their exact laws:
# xbar is N(0, 1 / n), and independently m S^2 is chi-square with m
# degrees of freedom, since each pair difference is N(0, 2).
#
# The other families draw every row's mean first, in chunks of about
# _CHUNK_CELLS cells: rows, or parts of one wider row.  numpy fills arrays
# row-major, so the means consume the stream exactly as one (size, n) draw
# would (gamma draws one Gamma(n shape) per row, the law of a sum of n
# Gamma(shape) draws; gamma-score draws each chunk's exponentials and then
# its gammas).  _staged_hits then draws the m scale pairs by stages, only for
# the rows that can still reject.  Within a stage the pairs of the k rows
# still in play go in chunks of at most _CHUNK_CELLS raw cells, or of one
# pair where k passes _CHUNK_CELLS / 2: one (2p, k) draw holds p pairs of k
# rows, pair-major, a pair in two consecutive rows.  Uniform draws each
# pair's gap |Y1 - Y2| directly, by inversion of its law, one (p, k) draw;
# cauchy-score draws its observations by inversion too.  A block thus holds
# O(size) memory whatever n and m are.

# cells per chunk of raw draws: 256 KiB per float64 array, so a chunk's
# arrays stay in L2 cache
_CHUNK_CELLS = 2**15

# stage k ends with ceil(m / k) scale pairs drawn for every row still able
# to reject
_STAGES = (8, 4, 2, 1)


def _by_chunks(
    size: int, columns: int, chunk: Callable[[int, int], np.ndarray]
) -> np.ndarray:
    # the means of size rows of columns observations.  chunk(k, c) draws the
    # next c observations of each of the next k rows and returns their sums,
    # last axis over rows; a row wider than _CHUNK_CELLS goes in column chunks
    import numpy as np

    step = max(1, _CHUNK_CELLS // columns)

    def sums(k):
        cols = range(0, columns, _CHUNK_CELLS)
        return sum(chunk(k, min(_CHUNK_CELLS, columns - first)) for first in cols)

    parts = [sums(min(step, size - start)) for start in range(0, size, step)]
    return np.concatenate(parts, axis=-1) / columns


def _squared_gaps(obs: np.ndarray) -> np.ndarray:
    # (Y1 - Y2)^2 of the pairs held in consecutive rows of obs
    d = obs[0::2] - obs[1::2]
    d *= d
    return d


def _pick(hit0: np.ndarray, hit1: np.ndarray, side) -> tuple[np.ndarray, np.ndarray]:
    if side is not None:
        hit0 &= ~side
        hit1 &= side
    return hit0, hit1


def _exact_hits(xbar0, xbar1, s, z, side):
    bound = z * s
    return _pick(xbar0 >= bound, xbar1 >= bound, side)


def _staged_hits(xbar0, xbar1, gaps, m, z, side, shared):
    """The rule's hits on row means xbar0, xbar1, its scale pairs drawn by stages.

    gaps(rows, pairs) draws the next pairs squared pair gaps of each row in
    the index array rows and returns them as (pairs, rows.size) arrays: one
    when shared (both sides take the same scale), else the null's and the
    shifted one.  Before each stage a row is dropped once every side it
    serves (the side picked by side, else both) has xbar < z sqrt(partial /
    2m): partial only grows and z > 0, so such a row cannot reject, and a
    row that is kept to the end is decided on all m pairs.  Each row's
    squared gaps are added in pair order, one pair at a time, so its total
    does not depend on the stages or the chunks.
    """
    import numpy as np

    size = xbar0.size
    rows, pick, xbars = np.arange(size), side, (xbar0, xbar1)
    totals = [np.zeros(size) for _ in range(1 if shared else 2)]

    def reach():
        bounds = [z * np.sqrt(total / (2 * m)) for total in totals]
        return xbars[0] >= bounds[0], xbars[1] >= bounds[-1]

    done = 0
    for k in _STAGES:
        pairs = -(-m // k) - done
        if pairs == 0:
            continue
        hit0, hit1 = reach()
        keep = np.flatnonzero(hit0 | hit1 if pick is None else np.where(pick, hit1, hit0))
        rows, xbars = rows[keep], [x[keep] for x in xbars]
        totals = [total[keep] for total in totals]
        pick = None if pick is None else pick[keep]
        if rows.size == 0:
            break
        chunk_pairs = max(1, _CHUNK_CELLS // (2 * rows.size))
        for first in range(0, pairs, chunk_pairs):
            for total, g in zip(totals, gaps(rows, min(chunk_pairs, pairs - first))):
                for pair in g:
                    total += pair
        done += pairs
    out = np.zeros((2, size), bool)
    out[:, rows] = reach()
    return _pick(out[0], out[1], side)


def _standard_cauchy(rng, shape) -> np.ndarray:
    # the Cauchy law by inversion, tan(pi (U - 1/2)); U = 0 gives -1.6e16,
    # not -inf
    import numpy as np

    u = rng.random(shape)
    u -= 0.5
    u *= math.pi
    return np.tan(u, out=u)


def _uniform_gap(rng, shape) -> np.ndarray:
    # |U1 - U2| of two standard uniforms by inversion: its density is
    # 2 (1 - x) on [0, 1], its distribution 1 - (1 - x)^2, and 1 - U is
    # uniform, so one uniform U gives the gap as 1 - sqrt(U)
    import numpy as np

    u = rng.random(shape)
    np.sqrt(u, out=u)
    return np.subtract(1.0, u, out=u)


def _hits_normal(rng, size, n, m, effect, z, side, sigma):
    import numpy as np

    effect /= sigma
    xbar0 = 1.0 / math.sqrt(n) * rng.standard_normal(size)
    s0 = np.sqrt(rng.chisquare(m, size) / m)
    return _exact_hits(xbar0, xbar0 + effect, s0, z, side)


def _hits_uniform(rng, size, n, m, effect, z, side, width):
    effect /= width
    xbar0 = _by_chunks(size, n, lambda k, c: (rng.random((k, c)) - 0.5).sum(axis=1))

    def gaps(rows, pairs):
        d = _uniform_gap(rng, (pairs, rows.size))
        d *= d
        return (d,)

    return _staged_hits(xbar0, xbar0 + effect, gaps, m, z, side, shared=True)


def _hits_gamma(rng, size, n, m, effect, z, side, shape, scale):
    effect /= scale
    xbar0 = rng.standard_gamma(n * shape, size) / n - shape

    def gaps(rows, pairs):
        return (_squared_gaps(rng.standard_gamma(shape, (2 * pairs, rows.size))),)

    return _staged_hits(xbar0, xbar0 + effect, gaps, m, z, side, shared=True)


def _score_hits(size, n, m, z, side, scores):
    # scores(shape) draws observations of that shape and returns their null
    # scores and, unless the effect is 0, their shifted scores
    import numpy as np

    xbars = _by_chunks(size, n, lambda k, c: np.stack([s.sum(axis=1) for s in scores((k, c))]))

    def gaps(rows, pairs):
        return tuple(_squared_gaps(s) for s in scores((2 * pairs, rows.size)))

    shared = len(xbars) == 1
    return _staged_hits(xbars[0], xbars[-1], gaps, m, z, side, shared)


def _cauchy_score(w: np.ndarray) -> np.ndarray:
    # 2 w / (1 + w^2) in one new array.  Where w^2 overflows to inf the score
    # rounds to 0 (the true 2 / w is below 2e-154), so the overflow is silent
    import numpy as np

    with np.errstate(over="ignore"):
        s = w * w
    s += 1.0
    np.divide(w, s, out=s)
    s *= 2.0
    return s


def _hits_cauchy_score(rng, size, n, m, effect, z, side):
    def scores(shape):
        w = _standard_cauchy(rng, shape)
        null = _cauchy_score(w)
        return (null,) if effect == 0.0 else (null, _cauchy_score(w + effect))

    return _score_hits(size, n, m, z, side, scores)


def _hits_gamma_score(rng, size, n, m, effect, z, side):
    # unit-rate exponential data; a location shift of size theta adds an
    # independent Gamma(theta) by shape additivity
    import numpy as np

    def scores(shape):
        w = rng.standard_exponential(shape)
        null = np.log(w)
        null += EULER_GAMMA
        if effect == 0.0:
            return (null,)
        shifted = rng.standard_gamma(effect, shape)
        shifted += w
        np.log(shifted, out=shifted)
        shifted += EULER_GAMMA
        return null, shifted

    return _score_hits(size, n, m, z, side, scores)


# ---------------------------------------------------------------------------
# the family registry


@dataclass(frozen=True)
class Family:
    """One built-in family: everything planners, CLI and Monte Carlo need.

    kind "shift" is raw data whose mean moves by the effect (model returns
    (CgfModel, TailIndex)); kind "score" is a location score whose
    underlying observation moves by the effect (model returns a
    ScoreModel).  params maps each parameter to its default, None marking a
    required one; model and hits take exactly these as keywords.  draws(n, m)
    is the most raw draws hits can make for one statistic.
    """

    name: str
    kind: str
    params: dict[str, float | None]
    model: Callable[..., Any]
    hits: Callable[..., tuple[np.ndarray, np.ndarray]]
    draws: Callable[[int, int], int]

    def kwargs(self, given: Mapping[str, Any]) -> dict[str, Any]:
        """This family's parameters from given, defaults filled in, others ignored."""
        out = {key: given.get(key, default) for key, default in self.params.items()}
        for key, value in out.items():
            if value is None:
                raise ValueError(f"{self.name} family requires a {key} parameter")
        return out


FAMILIES: dict[str, Family] = {
    family.name: family
    for family in (
        Family(
            "normal", "shift", {"sigma": 1.0}, normal_family, _hits_normal,
            lambda n, m: 2,
        ),
        Family(
            "uniform", "shift", {"width": 1.0}, uniform_family, _hits_uniform,
            lambda n, m: n + m,
        ),
        Family(
            "gamma", "shift", {"shape": None, "scale": 1.0}, gamma_family, _hits_gamma,
            lambda n, m: 1 + 2 * m,
        ),
        Family(
            "normal-score", "score", {"sigma": 1.0}, normal_score_model, _hits_normal,
            lambda n, m: 2,
        ),
        Family(
            "cauchy-score", "score", {}, cauchy_score_model, _hits_cauchy_score,
            lambda n, m: n + 2 * m,
        ),
        Family(
            "gamma-score", "score", {}, gamma_score_model, _hits_gamma_score,
            lambda n, m: 2 * (n + 2 * m),
        ),
    )
}
SHIFT_FAMILIES = tuple(name for name, f in FAMILIES.items() if f.kind == "shift")
SCORE_FAMILIES = tuple(name for name, f in FAMILIES.items() if f.kind == "score")


def _build(name: str, kind: str, what: str, params: Mapping[str, Any]) -> Any:
    # "_" may stand for "-" in a family name
    family = FAMILIES.get(name.replace("_", "-"))
    if family is None or family.kind != kind:
        raise UnsupportedFamilyError(f"no built-in {what} named {name!r}")
    return family.model(**family.kwargs(params))


def make_family(name: str, **params: float) -> tuple[CgfModel, TailIndex]:
    """Built-in data family by name: normal, uniform, or gamma."""
    return _build(name, "shift", "data family", params)


def make_score_model(name: str, **params: float) -> ScoreModel:
    """Built-in score model by name: normal-score, cauchy-score, or gamma-score."""
    return _build(name, "score", "score model", params)


# ---------------------------------------------------------------------------
# transforms and solvers


def legendre(cgf: CgfModel, u: float) -> tuple[float, float]:
    """Legendre transform of the cgf at slope u.

    Returns (rate, eta) where eta solves Lambda'(eta) = u and
    rate = u * eta - Lambda(eta).  At u = 0 both are zero for a centered
    cgf.  Slopes outside the closure of Lambda's derivative range raise
    RootRangeError, and a NaN or infinite slope ValueError.
    """
    if not math.isfinite(u):
        raise ValueError(f"slope u must be finite, got {u!r}")
    if u == 0.0:
        return 0.0, 0.0
    d2_0 = cgf.lambda_d2(0.0)
    hint = u / d2_0 if d2_0 > 0.0 else u
    if u > 0.0:
        lo, hi = 0.0, cgf.domain_sup
        if math.isfinite(hi) and hint >= hi:
            hint = 0.5 * hi
        hint = max(hint, math.nextafter(0.0, 1.0))
    else:
        lo, hi = cgf.domain_inf, 0.0
        if math.isfinite(lo) and hint <= lo:
            hint = 0.5 * lo
        hint = min(hint, math.nextafter(0.0, -1.0))
    try:
        eta = find_root_increasing(cgf.lambda_d1, u, hint, lo=lo, hi=hi)
    except (RootBracketError, RootRangeError) as exc:
        raise RootRangeError(
            f"slope u = {u!r} is outside the derivative range of the cgf "
            f"({cgf.family_tag}): it lies {'above' if u > 0.0 else 'below'} the range"
        ) from exc
    return u * eta - cgf.lambda_fn(eta), eta


def solve_t0(cgf: CgfModel, tail: TailIndex, split: SplitSpec) -> float:
    """Unique positive root of t Lambda'(t) = (1 + lam) rho / (1 - rho).

    The left side is zero at t = 0 and strictly increasing on the positive
    domain, so the root exists whenever the function's supremum exceeds the
    right side; a finite cgf domain whose boundary is approached without a
    crossing raises RootBracketError.
    """
    rhs = (1.0 + tail.lam) * split.rho / (1.0 - split.rho)
    d2_0 = cgf.lambda_d2(0.0)
    if not d2_0 > 0.0:
        raise RootRangeError(
            "cgf has no curvature at the origin; the data carry no signal"
        )
    # square roots taken apart, so that rhs / d2_0 cannot overflow or underflow
    hint = math.sqrt(rhs) / math.sqrt(d2_0)
    sup = cgf.domain_sup
    if math.isfinite(sup) and hint >= sup:
        hint = 0.5 * sup
    return find_root_increasing(
        lambda t: t * cgf.lambda_d1(t), rhs, hint, lo=0.0, hi=sup
    )


# k_f integrates by the double-exponential (sinh-sinh) trapezoid rule
# (Takahasi and Mori 1974, Publ. RIMS 9:721).  Its nodes z = sinh(pi/2 sinh t),
# |t| <= _DE_T_MAX, reach |z| ~ 1.4e83: far enough for f^2 tails as heavy as
# |z|^-2.2 (k_f refuses heavier ones rather than cut them), near enough that
# a density may cube z without overflow.  Once two levels of h agree to
# _DE_REL_TOL, the finer one's error is about that squared, so a converged
# result is as accurate as its rounding.
_DE_T_MAX = 5.5
_DE_LEVELS = 9
_DE_REL_TOL = 1e-9


def k_f(density: Callable[[float], float]) -> float:
    """Variance-side rate contribution of a score with null density f.

    K_f = (integral of z f(z)^2 dz) / (integral of f(z)^2 dz) over the real
    line; zero for any even density.  One sinh-sinh trapezoid pass forms
    both integrals from one density evaluation per node.  The step h is
    halved from 1/2, each level adding only the odd multiples of h, until
    the integral of f^2 agrees with the previous level to 1e-9 relative and
    that of z f^2 to 1e-9 of the integral of |z| f^2.  QuadratureError is
    raised when the density raises, when a sum is not finite or not
    positive, when the terms at |z| ~ 1.4e83 are not negligible, and when
    the levels still disagree at h = 2^-9 (a peak too narrow or too far off
    0: the gamma-score density scaled by 0.01, or by 0.03 and shifted by 3).
    """
    half_pi = 0.5 * math.pi
    h, last = 1.0, None
    try:
        f0 = density(0.0)
        n_sum, d_sum, m_sum = 0.0, half_pi * f0 * f0, 0.0
        for level in range(_DE_LEVELS):
            h *= 0.5
            for k in range(1, int(_DE_T_MAX / h) + 1, 1 if level == 0 else 2):
                u = half_pi * math.sinh(k * h)
                z = math.sinh(u)
                w = half_pi * math.cosh(k * h) * math.cosh(u)
                fp, fm = density(z), density(-z)
                gp, gm = fp * fp * w, fm * fm * w
                n_sum += z * (gp - gm)
                d_sum += gp + gm
                m_sum += z * (gp + gm)
            num, den, mag = h * n_sum, h * d_sum, h * m_sum
            if not (math.isfinite(num) and math.isfinite(mag) and 0.0 < den < math.inf):
                raise QuadratureError(f"integrals num={num!r}, den={den!r} at h = {h}")
            # the terms at t = _DE_T_MAX bound the part of the line cut off
            if level == 0 and z * (gp + gm) > _DE_REL_TOL * m_sum:
                raise QuadratureError(f"density tails not negligible at |z| = {z:.3g}")
            if last is not None and abs(den - last[1]) <= _DE_REL_TOL * den:
                if abs(num - last[0]) <= _DE_REL_TOL * mag:
                    return num / den
            last = num, den
    except QuadratureError:
        raise
    except Exception as exc:
        raise QuadratureError(f"the density raised {exc!r}") from exc
    raise QuadratureError(f"integrals did not agree to {_DE_REL_TOL} by h = {h}")


def optimal_split(cgf: CgfModel, tail: TailIndex) -> SplitOptimum:
    """Split fraction maximizing the sample size rate (1 - rho) t0(rho).

    Golden-section search on a clipped interval; a maximizer that runs into
    either end is reported as a boundary outcome rather than an interior
    rho_star.
    """

    def objective(rho: float) -> float:
        return (1.0 - rho) * solve_t0(cgf, tail, SplitSpec(rho))

    invphi = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = _RHO_LO, _RHO_HI
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > 1e-9:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    x = 0.5 * (a + b)
    val = objective(x)
    # an endpoint that matches the interior maximum means the objective is
    # monotone (or plateaus) into that boundary: the supremum is not interior
    tol = 1e-9 * max(1.0, abs(val))
    upper = objective(_RHO_HI)
    if upper >= val - tol or _RHO_HI - x < _RHO_BOUNDARY_MARGIN:
        return SplitOptimum(rho_star=None, objective=max(val, upper), boundary="upper")
    lower = objective(_RHO_LO)
    if lower >= val - tol or x - _RHO_LO < _RHO_BOUNDARY_MARGIN:
        return SplitOptimum(rho_star=None, objective=max(val, lower), boundary="lower")
    return SplitOptimum(rho_star=x, objective=val, boundary=None)


# ---------------------------------------------------------------------------
# planners


def pfdr_floor_limit(pi: float, rho: float, t_growth: float, t0: float) -> float:
    """Limiting lower bound on pFDR when the threshold grows like T = d N.

    (1 - pi) / ((1 - pi) + pi exp((1 - rho) T t0)); decreasing in T.  It is
    computed as the logistic 1 / (1 + e^y) of y = (1 - rho) T t0 + ln pi -
    ln(1 - pi), which needs no exp of (1 - rho) T t0 itself.
    """
    if not 0.0 < pi < 1.0:
        raise ValueError(f"pi must be in (0, 1), got {pi!r}")
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0, 1), got {rho!r}")
    x = (1.0 - rho) * t_growth * t0
    return 1.0 / (1.0 + exp_or_inf(x + math.log(pi) - math.log1p(-pi)))


def _integer_plan(log_q: float, rate: float, rho: float) -> tuple[float, dict[str, float]]:
    """N_asymptotic = ln(Q) / rate, and the integer plan's diagnostics.

    Raises ValueError when ln(Q) / rate is not finite: a rate that
    underflowed to 0, or one so small that the quotient overflows.
    """
    n_asym = 1.0
    if log_q > 0.0:
        n_asym = log_q / rate if rate > 0.0 else math.inf
        if not math.isfinite(n_asym):
            raise ValueError(
                f"rate {rate!r} is too small: ln(Q) / rate is not finite "
                f"(ln(Q) = {log_q!r})"
            )
    n_ceil = float(max(1, math.ceil(n_asym)))
    m_split = round(rho * n_ceil)
    return n_asym, {
        "log_q": log_q,
        "n_ceiling": n_ceil,
        "m_variance_part": float(m_split),
        "n_mean_part": float(n_ceil - m_split),
    }


def n_star_general(
    target: PfdrTarget,
    cgf: CgfModel,
    tail: TailIndex,
    split: SplitSpec,
    d: float,
) -> PlanReport:
    """Total per-null sample size N for mean shift d under a data cgf.

    N_asymptotic = ln(Q) / (d (1 - rho) t0); the integer plan in the
    diagnostics rounds N up and splits it as m = round(rho N) scale
    observations (used in pairs) and n = N - m mean observations.
    """
    if not d > 0.0:
        raise ValueError(f"mean shift d must be positive, got {d!r}")
    t0 = solve_t0(cgf, tail, split)
    rho = split.rho
    n_asym, plan = _integer_plan(target.log_q(), d * (1.0 - rho) * t0, rho)
    diagnostics = {
        "t0": t0,
        "lambda_tail": tail.lam,
        "rho": rho,
        **plan,
        "pfdr_floor_at_plan": pfdr_floor_limit(
            target.pi, rho, d * plan["n_ceiling"], t0
        ),
    }
    return PlanReport(
        n_exact=None,
        n_asymptotic=n_asym,
        regime=REGIME_CGF_RATE,
        q_value=target.q(),
        diagnostics=diagnostics,
    )


def n_star_score(
    target: PfdrTarget,
    model: ScoreModel,
    split: SplitSpec,
    theta: float,
) -> PlanReport:
    """Total per-null sample size N for location shift theta under a score model.

    The score shifts the rate two ways: through the mean side (1 - rho)
    Lambda'(t0) and through the scale side 2 rho K_f, so
    N_asymptotic = ln(Q) / (theta [(1 - rho) Lambda'(t0) + 2 rho K_f]).
    """
    if not theta > 0.0:
        raise ValueError(f"location shift theta must be positive, got {theta!r}")
    t0 = solve_t0(model.cgf, model.tail, split)
    rho = split.rho
    lam1_t0 = model.cgf.lambda_d1(t0)
    rate = theta * ((1.0 - rho) * lam1_t0 + 2.0 * rho * model.k_f)
    if not rate > 0.0:
        raise ValueError(
            f"score rate is not positive (rate={rate!r}); the split or the "
            "model's K_f leaves no usable signal"
        )
    n_asym, plan = _integer_plan(target.log_q(), rate, rho)
    diagnostics = {
        "t0": t0,
        "lambda_prime_t0": lam1_t0,
        "k_f": model.k_f,
        "lambda_tail": model.tail.lam,
        "rho": rho,
        **plan,
    }
    return PlanReport(
        n_exact=None,
        n_asymptotic=n_asym,
        regime=REGIME_SCORE_RATE,
        q_value=target.q(),
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# empirical cgf

# bound on |t x_i| over the admissible interval: exp(t x_i) stays finite
_OVERFLOW_BUDGET = 700.0


def empirical_cgf(
    sample: Sequence[float] | np.ndarray, t_grid: Sequence[float] | np.ndarray
) -> CgfModel:
    """Centered empirical cgf of a sample, valid on a safe hull of t_grid.

    The sample is centered at its mean; the admissible t interval is the
    hull of t_grid intersected with { t : max_i |t x_i| <= 700 } so every
    later evaluation stays finite.  Derivatives are the exact tilted
    moments of the empirical distribution.

    One evaluation makes one new sample-sized array of weights
    exp(t x_i - max_j t x_j) and computes only the moments it returns;
    lambda_d2 away from t = 0 needs one more.  The curvature at t = 0,
    which every solve_t0 and legendre call asks for, is computed once here.
    Evaluations share no buffer, so threads may evaluate one model at once.
    """
    import numpy as np

    x = np.asarray(sample, dtype=float).ravel()
    if x.size < 100:
        raise ValueError(f"need at least 100 observations, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
    x = x - x.mean()
    grid = np.asarray(t_grid, dtype=float).ravel()
    if grid.size < 2:
        raise ValueError("t_grid needs at least two points")
    if np.isnan(grid).any():
        raise ValueError("t_grid contains NaN")
    t_lo, t_hi = float(grid.min()), float(grid.max())
    x_min, x_max = float(x.min()), float(x.max())
    allow_hi = _OVERFLOW_BUDGET / x_max if x_max > 0.0 else math.inf
    allow_lo = _OVERFLOW_BUDGET / x_min if x_min < 0.0 else -math.inf
    sup = min(t_hi, allow_hi)
    inf_ = max(t_lo, allow_lo)
    if not inf_ < 0.0 < sup:
        raise ValueError(
            f"admissible t interval ({inf_:.3g}, {sup:.3g}) does not contain 0; "
            "widen t_grid or rescale the sample"
        )

    def _weights(t: float) -> tuple[np.ndarray, float, float]:
        # exp(t x_i - m) with m = max_i t x_i: rounding keeps the order of
        # the products, so m is t x_max for t >= 0 and t x_min for t < 0
        if not inf_ <= t <= sup:
            raise ValueError(f"t = {t!r} outside the admissible interval")
        t = float(t)  # so that a numpy-scalar t still gives Python floats
        m = t * (x_max if t >= 0.0 else x_min)
        e = t * x
        e -= m
        np.exp(e, out=e)
        return e, m, float(e.sum())

    def lambda_fn(t: float) -> float:
        _, m, s = _weights(t)
        return m + math.log(s / x.size)

    def lambda_d1(t: float) -> float:
        e, _, s = _weights(t)
        e *= x
        return float(e.sum()) / s

    def tilted_variance(t: float) -> float:
        e, _, s = _weights(t)
        xe = x * e
        mean1 = float(xe.sum()) / s
        np.multiply(x, x, out=xe)
        xe *= e
        mean2 = float(xe.sum()) / s
        return mean2 - mean1 * mean1

    d2_0 = tilted_variance(0.0)

    def lambda_d2(t: float) -> float:
        return d2_0 if t == 0.0 else tilted_variance(t)

    return CgfModel(
        lambda_fn=lambda_fn,
        lambda_d1=lambda_d1,
        lambda_d2=lambda_d2,
        domain_sup=sup,
        domain_inf=inf_,
        family_tag="empirical",
    )
