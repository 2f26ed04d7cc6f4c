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
and the sampler the Monte Carlo engine draws its statistics from.  The
planners, the CLI and mc_verify all read their families from it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .numerics import (
    RootBracketError,
    RootRangeError,
    find_root_increasing,
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


def normal_family(sigma: float = 1.0) -> tuple[CgfModel, TailIndex]:
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
    s2 = sigma * sigma
    cgf = CgfModel(
        lambda_fn=lambda t: 0.5 * s2 * t * t,
        lambda_d1=lambda t: s2 * t,
        lambda_d2=lambda t: s2,
        family_tag=f"normal(sigma={sigma:g})",
    )
    # X - Y is normal with variance 2 sigma^2: positive finite density at 0
    return cgf, TailIndex(lam=0.0)


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
    if not 0.0 < width < math.inf:
        raise ValueError(f"width must be positive and finite, got {width!r}")
    w = width
    cgf = CgfModel(
        lambda_fn=lambda t: _uniform_lambda(w * t),
        lambda_d1=lambda t: w * _uniform_lambda_d1(w * t),
        lambda_d2=lambda t: w * w * _uniform_lambda_d2(w * t),
        family_tag=f"uniform(width={width:g})",
    )
    # X - Y is triangular on [-w, w]: g(0) = 1/w
    return cgf, TailIndex(lam=0.0)


def gamma_family(shape: float, scale: float = 1.0) -> tuple[CgfModel, TailIndex]:
    """Gamma(shape) data scaled by scale and centered at its mean.

    The paired-difference density at zero is finite only for shape > 1/2;
    at shape = 1/2 it diverges logarithmically and below it like a power,
    so the tail index is lam = 2 * shape - 1 there.
    """
    if not 0.0 < shape < math.inf:
        raise ValueError(f"shape must be positive and finite, got {shape!r}")
    if not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    a, b = shape, scale
    sup = 1.0 / b

    def lam(t: float) -> float:
        _check_below(t, sup)
        return -a * math.log1p(-b * t) - a * b * t

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
    return cgf, TailIndex(lam=min(0.0, 2.0 * a - 1.0))


def _check_below(t: float, sup: float) -> None:
    if t >= sup:
        raise ValueError(f"t = {t!r} is outside the domain (t < {sup!r})")


# ---------------------------------------------------------------------------
# built-in score models


def normal_score_model(sigma: float = 1.0) -> ScoreModel:
    """Location score of normal data: X = omega / sigma^2, standard deviation 1/sigma."""
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
    inv_s2 = 1.0 / (sigma * sigma)
    cgf = CgfModel(
        lambda_fn=lambda t: 0.5 * inv_s2 * t * t,
        lambda_d1=lambda t: inv_s2 * t,
        lambda_d2=lambda t: inv_s2,
        family_tag=f"normal-score(sigma={sigma:g})",
    )
    return ScoreModel(cgf=cgf, tail=TailIndex(lam=0.0), k_f=0.0)


def cauchy_score_model() -> ScoreModel:
    """Location score of standard Cauchy data: X = 2 omega / (1 + omega^2).

    The score is bounded in [-1, 1] with an even null density, so K_f = 0;
    its log mgf is ln I0(t), with a logarithmic factor in the tail index
    because the score density blows up like a reciprocal square root at the
    endpoints (which only affects constants, not the plan).
    """
    from scipy import special

    def ratio(u: float) -> float:
        # I1(u) / I0(u) via exponentially scaled Bessel functions, u >= 0
        return float(special.i1e(u) / special.i0e(u))

    def lam(t: float) -> float:
        u = abs(t)
        return u + math.log(float(special.i0e(u)))

    def lam1(t: float) -> float:
        u = abs(t)
        if u < 1e-5:
            v = 0.5 * u - u**3 / 16.0
        else:
            v = ratio(u)
        return math.copysign(v, t) if t != 0.0 else 0.0

    def lam2(t: float) -> float:
        u = abs(t)
        if u < 1e-5:
            return 0.5 - 3.0 * u * u / 16.0
        r = ratio(u)
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
    from scipy import special

    def lam(t: float) -> float:
        if t <= -1.0:
            raise ValueError(f"t = {t!r} is outside the domain (t > -1)")
        return math.lgamma(1.0 + t) + EULER_GAMMA * t

    def lam1(t: float) -> float:
        if t <= -1.0:
            raise ValueError(f"t = {t!r} is outside the domain (t > -1)")
        return float(special.digamma(1.0 + t)) + EULER_GAMMA

    def lam2(t: float) -> float:
        if t <= -1.0:
            raise ValueError(f"t = {t!r} is outside the domain (t > -1)")
        return float(special.polygamma(1, 1.0 + t))

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
# Monte Carlo samplers: sample(rng, size, n, m, effect, **params) draws size
# statistics and returns (xbar0, s0, xbar1, s1).  The 0-parts are under the
# true null, the 1-parts are the same underlying draws with the effect
# applied (common random numbers).  For shift families s1 is s0 itself:
# pair differences cancel a mean shift.
#
# The normal families draw the statistics from their exact laws: xbar is
# N(0, sigma^2 / n), and independently m S^2 / sigma^2 is chi-square with m
# degrees of freedom, since each pair difference is N(0, 2 sigma^2).  Gamma
# draws its mean as one Gamma(n * shape), the law of a sum of n
# Gamma(shape) draws.  The other samplers draw raw observations.

# cap on the cells of one (size, columns) float64 array of raw draws, 1 GiB;
# a sampler builds several such arrays, so larger blocks are refused
MAX_DRAW_CELLS = 2**27


def _check_cells(size: int, columns: int) -> None:
    if size * columns > MAX_DRAW_CELLS:
        raise ValueError(
            f"{size} statistics of {columns} raw draws each exceed the cap of "
            f"MAX_DRAW_CELLS = {MAX_DRAW_CELLS} cells per block; lower n, m "
            "or the statistics per block (batch_nulls in simulate_pfdr)"
        )


def _pair_scale(obs: np.ndarray) -> np.ndarray:
    # S = sqrt((1/2m) sum over pairs of squared differences)
    d = obs[:, 0::2] - obs[:, 1::2]
    return np.sqrt(0.5 * np.mean(d * d, axis=1))


def _sample_normal(rng, size, n, m, effect, sigma):
    xbar0 = sigma / math.sqrt(n) * rng.standard_normal(size)
    s0 = sigma * np.sqrt(rng.chisquare(m, size) / m)
    return xbar0, s0, xbar0 + effect, s0


def _sample_uniform(rng, size, n, m, effect, width):
    _check_cells(size, max(n, 2 * m))
    xbar0 = width * (rng.random((size, n)) - 0.5).mean(axis=1)
    s0 = width * _pair_scale(rng.random((size, 2 * m)))
    return xbar0, s0, xbar0 + effect, s0


def _sample_gamma(rng, size, n, m, effect, shape, scale):
    _check_cells(size, 2 * m)
    xbar0 = scale * (rng.standard_gamma(n * shape, size) / n - shape)
    s0 = scale * _pair_scale(rng.standard_gamma(shape, (size, 2 * m)))
    return xbar0, s0, xbar0 + effect, s0


def _sample_normal_score(rng, size, n, m, effect, sigma):
    xbar0 = rng.standard_normal(size) / (sigma * math.sqrt(n))
    s0 = np.sqrt(rng.chisquare(m, size) / m) / sigma
    return xbar0, s0, xbar0 + effect / (sigma * sigma), s0


def _cauchy_score(w: np.ndarray) -> np.ndarray:
    return 2.0 * w / (1.0 + w * w)


def _sample_cauchy_score(rng, size, n, m, effect):
    _check_cells(size, max(n, 2 * m))
    w = rng.standard_cauchy((size, n))
    xbar0 = _cauchy_score(w).mean(axis=1)
    xbar1 = _cauchy_score(w + effect).mean(axis=1)
    w2 = rng.standard_cauchy((size, 2 * m))
    s0 = _pair_scale(_cauchy_score(w2))
    s1 = _pair_scale(_cauchy_score(w2 + effect))
    return xbar0, s0, xbar1, s1


def _sample_gamma_score(rng, size, n, m, effect):
    # unit-rate exponential data; a location shift of size theta adds an
    # independent Gamma(theta) by shape additivity
    _check_cells(size, max(n, 2 * m))
    w = rng.standard_exponential((size, n))
    g = rng.standard_gamma(effect, (size, n)) if effect > 0.0 else 0.0
    xbar0 = (np.log(w) + EULER_GAMMA).mean(axis=1)
    xbar1 = (np.log(w + g) + EULER_GAMMA).mean(axis=1)
    w2 = rng.standard_exponential((size, 2 * m))
    g2 = rng.standard_gamma(effect, (size, 2 * m)) if effect > 0.0 else 0.0
    s0 = _pair_scale(np.log(w2) + EULER_GAMMA)
    s1 = _pair_scale(np.log(w2 + g2) + EULER_GAMMA)
    return xbar0, s0, xbar1, s1


# ---------------------------------------------------------------------------
# the family registry


@dataclass(frozen=True)
class Family:
    """One built-in family: everything planners, CLI and Monte Carlo need.

    kind "shift" is raw data whose mean moves by the effect (model returns
    (CgfModel, TailIndex)); kind "score" is a location score whose
    underlying observation moves by the effect (model returns a
    ScoreModel).  params maps each parameter to its default, None marking a
    required one; model and sample take exactly these as keywords.
    """

    name: str
    kind: str
    params: dict[str, float | None]
    model: Callable[..., Any]
    sample: Callable[..., tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]

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
        Family("normal", "shift", {"sigma": 1.0}, normal_family, _sample_normal),
        Family("uniform", "shift", {"width": 1.0}, uniform_family, _sample_uniform),
        Family(
            "gamma", "shift", {"shape": None, "scale": 1.0}, gamma_family, _sample_gamma
        ),
        Family(
            "normal-score",
            "score",
            {"sigma": 1.0},
            normal_score_model,
            _sample_normal_score,
        ),
        Family("cauchy-score", "score", {}, cauchy_score_model, _sample_cauchy_score),
        Family("gamma-score", "score", {}, gamma_score_model, _sample_gamma_score),
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
    RootRangeError.
    """
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
    except RootBracketError as exc:
        raise RootRangeError(
            f"slope u = {u!r} is outside the derivative range of the cgf "
            f"({cgf.family_tag})"
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
    hint = math.sqrt(rhs / d2_0)
    sup = cgf.domain_sup
    if math.isfinite(sup) and hint >= sup:
        hint = 0.5 * sup
    return find_root_increasing(
        lambda t: t * cgf.lambda_d1(t), rhs, hint, lo=0.0, hi=sup
    )


def k_f(density: Callable[[float], float]) -> float:
    """Variance-side rate contribution of a score with null density f.

    K_f = (integral of z f(z)^2 dz) / (integral of f(z)^2 dz) over the real
    line; zero for any even density.
    """
    num = _quad_split(lambda z: z * density(z) ** 2)
    den = _quad_split(lambda z: density(z) ** 2)
    if not math.isfinite(num) or not math.isfinite(den) or den <= 0.0:
        raise QuadratureError(
            f"density-weighted integrals did not converge (num={num!r}, den={den!r})"
        )
    return num / den


def _quad_split(fn: Callable[[float], float]) -> float:
    # split at zero so the two infinite half-lines are handled separately
    from scipy import integrate

    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        for a, b in ((-math.inf, 0.0), (0.0, math.inf)):
            try:
                val, err = integrate.quad(
                    fn, a, b, epsabs=1e-10, epsrel=1e-10, limit=200
                )
            except Exception as exc:
                raise QuadratureError(
                    f"integration failed on ({a}, {b}): {exc}"
                ) from exc
            if err > 1e-8 * max(1.0, abs(val)):
                raise QuadratureError(
                    f"integration error estimate {err:.3g} too large on ({a}, {b})"
                )
            total += val
    return total


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

    (1 - pi) / ((1 - pi) + pi exp((1 - rho) T t0)); decreasing in T.
    """
    if not 0.0 < pi < 1.0:
        raise ValueError(f"pi must be in (0, 1), got {pi!r}")
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0, 1), got {rho!r}")
    gain = math.exp(min((1.0 - rho) * t_growth * t0, 700.0))
    return (1.0 - pi) / ((1.0 - pi) + pi * gain)


def _integer_plan(q: float, rate: float, rho: float) -> tuple[float, dict[str, float]]:
    """N_asymptotic = ln(Q) / rate, and the integer plan's diagnostics."""
    log_q = math.log(q)
    n_asym = log_q / rate if log_q > 0.0 else 1.0
    n_ceil = max(1.0, math.ceil(n_asym))
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
    q = target.q()
    t0 = solve_t0(cgf, tail, split)
    rho = split.rho
    n_asym, plan = _integer_plan(q, d * (1.0 - rho) * t0, rho)
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
        q_value=q,
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
    q = target.q()
    t0 = solve_t0(model.cgf, model.tail, split)
    rho = split.rho
    lam1_t0 = model.cgf.lambda_d1(t0)
    rate = theta * ((1.0 - rho) * lam1_t0 + 2.0 * rho * model.k_f)
    if not rate > 0.0:
        raise ValueError(
            f"score rate is not positive (rate={rate!r}); the split or the "
            "model's K_f leaves no usable signal"
        )
    n_asym, plan = _integer_plan(q, rate, rho)
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
        q_value=q,
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
    """
    x = np.asarray(sample, dtype=float).ravel()
    if x.size < 100:
        raise ValueError(f"need at least 100 observations, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
    x = x - x.mean()
    grid = np.asarray(t_grid, dtype=float).ravel()
    if grid.size < 2:
        raise ValueError("t_grid needs at least two points")
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

    def _tilted(t: float) -> tuple[float, float, float]:
        if not inf_ <= t <= sup:
            raise ValueError(f"t = {t!r} outside the admissible interval")
        w = t * x
        m = float(w.max())
        e = np.exp(w - m)
        s = float(e.sum())
        mean1 = float((x * e).sum()) / s
        mean2 = float((x * x * e).sum()) / s
        lam = m + math.log(s / x.size)
        return lam, mean1, mean2 - mean1 * mean1

    return CgfModel(
        lambda_fn=lambda t: _tilted(t)[0],
        lambda_d1=lambda t: _tilted(t)[1],
        lambda_d2=lambda t: _tilted(t)[2],
        domain_sup=sup,
        domain_inf=inf_,
        family_tag="empirical",
    )
