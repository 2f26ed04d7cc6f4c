"""Monte Carlo checks of the split-sample Studentized rejection rule.

Per null, n observations form a mean and a further m pairs form the scale
estimate S^2 = (1/2m) sum (Y_{2k-1} - Y_{2k})^2; the null is rejected when
the mean reaches z * S.  Two estimators are provided:

  * simulate_pfdr draws whole batches of nulls, a fraction pi of them
    carrying the effect, and averages V/R over batches that reject at all
    (the quantity pFDR is the expectation of);
  * tail_ratio_mc estimates the ratio of the rejection probability under a
    mean shift d = T/N to the one under the null, on common random numbers,
    which is the finite-sample quantity whose large-N growth the planners'
    rate formulas describe.

Each family's sampler comes from ldp_engine.FAMILIES and returns, for every
statistic of a block, whether it rejects without and with the effect.  The
rule is Studentized, so each sampler draws at unit scale and divides the
effect by the family's sigma, width or scale.  The normal families draw the
two statistics from their exact laws, xbar ~ N(0, 1 / n) and
m S^2 ~ chi^2_m, so a null costs two draws whatever n and m are.  The other
families draw every statistic's mean first: gamma as one Gamma(n * shape),
the law of a sum of n Gamma(shape) draws, uniform, cauchy-score and
gamma-score from n raw observations.  Their m scale pairs then come in
stages of ceil(m / 8), ceil(m / 4), ceil(m / 2) and m pairs in all, drawn
only for the statistics that can still reject: the sum of squared pair gaps
only grows, so once xbar < z sqrt(partial sum / 2m) on every side a
statistic is counted on, it cannot reject, and dropping it changes no
count.  simulate_pfdr counts each null on the side its flag picks and
tail_ratio_mc on both.  A pair costs two raw observations, or one uniform
for uniform's gap |Y1 - Y2| drawn by inversion.  Raw draws come in chunks
of a fixed number of cells that are reduced to per-statistic means and sums
at once, so a block's memory grows with its statistics, not with n + 2m.  A
block whose raw draws could pass ldp_engine.MAX_DRAW_CELLS is refused with
ValueError; the cap bounds the work of one block.  simulate_pfdr refuses a
batch_nulls above the same cap before it draws anything.

Block b draws from an SFC64 generator seeded by child b of
SeedSequence(seed), so blocks have independent streams keyed by (seed, b);
which pairs a block draws depends only on its own draws, so results are
bit-identical across repeat runs and across thread counts;
the thread pool size comes from the PFDR_SIZER_THREADS environment
variable.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:
    import numpy as np

from .ldp_engine import (
    FAMILIES,
    MAX_DRAW_CELLS,
    SCORE_FAMILIES,
    SHIFT_FAMILIES,
    CgfModel,
    legendre,
)

__all__ = [
    "ThresholdSchedule",
    "SimScenario",
    "PfdrSimResult",
    "TailRatioResult",
    "DegenerateScenarioError",
    "InsufficientHitsError",
    "simulate_pfdr",
    "tail_ratio_mc",
    "bahadur_rao_tail",
    "THREADS_ENV_VAR",
    "SHIFT_FAMILIES",
    "SCORE_FAMILIES",
]

THREADS_ENV_VAR = "PFDR_SIZER_THREADS"

# trials per RNG block; fixed so the stream layout (hence the result) does
# not depend on how many threads execute the blocks
_TAIL_BLOCK = 16_384

DEFAULT_BATCH_NULLS = 10_000


class DegenerateScenarioError(RuntimeError):
    """No batch produced a rejection, so V/R has no observations."""

    def __init__(self, batches: int, total_nulls: int):
        self.batches = batches
        self.total_nulls = total_nulls
        self.reject_rate_bound = 1.0 / max(total_nulls, 1)
        super().__init__(
            f"no rejections in {batches} batches ({total_nulls} nulls); "
            f"per-null rejection probability is below about {self.reject_rate_bound:.3g}; "
            "lower the threshold or increase the sample size"
        )


class InsufficientHitsError(RuntimeError):
    """Too few tail events on one side of the ratio for a stable estimate."""

    def __init__(self, hits_num: int, hits_den: int, trials: int, min_hits: int):
        self.hits_num = hits_num
        self.hits_den = hits_den
        self.trials = trials
        self.min_hits = min_hits
        super().__init__(
            f"tail ratio needs at least {min_hits} hits on each side, got "
            f"numerator {hits_num} and denominator {hits_den} in {trials} trials"
        )


@dataclass(frozen=True)
class ThresholdSchedule:
    """Rejection threshold z as a function of the total per-null size N.

    kind "fixed" uses z0 for every N; kind "loglog" grows it as
    z0 * ln(1 + ln(1 + N)), slow enough that the rate formulas keep their
    form while the threshold still drifts upward.
    """

    kind: str = "fixed"
    z0: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "loglog"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not 0.0 < self.z0 < math.inf:
            raise ValueError(f"z0 must be positive and finite, got {self.z0!r}")

    def z_at(self, n_total: int) -> float:
        if self.kind == "fixed":
            return self.z0
        return self.z0 * math.log1p(math.log1p(float(n_total)))


@dataclass(frozen=True)
class SimScenario:
    """One simulation setup: family, effect, mixture weight pi, and sizes.

    n observations feed the mean and m pairs feed the scale; the planning
    size is N = n + m, which is what the threshold schedule sees.  For shift
    families the effect adds to the data mean; for score families it is the
    location shift of the underlying observation, pushed through the score
    transform.  trials counts batches for simulate_pfdr and individual
    statistics for tail_ratio_mc.  family is a key of ldp_engine.FAMILIES,
    whose defaults fill the params left out.
    """

    family: str
    effect: float
    pi: float
    n: int
    m: int
    schedule: ThresholdSchedule
    trials: int
    seed: int = 0
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not 0.0 <= self.effect < math.inf:
            raise ValueError(f"effect must be >= 0 and finite, got {self.effect!r}")
        if not 0.0 <= self.pi <= 1.0:
            raise ValueError(f"pi must be in [0, 1], got {self.pi!r}")
        if self.n < 1 or self.m < 1:
            raise ValueError(f"need n >= 1 and m >= 1, got n={self.n}, m={self.m}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        # a required parameter left out raises in kwargs
        params = FAMILIES[self.family].kwargs(self.params)
        for key, value in params.items():
            if not 0.0 < value < math.inf:
                raise ValueError(f"{key} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class PfdrSimResult:
    pfdr_hat: float
    stderr: float
    batches: int
    batches_with_rejection: int
    rejections: int
    false_rejections: int
    reject_rate: float


@dataclass(frozen=True)
class TailRatioResult:
    ratio_hat: float
    stderr: float
    hits_num: int
    hits_den: int
    hits_joint: int
    trials: int


def _rng_for(seed: int, block: int) -> np.random.Generator:
    # the stream of SeedSequence(seed).spawn(block + 1)[block], numpy's route
    # to independent streams; any seed >= 0 is accepted, however large
    import numpy as np

    seq = np.random.SeedSequence(seed, spawn_key=(block,))
    return np.random.Generator(np.random.SFC64(seq))


def _thread_count() -> int:
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None or raw.strip() == "":
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{THREADS_ENV_VAR} must be a positive integer, got {raw!r}"
        ) from exc
    if value < 1:
        raise ValueError(f"{THREADS_ENV_VAR} must be a positive integer, got {raw!r}")
    return value


def _run_blocks(fn: Callable[[int], tuple], blocks: Iterable[int]) -> list[tuple]:
    threads = _thread_count()
    indices = list(blocks)
    if threads == 1:
        return [fn(b) for b in indices]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        # map preserves submission order, so reductions are deterministic
        return list(pool.map(fn, indices))


def simulate_pfdr(
    scenario: SimScenario, batch_nulls: int = DEFAULT_BATCH_NULLS
) -> PfdrSimResult:
    """Estimate pFDR = E[V/R | R > 0] by batch means.

    Each of scenario.trials batches draws batch_nulls independent nulls,
    flags each as false with probability pi, applies the effect to the
    false ones, and rejects by the Studentized rule.  The estimate is the
    mean of V/R over batches with R > 0, with its standard error across
    batches.
    """
    import numpy as np

    if batch_nulls < 1:
        raise ValueError(f"batch_nulls must be >= 1, got {batch_nulls!r}")
    # every batch draws at least batch_nulls numbers at once, and the normal
    # samplers never reach the per-block cell check
    if batch_nulls > MAX_DRAW_CELLS:
        raise ValueError(
            f"batch_nulls = {batch_nulls!r} exceeds MAX_DRAW_CELLS = "
            f"{MAX_DRAW_CELLS} draws per batch"
        )
    z = scenario.schedule.z_at(scenario.n + scenario.m)
    family = FAMILIES[scenario.family]
    params = family.kwargs(scenario.params)
    n, m, effect = scenario.n, scenario.m, scenario.effect

    def one_batch(idx: int) -> tuple[int, int]:
        rng = _rng_for(scenario.seed, idx)
        theta = rng.random(batch_nulls) < scenario.pi
        # each null counts on the side theta picks: false rejections on 0
        hit0, hit1 = family.hits(rng, batch_nulls, n, m, effect, z, theta, **params)
        v = int(np.count_nonzero(hit0))
        return v, v + int(np.count_nonzero(hit1))

    counts = _run_blocks(one_batch, range(scenario.trials))
    ratios = np.array([v / r for v, r in counts if r > 0], dtype=float)
    total_v = sum(v for v, _ in counts)
    total_r = sum(r for _, r in counts)
    total_nulls = scenario.trials * batch_nulls
    if ratios.size == 0:
        raise DegenerateScenarioError(scenario.trials, total_nulls)
    pfdr_hat = float(ratios.mean())
    if ratios.size >= 2:
        stderr = float(ratios.std(ddof=1) / math.sqrt(ratios.size))
    else:
        stderr = math.inf
    return PfdrSimResult(
        pfdr_hat=pfdr_hat,
        stderr=stderr,
        batches=scenario.trials,
        batches_with_rejection=int(ratios.size),
        rejections=total_r,
        false_rejections=total_v,
        reject_rate=total_r / total_nulls,
    )


def tail_ratio_mc(
    scenario: SimScenario, t_target: float, min_hits: int = 100
) -> TailRatioResult:
    """Ratio of shifted to null rejection probability at threshold growth T.

    The shift is d = t_target / N with N = n + m; numerator and denominator
    events are evaluated on the same draws, so the ratio estimate is far
    tighter than two independent tail estimates would be.  The standard
    error comes from the delta method with the joint hit count supplying
    the covariance.
    """
    import numpy as np

    if not 0.0 <= t_target < math.inf:
        raise ValueError(f"t_target must be >= 0 and finite, got {t_target!r}")
    # the ratio divides by hits_den, which min_hits keeps above 0
    if min_hits < 1:
        raise ValueError(f"min_hits must be >= 1, got {min_hits!r}")
    n_total = scenario.n + scenario.m
    d = t_target / n_total
    z = scenario.schedule.z_at(n_total)
    family = FAMILIES[scenario.family]
    params = family.kwargs(scenario.params)
    n, m = scenario.n, scenario.m
    trials = scenario.trials

    n_blocks = (trials + _TAIL_BLOCK - 1) // _TAIL_BLOCK

    def one_block(idx: int) -> tuple[int, int, int]:
        size = min(_TAIL_BLOCK, trials - idx * _TAIL_BLOCK)
        rng = _rng_for(scenario.seed, idx)
        hit_den, hit_num = family.hits(rng, size, n, m, d, z, None, **params)
        return (
            int(np.count_nonzero(hit_num)),
            int(np.count_nonzero(hit_den)),
            int(np.count_nonzero(hit_num & hit_den)),
        )

    counts = _run_blocks(one_block, range(n_blocks))
    hits_num = sum(c[0] for c in counts)
    hits_den = sum(c[1] for c in counts)
    hits_joint = sum(c[2] for c in counts)
    if hits_num < min_hits or hits_den < min_hits:
        raise InsufficientHitsError(hits_num, hits_den, trials, min_hits)

    ratio = hits_num / hits_den
    if hits_num == hits_den == hits_joint:
        # identical event sets (e.g. t_target = 0): the ratio is exact
        stderr = 0.0
    else:
        p_num = hits_num / trials
        p_den = hits_den / trials
        p_joint = hits_joint / trials
        var = (
            p_num * (1.0 - p_num) / p_den**2
            - 2.0 * p_num * (p_joint - p_num * p_den) / p_den**3
            + p_num**2 * (1.0 - p_den) / p_den**3
        )
        stderr = math.sqrt(max(var, 0.0) / trials)
    return TailRatioResult(
        ratio_hat=ratio,
        stderr=stderr,
        hits_num=hits_num,
        hits_den=hits_den,
        hits_joint=hits_joint,
        trials=trials,
    )


def bahadur_rao_tail(cgf: CgfModel, u: float, n: int) -> float:
    """Sharp tail approximation P(mean of n >= u) for a centered cgf.

    exp(-n rate) / (eta sqrt(2 pi n curvature)) with (rate, eta) from the
    slope-u Legendre transform.  Only meaningful when the tail is actually
    small; slopes so close to 0 that the correction factor reaches 1 raise
    ValueError rather than returning a vacuous number.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if not u > 0.0:
        raise ValueError(f"u must be positive, got {u!r}")
    rate, eta = legendre(cgf, u)
    denom = eta * math.sqrt(2.0 * math.pi * n * cgf.lambda_d2(eta))
    if denom < 1.0:
        raise ValueError(
            f"u = {u!r} is too close to 0 at n = {n}: the tail is not in the "
            "large-deviation regime (need roughly u > sd / sqrt(n))"
        )
    return math.exp(-n * rate) / denom
