import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import family_draws
import oracles
from pfdr_sizer import mc_verify
from pfdr_sizer.ldp_engine import (
    _CHUNK_CELLS,
    EULER_GAMMA,
    FAMILIES,
    SplitSpec,
    _cauchy_score,
    _staged_hits,
    _standard_cauchy,
    _uniform_gap,
    make_family,
    solve_t0,
)
from pfdr_sizer.mc_verify import (
    _BLOCK_DRAWS,
    _TAIL_BLOCK,
    MAX_RUN_DRAWS,
    SCORE_FAMILIES,
    SHIFT_FAMILIES,
    THREADS_ENV_VAR,
    DegenerateScenarioError,
    InsufficientHitsError,
    SimScenario,
    ThresholdSchedule,
    bahadur_rao_tail,
    simulate_pfdr,
    tail_ratio_mc,
)


def _fixed(z0: float) -> ThresholdSchedule:
    return ThresholdSchedule(kind="fixed", z0=z0)


class TestThresholdSchedule:
    def test_fixed(self):
        sched = _fixed(0.7)
        assert sched.z_at(1) == 0.7
        assert sched.z_at(10_000) == 0.7

    def test_loglog_growth(self):
        sched = ThresholdSchedule(kind="loglog", z0=1.0)
        assert sched.z_at(400) == pytest.approx(math.log1p(math.log1p(400.0)))
        ns = [10, 100, 1000, 100_000]
        vals = [sched.z_at(n) for n in ns]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdSchedule(kind="linear", z0=1.0)
        with pytest.raises(ValueError):
            ThresholdSchedule(kind="fixed", z0=0.0)
        for z0 in (math.inf, math.nan):
            with pytest.raises(ValueError, match="z0 must be positive and finite"):
                ThresholdSchedule(kind="fixed", z0=z0)


class TestScenarioValidation:
    def test_family_names(self):
        assert set(SHIFT_FAMILIES) == {"normal", "uniform", "gamma"}
        assert set(SCORE_FAMILIES) == {"normal-score", "cauchy-score", "gamma-score"}
        with pytest.raises(ValueError):
            SimScenario(
                family="laplace", effect=0.0, pi=0.5, n=4, m=4,
                schedule=_fixed(1.0), trials=10, seed=0,
            )

    def test_gamma_needs_shape(self):
        with pytest.raises(ValueError):
            SimScenario(
                family="gamma", effect=0.0, pi=0.5, n=4, m=4,
                schedule=_fixed(1.0), trials=10, seed=0,
            )

    @pytest.mark.parametrize(
        "field,value",
        [("trials", 0), ("pi", 1.5), ("pi", -0.1), ("n", 0), ("m", 0),
         ("seed", -1), ("effect", -0.5), ("effect", math.inf),
         ("effect", math.nan), ("n", 2**53 + 1), ("m", 2**53 + 1), ("n", 10**400)],
    )
    def test_bad_numbers(self, field, value):
        kwargs = dict(
            family="normal", effect=0.0, pi=0.5, n=4, m=4,
            schedule=_fixed(1.0), trials=10, seed=0,
        )
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            SimScenario(**kwargs)

    def test_normal_score_sigma_beyond_float_range(self):
        # sigma only divides the effect, so a sigma whose square leaves float
        # range still simulates; theta / sigma overflows, so every false null
        # rejects
        for family in ("normal-score", "normal"):
            common = dict(
                family=family, n=5, m=5, schedule=_fixed(0.5), seed=0,
                params={"sigma": 1e-320},
            )
            pfdr = simulate_pfdr(
                SimScenario(effect=0.1, pi=1.0, trials=2, **common), batch_nulls=50
            )
            assert (pfdr.rejections, pfdr.false_rejections) == (100, 0)
            ratio = tail_ratio_mc(
                SimScenario(effect=0.0, pi=0.5, trials=200, **common), 1.0, min_hits=1
            )
            assert ratio.hits_num == 200


class TestDeterminism:
    def _scenario(self, **overrides):
        kwargs = dict(
            family="normal", effect=0.1, pi=0.3, n=6, m=6,
            schedule=_fixed(0.5), trials=40, seed=11,
        )
        kwargs.update(overrides)
        return SimScenario(**kwargs)

    def test_repeat_run_bit_identical(self):
        a = simulate_pfdr(self._scenario(), batch_nulls=500)
        b = simulate_pfdr(self._scenario(), batch_nulls=500)
        assert a == b

    def test_thread_count_does_not_change_results(self):
        base = simulate_pfdr(self._scenario(), batch_nulls=500)
        old = os.environ.get(THREADS_ENV_VAR)
        os.environ[THREADS_ENV_VAR] = "4"
        try:
            threaded = simulate_pfdr(self._scenario(), batch_nulls=500)
        finally:
            if old is None:
                del os.environ[THREADS_ENV_VAR]
            else:
                os.environ[THREADS_ENV_VAR] = old
        assert base == threaded

    def test_seed_changes_results(self):
        a = simulate_pfdr(self._scenario(seed=11), batch_nulls=500)
        b = simulate_pfdr(self._scenario(seed=12), batch_nulls=500)
        assert a.pfdr_hat != b.pfdr_hat

    def test_seeds_past_64_bits(self):
        # a SeedSequence takes any seed >= 0; 2^64 and 2^64 + 1 agree in
        # their low 64 bits, so a key truncated to uint64 would tie them
        a = simulate_pfdr(self._scenario(seed=2**64), batch_nulls=500)
        b = simulate_pfdr(self._scenario(seed=2**64 + 1), batch_nulls=500)
        assert a.pfdr_hat != b.pfdr_hat

    def test_invalid_thread_env(self):
        old = os.environ.get(THREADS_ENV_VAR)
        os.environ[THREADS_ENV_VAR] = "many"
        try:
            with pytest.raises(ValueError):
                simulate_pfdr(self._scenario(), batch_nulls=100)
        finally:
            if old is None:
                del os.environ[THREADS_ENV_VAR]
            else:
                os.environ[THREADS_ENV_VAR] = old


# Exact counts at seed 2027 for every family: ((hits_num, hits_den,
# hits_joint) of tail_ratio_mc, (rejections, false_rejections) of
# simulate_pfdr).  They pin the random-stream layout, so any change to it has
# to be made on purpose.  All six were re-pinned when block b moved from a
# Philox stream keyed by (seed, b) to SFC64 on child b of SeedSequence(seed),
# cauchy-score to drawing tan(pi (U - 1/2)) and uniform to drawing each
# pair's gap as 1 - sqrt(U).  The four raw-draw families were re-pinned
# again when their scale pairs moved to pair-major chunks drawn by stages,
# only for the rows that can still reject; the normal pins did not move.
PINNED_COUNTS = {
    "normal": ((6373, 3156, 3156), (1811, 1014)),
    "uniform": ((9014, 3081, 3081), (2157, 986)),
    "gamma": ((7679, 3393, 3393), (2039, 1043)),
    "normal-score": ((5125, 3156, 3156), (1601, 1014)),
    "cauchy-score": ((5228, 3111, 2998), (1626, 1001)),
    "gamma-score": ((8137, 3393, 3340), (2020, 1091)),
}
PINNED_PARAMS = {
    "normal": {},
    "uniform": {"width": 2.0},
    "gamma": {"shape": 2.0, "scale": 0.5},
    "normal-score": {"sigma": 1.5},
    "cauchy-score": {},
    "gamma-score": {},
}


class TestStreamLayout:
    # 3 threads divide neither the 2 tail blocks nor the 4 batches
    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    @pytest.mark.parametrize("family", list(PINNED_COUNTS))
    def test_pinned_counts(self, family, threads, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, threads)
        common = dict(
            family=family, n=4, m=3, schedule=_fixed(0.6), seed=2027,
            params=PINNED_PARAMS[family],
        )
        # 20,000 trials span two RNG blocks, 4 batches span four
        ratio = tail_ratio_mc(
            SimScenario(effect=0.0, pi=0.5, trials=20_000, **common), 2.0, min_hits=1
        )
        pfdr = simulate_pfdr(
            SimScenario(effect=0.5, pi=0.2, trials=4, **common), batch_nulls=2_000
        )
        counts = (
            (ratio.hits_num, ratio.hits_den, ratio.hits_joint),
            (pfdr.rejections, pfdr.false_rejections),
        )
        assert counts == PINNED_COUNTS[family]

    def test_block_stream_is_a_spawned_child(self):
        for seed, block in [(2027, 0), (2027, 5), (2**70, 3)]:
            got = mc_verify._rng_for(seed, block).random(4)
            assert np.array_equal(got, _stream(seed, block).random(4))


def _stream(seed, block=0):
    # block b's stream: an SFC64 generator on child b of SeedSequence(seed)
    child = np.random.SeedSequence(seed).spawn(block + 1)[block]
    return np.random.Generator(np.random.SFC64(child))


def _row_means(x):
    # row means summed in column chunks of _CHUNK_CELLS, so a row wider than
    # that is added as the sampler adds it; one chunk is x.mean(axis=1)
    n = x.shape[1]
    return sum(x[:, j:j + _CHUNK_CELLS].sum(axis=1) for j in range(0, n, _CHUNK_CELLS)) / n


def _whole_means(family, rng, size, n, effect, **params):
    """The raw-draw families' row means as one (size, n) draw each.

    Uniform and gamma draw at unit scale, so their means are in units of
    the width or scale, and the shifted mean is the null's plus effect / it.
    """
    if family == "uniform":
        xbar0 = _row_means(rng.random((size, n)) - 0.5)
        return xbar0, xbar0 + effect / params["width"]
    if family == "gamma":
        xbar0 = rng.standard_gamma(n * params["shape"], size) / n - params["shape"]
        return xbar0, xbar0 + effect / params["scale"]
    if family == "cauchy-score":
        w = np.tan(np.pi * (rng.random((size, n)) - 0.5))
        return _row_means(_cauchy(w)), _row_means(_cauchy(w + effect))
    # gamma-score draws each chunk's exponentials, then its gammas; a chunk
    # is some rows, or part of one row wider than _CHUNK_CELLS
    step, width = max(1, _CHUNK_CELLS // n), min(n, _CHUNK_CELLS)
    null, shifted = np.zeros((size, n)), np.zeros((size, n))
    for start in range(0, size, step):
        rows = slice(start, min(start + step, size))
        for first in range(0, n, width):
            cols = slice(first, min(first + width, n))
            shape = null[rows, cols].shape
            w = rng.standard_exponential(shape)
            g = rng.standard_gamma(effect, shape) if effect > 0.0 else 0.0
            null[rows, cols] = np.log(w) + EULER_GAMMA
            shifted[rows, cols] = np.log(w + g) + EULER_GAMMA
    return _row_means(null), _row_means(shifted)


def _whole_gaps(family, rng, rows, pairs, effect, **params):
    """Squared pair gaps of a (pairs, rows) chunk, null and shifted, at unit scale."""
    if family == "uniform":
        d = 1.0 - np.sqrt(rng.random((pairs, rows)))
        return d * d, d * d
    if family == "gamma":
        obs = rng.standard_gamma(params["shape"], (2 * pairs, rows))
        d = obs[0::2] - obs[1::2]
        return d * d, d * d
    if family == "cauchy-score":
        w = np.tan(np.pi * (rng.random((2 * pairs, rows)) - 0.5))
        null, shifted = _cauchy(w), _cauchy(w + effect)
    else:
        w = rng.standard_exponential((2 * pairs, rows))
        g = rng.standard_gamma(effect, (2 * pairs, rows)) if effect > 0.0 else 0.0
        null, shifted = np.log(w) + EULER_GAMMA, np.log(w + g) + EULER_GAMMA
    d0, d1 = null[0::2] - null[1::2], shifted[0::2] - shifted[1::2]
    return d0 * d0, d1 * d1


def _cauchy(w):
    return 2.0 * w / (1.0 + w * w)


RAW_FAMILIES = ["uniform", "gamma", "cauchy-score", "gamma-score"]
CHUNK_PARAMS = {"uniform": {"width": 2.0}, "gamma": {"shape": 0.7, "scale": 1.5}}


class TestRowChunks:
    # the row means, drawn in row chunks, must equal one whole-block draw bit
    # for bit and leave the stream at the same place; a stage's chunk of
    # scale pairs is one pair-major (pairs, rows) draw
    @given(
        family=st.sampled_from(RAW_FAMILIES),
        size=st.integers(1, 3000),
        n=st.integers(1, 300),
        m=st.integers(1, 300),
        effect=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32),
    )
    # below one chunk; 16384 rows of 150 columns, not a multiple of the 218
    # rows per chunk; more columns than _CHUNK_CELLS, one row per chunk
    @example(family="cauchy-score", size=100, n=10, m=10, effect=0.3, seed=1)
    @example(family="uniform", size=16_384, n=150, m=150, effect=0.3, seed=2)
    @example(family="gamma", size=16_384, n=150, m=150, effect=0.3, seed=3)
    @example(family="cauchy-score", size=16_384, n=150, m=150, effect=0.3, seed=4)
    @example(family="gamma-score", size=16_384, n=150, m=150, effect=0.3, seed=5)
    @example(
        family="cauchy-score", size=3, n=_CHUNK_CELLS + 1,
        m=_CHUNK_CELLS // 2 + 1, effect=0.3, seed=5,
    )
    @example(
        family="uniform", size=3, n=_CHUNK_CELLS + 7, m=_CHUNK_CELLS,
        effect=0.0, seed=6,
    )
    @example(family="gamma-score", size=5, n=3, m=7, effect=0.0, seed=7)
    @example(
        family="gamma-score", size=2, n=2 * _CHUNK_CELLS + 3, m=3, effect=0.4, seed=8,
    )
    def test_chunks_match_one_whole_block(self, family, size, n, m, effect, seed):
        params = CHUNK_PARAMS.get(family, {})
        chunked, whole = _stream(seed), _stream(seed)
        seen = family_draws.captured_call(family, chunked, size, n, m, effect, **params)
        want = _whole_means(family, whole, size, n, effect, **params)
        assert np.array_equal(seen["xbar0"], want[0])
        assert np.array_equal(seen["xbar1"], want[1])
        # a zero effect or a shift family takes one scale for both sides
        assert seen["shared"] == (family in SHIFT_FAMILIES or effect == 0.0)
        assert chunked.random() == whole.random()
        rows, pairs = min(size, 4), min(m, 3)
        got = seen["gaps"](np.arange(rows), pairs)
        want = _whole_gaps(family, whole, rows, pairs, effect, **params)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert chunked.random() == whole.random()


class TestInversionDraws:
    # fixed-seed KS checks, on 2e5 draws each, of the laws drawn by inversion
    def test_cauchy(self):
        w = _standard_cauchy(_stream(41), 200_000)
        assert stats.kstest(w, stats.cauchy.cdf).pvalue > 1e-3

    def test_uniform_pair_gap(self):
        gap = _uniform_gap(_stream(42), 200_000)
        u = _stream(43).random((2, 200_000))
        assert stats.ks_2samp(gap, np.abs(u[0] - u[1])).pvalue > 1e-3
        # density 2 (1 - x) on [0, 1]
        assert stats.kstest(gap, stats.triang(0.0).cdf).pvalue > 1e-3


class TestBlockMemory:
    # one 16384-row block drawn whole would hold several (16384, n + 2m)
    # float64 arrays, 75 MiB to 2.5 GiB at these sizes; chunked it holds
    # O(16384) statistics and a few chunks of _CHUNK_CELLS cells.  At so low
    # a threshold every row with a mean >= 0 runs through all the stages.
    @pytest.mark.parametrize("nm", [150, 2000])
    @pytest.mark.parametrize("family", RAW_FAMILIES)
    def test_block_peak_stays_small(self, family, nm):
        params = CHUNK_PARAMS.get(family, {})
        rng = _stream(1)
        tracemalloc.start()
        try:
            hit0, hit1 = FAMILIES[family].hits(rng, 16_384, nm, nm, 1.0, 1e-3, None, **params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert hit0.sum() > 4000 and hit1.sum() > 4000

    @pytest.mark.parametrize("family", ["uniform", "cauchy-score", "gamma-score"])
    def test_wide_row_peak_stays_small(self, family):
        # one row of 2^22 observations, 32 MiB per array drawn whole, goes in
        # column chunks of _CHUNK_CELLS cells
        params = CHUNK_PARAMS.get(family, {})
        rng = _stream(2)
        tracemalloc.start()
        try:
            FAMILIES[family].hits(rng, 1, 2**22, 1, 0.5, 1e-3, None, **params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class _CountingRng:
    """A Generator that counts the variates its methods return."""

    def __init__(self, rng):
        self.rng, self.count = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self.count += np.size(out)
            return out

        return counted


class TestDeclaredDraws:
    # the run budget trusts each family's declared draws per statistic; at a
    # low threshold most rows run through every stage of scale pairs
    @pytest.mark.parametrize("m", [1, 7, 40])
    @pytest.mark.parametrize("n", [1, 7, 40])
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_declared_draws_bound_the_sampler(self, family, n, m):
        size = 500
        side = _stream(9).random(size) < 0.5
        for effect, picked in [(0.0, None), (0.7, None), (0.7, side)]:
            rng = _CountingRng(_stream(8))
            params = FAMILIES[family].kwargs(PINNED_PARAMS[family])
            FAMILIES[family].hits(rng, size, n, m, effect, 1e-3, picked, **params)
            assert 0 < rng.count <= size * FAMILIES[family].draws(n, m)


def _served_gaps(tables):
    """gaps(rows, pairs) serving the next columns of fixed (size, m) tables.

    Also returns how many pairs each row was served.
    """
    served = np.zeros(tables[0].shape[0], dtype=int)

    def gaps(rows, pairs):
        first = served[rows]
        assert np.all(first == first[0])
        served[rows] += pairs
        return tuple(t[rows, first[0]:first[0] + pairs].T for t in tables)

    return gaps, served


def _all_pairs_hits(xbars, tables, m, z):
    # the rule on all m pairs: S^2 = (sum of squared gaps in pair order) / 2m
    bounds = [z * np.sqrt(np.cumsum(t, axis=1)[:, -1] / (2 * m)) for t in tables]
    return xbars[0] >= bounds[0], xbars[1] >= bounds[-1]


class TestStagedHits:
    # the staged decision against the rule on all m pairs, on the same
    # squared gaps; m = 1, m = 13 (which no stage divides) and m = 8
    @given(
        m=st.integers(1, 40),
        size=st.integers(1, 60),
        shared=st.booleans(),
        picked=st.booleans(),
        z=st.floats(0.01, 20.0),
        seed=st.integers(0, 2**32),
    )
    @example(m=1, size=40, shared=True, picked=False, z=1.0, seed=1)
    @example(m=1, size=40, shared=False, picked=True, z=0.5, seed=2)
    @example(m=13, size=60, shared=False, picked=False, z=2.0, seed=3)
    @example(m=13, size=60, shared=True, picked=True, z=3.0, seed=4)
    @example(m=8, size=60, shared=False, picked=False, z=1.0, seed=5)
    def test_equals_the_all_pairs_rule(self, m, size, shared, picked, z, seed):
        rng = np.random.default_rng(seed)
        tables = [rng.exponential(size=(size, m)) for _ in range(1 if shared else 2)]
        for t in tables:
            t[rng.random(t.shape) < 0.2] = 0.0
        full = [z * np.sqrt(np.cumsum(t, axis=1)[:, -1] / (2 * m)) for t in tables]
        half = [
            z * np.sqrt(np.cumsum(t, axis=1)[:, -(-m // 2) - 1] / (2 * m)) for t in tables
        ]
        xbars = []
        for j in (0, 1):
            b, h = full[min(j, len(tables) - 1)], half[min(j, len(tables) - 1)]
            # 0 exactly, z S exactly, one ulp below, between the bound on
            # ceil(m / 2) pairs and on all m (decided at the last stage
            # only), negative, and anywhere
            choices = np.stack([
                np.zeros(size), b, np.nextafter(b, -np.inf),
                h + (b - h) * rng.random(size), -rng.random(size),
                rng.normal(0.0, 2.0 * b + 0.1),
            ])
            xbars.append(choices[rng.integers(0, len(choices), size), np.arange(size)])
        side = rng.random(size) < 0.5 if picked else None
        gaps, served = _served_gaps(tables)
        got = _staged_hits(xbars[0], xbars[1], gaps, m, z, side, shared)
        want = list(_all_pairs_hits(xbars, tables, m, z))
        if picked:
            want[0] &= ~side
            want[1] &= side
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        # a row whose served sides all have a negative mean draws nothing
        lows = [x < 0.0 for x in xbars]
        dead = np.where(side, lows[1], lows[0]) if picked else lows[0] & lows[1]
        assert np.all(served[dead] == 0)
        assert np.all((served == 0) | (served >= -(-m // 8)))
        assert served.max(initial=0) <= m

    # hit frequencies against the rule on all m pairs of every row, drawn by
    # the same family on an independent stream: two binomials of 2e5 trials
    # each, compared at 5 standard errors, on both sides and on the side a
    # flag picks
    @pytest.mark.parametrize("family", RAW_FAMILIES)
    def test_hit_rates_match_all_pairs(self, family):
        params = CHUNK_PARAMS.get(family, {})
        size, n, m, effect, z = 200_000, 6, 5, 0.3, 0.6
        staged = FAMILIES[family].hits(_stream(11), size, n, m, effect, z, None, **params)
        xbar0, s0, xbar1, s1 = family_draws.statistics(
            family, _stream(12), size, n, m, effect, **params
        )
        full = (xbar0 >= z * s0, xbar1 >= z * s1)
        side = _stream(13).random(size) < 0.3
        picked = FAMILIES[family].hits(_stream(14), size, n, m, effect, z, side, **params)
        pairs = [
            (staged[0].sum(), full[0].sum()),
            (staged[1].sum(), full[1].sum()),
            (picked[0].sum() + picked[1].sum(), np.where(side, full[1], full[0]).sum()),
        ]
        for a, b in pairs:
            p = (a + b) / (2 * size)
            assert 0.01 < p < 0.5
            assert abs(a - b) / size <= 5.0 * math.sqrt(2.0 * p * (1.0 - p) / size)


class TestTailRatio:
    def test_against_exact_t_tails(self):
        # normal data: the Studentized rejection probability is an exact t
        # tail, so the simulated ratio must sit on the noncentral/central one.
        # A data shift d is d / sigma standard deviations, and so is the
        # normal score's shift d / sigma^2 against its sd 1 / sigma.
        for family, n, m, p_null, sigma, trials in [
            ("normal", 8, 8, 0.01, 1.0, 500_000),
            ("normal", 50, 20, 1e-3, 2.0, 2_000_000),
            ("normal-score", 8, 8, 0.01, 1.5, 500_000),
            ("normal-score", 200, 200, 1e-3, 0.5, 2_000_000),
        ]:
            z = float(stats.t.isf(p_null, m)) / math.sqrt(n)
            scenario = SimScenario(
                family=family, effect=0.0, pi=0.5, n=n, m=m, schedule=_fixed(z),
                trials=trials, seed=3, params={"sigma": sigma},
            )
            t_target = 1.0
            d = t_target / (n + m)
            result = tail_ratio_mc(scenario, t_target=t_target)
            exact = oracles.studentized_tail_ratio_exact(n, m, z, d / sigma)
            assert result.stderr > 0.0
            assert abs(result.ratio_hat - exact) < 4.0 * result.stderr
            # correlated counting keeps the ratio tight: under 2 percent here
            assert result.stderr < 0.02 * exact

    def test_exact_ratio_falls_to_fixed_threshold_limit(self):
        # with z held fixed the finite-size ratio tends to exp((1 - rho) T x*(z)),
        # not to the large-threshold gain exp((1 - rho) T t0)
        z0 = float(stats.t.isf(1e-3, 200)) / math.sqrt(200)
        limit = oracles.studentized_tail_ratio_limit(z0, 0.5, 1.0)
        ratios = []
        for n_total in [400, 800, 1600, 4000, 10_000, 40_000]:
            half = n_total // 2
            ratios.append(
                oracles.studentized_tail_ratio_exact(half, half, z0, 1.0 / n_total)
            )
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert abs(ratios[-1] / limit - 1.0) < 1e-3

    def test_limit_reaches_tilt_gain_as_threshold_grows(self):
        t0 = solve_t0(*make_family("normal", sigma=1.0), SplitSpec(rho=0.5))
        limit = oracles.studentized_tail_ratio_limit(1e4, 0.5, 1.0)
        assert limit == pytest.approx(math.exp(0.5 * t0), rel=1e-6)

    def test_zero_growth_is_exactly_one(self):
        scenario = SimScenario(
            family="normal", effect=0.0, pi=0.5, n=4, m=4,
            schedule=_fixed(0.8), trials=20_000, seed=5,
        )
        result = tail_ratio_mc(scenario, t_target=0.0)
        assert result.ratio_hat == 1.0
        assert result.stderr == 0.0
        assert result.hits_num == result.hits_den == result.hits_joint

    def test_insufficient_hits(self):
        scenario = SimScenario(
            family="normal", effect=0.0, pi=0.5, n=4, m=4,
            schedule=_fixed(8.0), trials=2_000, seed=5,
        )
        with pytest.raises(InsufficientHitsError) as exc:
            tail_ratio_mc(scenario, t_target=1.0)
        assert exc.value.trials == 2_000
        assert exc.value.hits_den < 100

    @pytest.mark.parametrize(
        "t_target,min_hits,name",
        [(math.inf, 100, "t_target"), (math.nan, 100, "t_target"),
         (-1.0, 100, "t_target"), (1.0, 0, "min_hits"), (1.0, -3, "min_hits")],
    )
    def test_domain(self, t_target, min_hits, name):
        # at z0 = 50 no trial hits, so min_hits = 0 would divide by hits_den = 0
        scenario = SimScenario(
            family="normal", effect=0.0, pi=0.5, n=5, m=5,
            schedule=_fixed(50.0), trials=3, seed=5,
        )
        with pytest.raises(ValueError, match=name):
            tail_ratio_mc(scenario, t_target=t_target, min_hits=min_hits)

    def test_runs_for_every_family(self):
        for family in SHIFT_FAMILIES + SCORE_FAMILIES:
            params = {"shape": 2.0} if family == "gamma" else {}
            scenario = SimScenario(
                family=family, effect=0.2, pi=0.5, n=6, m=6,
                schedule=_fixed(0.3), trials=4_000, seed=9, params=params,
            )
            result = tail_ratio_mc(scenario, t_target=0.5, min_hits=10)
            assert result.ratio_hat >= 1.0
            assert result.trials == 4_000


class TestSimulatePfdr:
    def test_zero_effect_gives_prior_odds(self):
        # with no signal, V/R concentrates at 1 - pi
        for pi in [0.3, 0.7]:
            scenario = SimScenario(
                family="normal", effect=0.0, pi=pi, n=5, m=5,
                schedule=_fixed(0.4), trials=80, seed=21,
            )
            result = simulate_pfdr(scenario, batch_nulls=4_000)
            assert abs(result.pfdr_hat - (1.0 - pi)) < 4.0 * result.stderr

    def test_matches_plugin_tail_formula(self):
        # normal data: per-null rejection probabilities are exact t tails,
        # and V/R averaged over batches with R > 0 has them in closed form
        for n, m, p_null, effect, pi, sigma in [
            (16, 16, 0.02, 0.3, 0.3, 1.0),
            (20, 20, 0.3, 0.3, 0.3, 1.0),
            (200, 200, 1e-3, 0.05, 0.1, 2.0),
        ]:
            z = float(stats.t.isf(p_null, m)) / math.sqrt(n)
            scenario = SimScenario(
                family="normal", effect=effect, pi=pi, n=n, m=m, schedule=_fixed(z),
                trials=200, seed=33, params={"sigma": sigma},
            )
            result = simulate_pfdr(scenario, batch_nulls=5_000)
            expected = oracles.studentized_pfdr_exact(n, m, z, effect / sigma, pi)
            assert abs(result.pfdr_hat - expected) < 4.0 * result.stderr

    def test_counts_are_consistent(self):
        scenario = SimScenario(
            family="normal", effect=0.5, pi=0.5, n=6, m=6,
            schedule=_fixed(0.5), trials=30, seed=2,
        )
        result = simulate_pfdr(scenario, batch_nulls=1_000)
        assert result.batches == 30
        assert 0 < result.batches_with_rejection <= 30
        assert result.false_rejections <= result.rejections
        assert 0.0 < result.reject_rate < 1.0

    def test_degenerate_scenario(self):
        scenario = SimScenario(
            family="normal", effect=0.0, pi=0.5, n=4, m=4,
            schedule=_fixed(50.0), trials=5, seed=2,
        )
        with pytest.raises(DegenerateScenarioError) as exc:
            simulate_pfdr(scenario, batch_nulls=200)
        assert exc.value.total_nulls == 5 * 200
        assert 0.0 < exc.value.reject_rate_bound <= 1e-3

    def test_gamma_score_zero_effect_runs(self):
        scenario = SimScenario(
            family="gamma-score", effect=0.0, pi=0.4, n=5, m=5,
            schedule=_fixed(0.3), trials=30, seed=7,
        )
        result = simulate_pfdr(scenario, batch_nulls=1_000)
        assert abs(result.pfdr_hat - 0.6) < 5.0 * result.stderr


def _no_draws(seed, block):
    raise AssertionError("the run drew before checking its budget")


class TestMemoryGuard:
    # at n = m = 10^6 a run of raw draws would cost 2e13 draws; the normal
    # families draw two numbers per statistic
    SIZES = dict(n=1_000_000, m=1_000_000, pi=0.5, effect=0.0, seed=1)
    REFUSED = f"over MAX_RUN_DRAWS = 2\\^32 = {MAX_RUN_DRAWS}"

    def test_raw_draw_block_above_cap_is_refused(self, monkeypatch):
        monkeypatch.setattr(mc_verify, "_rng_for", _no_draws)
        scenario = SimScenario(
            family="uniform", schedule=_fixed(0.002), trials=10_000_000, **self.SIZES
        )
        with pytest.raises(ValueError, match=self.REFUSED):
            tail_ratio_mc(scenario, t_target=2000.0)

    def test_batch_nulls_above_cap_is_refused_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(mc_verify, "_rng_for", _no_draws)
        scenario = SimScenario(
            family="normal", effect=0.0, pi=0.5, n=5, m=5,
            schedule=_fixed(0.4), trials=2, seed=1,
        )
        with pytest.raises(ValueError, match=self.REFUSED):
            simulate_pfdr(scenario, batch_nulls=MAX_RUN_DRAWS)

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_budget_is_checked_before_any_draw(self, family, monkeypatch):
        # 10^10 statistics of any family in either estimator, and a count past
        # float range; a refused run formats its count without overflow
        monkeypatch.setattr(mc_verify, "_rng_for", _no_draws)
        for trials, count in [(10**10, r"e\+1\d"), (10**400, r"e\+40\d")]:
            scenario = SimScenario(
                family=family, effect=0.5, pi=0.5, n=3, m=3, schedule=_fixed(0.5),
                trials=trials, seed=1, params=PINNED_PARAMS[family],
            )
            with pytest.raises(ValueError, match=f"{count}.* raw draws, {self.REFUSED}"):
                tail_ratio_mc(scenario, t_target=1.0)
            with pytest.raises(ValueError, match=f"{count}.* raw draws, {self.REFUSED}"):
                simulate_pfdr(scenario, batch_nulls=1)

    def test_budget_counts_statistics_and_blocks(self, monkeypatch):
        # the largest runs within the budget pass and the next larger do not;
        # the blocks are not run
        scenario = dict(
            family="normal", effect=0.0, pi=0.5, n=5, m=5, schedule=_fixed(0.4), seed=1,
        )
        # tail_ratio_mc: 2 draws per normal statistic, whole blocks
        blocks = MAX_RUN_DRAWS // (_TAIL_BLOCK * 2 + _BLOCK_DRAWS)
        monkeypatch.setattr(mc_verify, "_run_blocks", lambda fn, n: [(0, 0, 0)] * n)
        with pytest.raises(InsufficientHitsError):
            tail_ratio_mc(SimScenario(trials=blocks * _TAIL_BLOCK, **scenario), 1.0)
        with pytest.raises(ValueError, match=self.REFUSED):
            tail_ratio_mc(SimScenario(trials=(blocks + 1) * _TAIL_BLOCK, **scenario), 1.0)
        # simulate_pfdr: one batch, and each null draws its false flag too
        nulls = (MAX_RUN_DRAWS - _BLOCK_DRAWS) // 3
        monkeypatch.setattr(mc_verify, "_run_blocks", lambda fn, n: [(0, 0)] * n)
        with pytest.raises(DegenerateScenarioError):
            simulate_pfdr(SimScenario(trials=1, **scenario), batch_nulls=nulls)
        with pytest.raises(ValueError, match=self.REFUSED):
            simulate_pfdr(SimScenario(trials=1, **scenario), batch_nulls=nulls + 1)

    def test_large_batch_holds_one_block_of_nulls(self):
        # a batch draws _TAIL_BLOCK nulls at a time, so 200,000 of them hold
        # what 16,384 do (7.6 MiB drawn whole)
        scenario = SimScenario(
            family="normal", effect=0.5, pi=0.5, n=5, m=5,
            schedule=_fixed(0.5), trials=1, seed=3,
        )
        tracemalloc.start()
        try:
            result = simulate_pfdr(scenario, batch_nulls=200_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert result.rejections > 0

    def test_sufficient_statistics_skip_the_cap(self):
        # z sqrt(n) = 2 and, with d = T / (n + m), noncentrality d sqrt(n) = 1
        scenario = SimScenario(
            family="normal", schedule=_fixed(0.002), trials=20_000, **self.SIZES
        )
        result = tail_ratio_mc(scenario, t_target=2000.0)
        exact = oracles.studentized_tail_ratio_exact(10**6, 10**6, 0.002, 1e-3)
        assert abs(result.ratio_hat - exact) < 4.0 * result.stderr


class TestBahadurRao:
    def test_normal_tail_within_five_percent(self):
        cgf, _ = make_family("normal", sigma=1.0)
        approx = bahadur_rao_tail(cgf, u=0.5, n=100)
        exact = oracles.exact_normal_mean_tail(0.5, 1.0, 100)
        assert abs(approx / exact - 1.0) < 0.05

    def test_error_halves_when_n_doubles(self):
        cgf, _ = make_family("normal", sigma=1.0)
        errs = []
        for n in [100, 200]:
            approx = bahadur_rao_tail(cgf, u=0.5, n=n)
            exact = oracles.exact_normal_mean_tail(0.5, 1.0, n)
            errs.append(abs(approx / exact - 1.0))
        ratio = errs[1] / errs[0]
        assert 0.35 < ratio < 0.65

    def test_approach_is_monotone(self):
        cgf, _ = make_family("normal", sigma=1.0)
        errs = []
        for n in [50, 100, 200]:
            approx = bahadur_rao_tail(cgf, u=0.3, n=n)
            exact = oracles.exact_normal_mean_tail(0.3, 1.0, n)
            errs.append(abs(approx / exact - 1.0))
        assert errs[0] > errs[1] > errs[2]

    def test_vacuous_regime_rejected(self):
        cgf, _ = make_family("normal", sigma=1.0)
        with pytest.raises(ValueError):
            bahadur_rao_tail(cgf, u=0.01, n=10)

    def test_domain(self):
        cgf, _ = make_family("normal", sigma=1.0)
        with pytest.raises(ValueError):
            bahadur_rao_tail(cgf, u=-0.5, n=100)
        with pytest.raises(ValueError):
            bahadur_rao_tail(cgf, u=0.5, n=0)


class TestUnitScale:
    # the rule is Studentized, so scaling the data and the effect by 2^k,
    # which is exact in floats, must leave every count as it is, bit for bit,
    # however far 2^k is from 1 and its square from float range
    @settings(max_examples=40)
    @given(
        family=st.sampled_from(sorted(family_draws.SCALE_PARAM)),
        k=st.integers(-600, 600),
        effect=st.floats(0.05, 2.0),
    )
    @example(family="uniform", k=600, effect=0.5)
    @example(family="gamma", k=-600, effect=0.3)
    @example(family="normal-score", k=600, effect=0.5)
    @example(family="normal-score", k=-600, effect=0.5)
    def test_counts_do_not_depend_on_the_scale(self, family, k, effect):
        c = math.ldexp(1.0, k)

        def counts(scale, shift):
            common = dict(
                family=family, n=4, m=3, schedule=_fixed(0.6), seed=7,
                params={family_draws.SCALE_PARAM[family]: scale, "shape": 2.0},
            )
            pfdr = simulate_pfdr(
                SimScenario(effect=shift, pi=0.3, trials=3, **common), batch_nulls=500
            )
            ratio = tail_ratio_mc(
                SimScenario(effect=0.0, pi=0.5, trials=2_000, **common),
                7.0 * shift, min_hits=1,
            )
            return pfdr, ratio

        assert counts(c, effect * c) == counts(1.0, effect)


class TestCouplingStructure:
    def test_shift_families_share_scale_draws(self):
        # under a pure location shift the numerator and denominator runs use
        # the same scale estimate, which is what makes the ratio estimator
        # tight; verify via the exact-zero stderr of a forced tie at T=0
        scenario = SimScenario(
            family="uniform", effect=0.0, pi=0.5, n=4, m=4,
            schedule=_fixed(0.2), trials=5_000, seed=13,
        )
        result = tail_ratio_mc(scenario, t_target=0.0)
        assert result.hits_num == result.hits_den == result.hits_joint
        assert result.stderr == 0.0

    def test_cauchy_score_effect_past_float_range(self):
        # (w + effect)^2 overflows in every shifted cell, where the score
        # rounds to 0 without an overflow warning, which the suite would
        # turn into an error.  Where w^2 is finite the score is unchanged
        w = np.array([3.0, -0.5, 1e150, -1e154, 1e200, -1e300])
        finite = np.array([True, True, True, True, False, False])
        got = _cauchy_score(w)
        assert np.array_equal(got[finite], _cauchy(w[finite]))
        assert np.array_equal(got[~finite], [0.0, 0.0])
        scenario = SimScenario(
            family="cauchy-score", effect=1e300, pi=0.5, n=4, m=4,
            schedule=_fixed(0.5), trials=5, seed=13,
        )
        assert simulate_pfdr(scenario).batches == 5

    @pytest.mark.parametrize("family", ["cauchy-score", "gamma-score"])
    def test_zero_effect_scores_are_the_null_scores(self, family):
        scenario = SimScenario(
            family=family, effect=0.0, pi=0.5, n=4, m=4,
            schedule=_fixed(0.2), trials=5_000, seed=13,
        )
        result = tail_ratio_mc(scenario, t_target=0.0)
        assert result.hits_num == result.hits_den == result.hits_joint
