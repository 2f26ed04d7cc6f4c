import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize, special

import oracles
from pfdr_sizer import numerics
from pfdr_sizer.ldp_engine import cauchy_score_model, gamma_score_model
from pfdr_sizer.numerics import (
    _BRENT_RTOL,
    RootBracketError,
    RootRangeError,
    SeriesDivergenceError,
    exp_or_inf,
    find_root_increasing,
    log_sum_rows,
    log_sum_series,
    sum_series,
    _brentq,
)


def log_gamma(x: float) -> float:
    # the gamma-score cgf is ln Gamma(1 + t) + EULER_GAMMA t on t > -1
    t = x - 1.0
    return gamma_score_model().cgf.lambda_fn(t) - oracles.EULER_GAMMA * t


def digamma(x: float) -> float:
    # the gamma-score cgf has derivative digamma(1 + t) + EULER_GAMMA
    t = x - 1.0
    return gamma_score_model().cgf.lambda_d1(t) - oracles.EULER_GAMMA


def bessel_i0_log(t: float) -> float:
    # the Cauchy-score cgf is ln I0(t)
    return cauchy_score_model().cgf.lambda_fn(t)


class TestLogGamma:
    def test_factorial_point(self):
        # Gamma(10) = 9! = 362880
        assert log_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-14)

    def test_half_integer_points(self):
        # Gamma(1/2) = sqrt(pi), Gamma(7/2) = 15 sqrt(pi) / 8
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)
        expected = math.log(15.0 / 8.0) + 0.5 * math.log(math.pi)
        assert log_gamma(3.5) == pytest.approx(expected, rel=1e-14)

    def test_small_argument_series(self):
        # log Gamma(1 + x) = -gamma x + zeta(2) x^2/2 - zeta(3) x^3/3 + ...
        x = 1e-3
        zeta2 = math.pi**2 / 6.0
        zeta3 = 1.2020569031595942854
        zeta4 = math.pi**4 / 90.0
        lg_1px = (
            -oracles.EULER_GAMMA * x
            + zeta2 * x * x / 2.0
            - zeta3 * x**3 / 3.0
            + zeta4 * x**4 / 4.0
        )
        assert log_gamma(x) == pytest.approx(lg_1px - math.log(x), rel=1e-13)

    def test_recurrence_grid(self):
        for x in np.logspace(-3, 6, 40):
            lhs = log_gamma(x + 1.0) - log_gamma(x)
            # the subtraction itself loses digits at large x, hence the
            # looser tolerance than the pointwise one
            assert lhs == pytest.approx(math.log(x), rel=1e-10)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            log_gamma(bad)


class TestDigamma:
    def test_at_one(self):
        assert digamma(1.0) == pytest.approx(-oracles.EULER_GAMMA, abs=1e-12)

    def test_at_half(self):
        assert digamma(0.5) == pytest.approx(oracles.digamma_half(), abs=1e-12)

    def test_recurrence_grid(self):
        for x in np.logspace(-2, 4, 30):
            lhs = digamma(x + 1.0) - digamma(x)
            assert lhs == pytest.approx(1.0 / x, rel=1e-10)

    def test_duplication_grid(self):
        # psi(2x) = (psi(x) + psi(x + 1/2)) / 2 + log 2
        for x in [0.25, 0.7, 1.0, 3.3, 12.0]:
            lhs = digamma(2.0 * x)
            rhs = 0.5 * (digamma(x) + digamma(x + 0.5)) + math.log(2.0)
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))

    @pytest.mark.parametrize("bad", [0.0, -2.0])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            digamma(bad)


class TestBesselI0Log:
    @pytest.mark.parametrize("t", [0.1, 1.0, 5.0, 20.0])
    def test_quadrature_oracle(self, t):
        assert bessel_i0_log(t) == pytest.approx(
            oracles.log_i0_quadrature(t), rel=1e-9, abs=1e-9
        )

    def test_even(self):
        for t in [0.3, 2.0, 50.0, 400.0]:
            assert bessel_i0_log(-t) == bessel_i0_log(t)

    def test_zero(self):
        assert bessel_i0_log(0.0) == 0.0

    def test_large_argument_asymptotic(self):
        # I0(t) ~ e^t / sqrt(2 pi t) (1 + 1/(8t) + 9/(128 t^2) + 225/(3072 t^3))
        t = 500.0
        corr = 1.0 + 1.0 / (8 * t) + 9.0 / (128 * t * t) + 225.0 / (3072 * t**3)
        expected = t - 0.5 * math.log(2.0 * math.pi * t) + math.log(corr)
        assert bessel_i0_log(t) == pytest.approx(expected, rel=1e-10)


# absolute error allowed against the 50-digit mpmath oracles, in units of
# max(1, |reference|)
SPECIAL_TOL = 2e-15


def _special_error(got: float, ref: float) -> float:
    return abs(got - ref) / max(1.0, abs(ref))


class TestSpecialFunctions:
    # both sides of the switch from the power series to Hankel's expansion
    U_EDGES = [math.nextafter(25.0, 0.0), 25.0, math.nextafter(25.0, 30.0), 24.9, 25.1]
    # psi(1) = -gamma, the root of psi and both sides of the recurrence's end
    X_EDGES = [1.0, 1.4616321449683623, math.nextafter(10.0, 0.0), 10.0, 10.5]

    def test_bessel_against_mpmath(self):
        for u in [*np.geomspace(1e-6, 1e4, 81), *self.U_EDGES]:
            got = numerics.log_i0_and_ratio(float(u))
            ref = oracles.log_i0_and_ratio_mpmath(float(u))
            for g, r in zip(got, ref):
                assert _special_error(g, r) <= SPECIAL_TOL, (u, g, r)

    def test_bessel_at_zero(self):
        assert numerics.log_i0_and_ratio(0.0) == (0.0, 0.0)

    @pytest.mark.parametrize("order", [0, 1])
    def test_polygamma_against_mpmath(self, order):
        kernel = (numerics.digamma, numerics.trigamma)[order]
        for x in [*np.geomspace(1e-3, 1e4, 81), *self.X_EDGES]:
            got, ref = kernel(float(x)), oracles.polygamma_mpmath(order, float(x))
            assert _special_error(got, ref) <= SPECIAL_TOL, (x, got, ref)

    def test_stirlerr_against_mpmath(self):
        # every k >= 1 the F window starts at: both sides of the switch to
        # the series at 15, and on to the term budget
        ks = {*range(1, 40), *np.geomspace(40, numerics._MAX_TERMS, 60).round()}
        for k in sorted(ks):
            got, ref = numerics.stirlerr(float(k)), oracles.stirlerr_mpmath(int(k))
            assert abs(got - ref) <= 1e-13, (k, got, ref)


def _poisson_log_terms(lam: float):
    log_lam = math.log(lam)
    k = 0
    while True:
        yield k * log_lam - math.lgamma(k + 1.0)
        k += 1


class TestSumSeries:
    def test_finite_sum_exact(self):
        terms = [1.0, 2.0, 3.0]
        got = sum_series(iter(math.log(v) for v in terms))
        assert got == pytest.approx(math.fsum(terms), rel=1e-15)

    def test_geometric(self):
        log_half = math.log(0.5)
        got = sum_series(k * log_half for k in range(10_000))
        assert got == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0, 100.0])
    def test_poisson_normalizer(self, lam):
        assert sum_series(_poisson_log_terms(lam)) == pytest.approx(
            math.exp(lam), rel=1e-13
        )

    def test_log_domain_beyond_overflow(self):
        lam = 800.0
        assert sum_series(_poisson_log_terms(lam)) == math.inf
        assert log_sum_series(_poisson_log_terms(lam)) == pytest.approx(
            lam, rel=1e-12
        )

    def test_empty_and_degenerate(self):
        assert sum_series(iter([])) == 0.0
        assert sum_series(iter([-math.inf, -math.inf])) == 0.0

    def test_exp_or_inf_cutoff(self):
        # the cutoff sits just below ln(DBL_MAX) = 709.7827, where exp is
        # still finite
        assert exp_or_inf(709.7) == math.exp(709.7)
        assert exp_or_inf(709.78) == math.inf
        assert exp_or_inf(-math.inf) == 0.0

    def test_divergence_detected(self, monkeypatch):
        def flat():
            while True:
                yield 0.0

        monkeypatch.setattr(numerics, "_MAX_TERMS", 1000)
        with pytest.raises(SeriesDivergenceError):
            sum_series(flat())

    def test_growing_terms_detected(self, monkeypatch):
        def growing():
            k = 0
            while True:
                yield 0.1 * k
                k += 1

        monkeypatch.setattr(numerics, "_MAX_TERMS", 1000)
        with pytest.raises(SeriesDivergenceError):
            sum_series(growing())


def _poisson_rows(lams, ranges=None):
    """Chunk function of Poisson log terms, one row per rate; records ranges."""
    log_lams = np.log(np.asarray(lams, dtype=float))[:, None]

    def chunk(k0, k1):
        if ranges is not None:
            ranges.append((k0, k1))
        k = np.arange(k0, k1, dtype=float)
        return k * log_lams - special.gammaln(k + 1.0)

    return chunk


class TestLogSumRows:
    def test_poisson_normalizers(self):
        # sum_k lam^k / k! = e^lam, also far beyond float range; the Poisson
        # mode is floor(lam)
        for lam in [0.1, 1.0, 10.0, 100.0, 800.0, 5000.0, 2e5]:
            ranges = []
            (got,) = log_sum_rows(_poisson_rows([lam], ranges), lam, lam)
            assert got == pytest.approx(lam, rel=1e-13)
            assert len(ranges) == 1  # a right mode needs one pass
            k0, k1 = ranges[0]
            h = 8 + math.ceil(9.0 * math.sqrt(2.0 * math.ceil(lam) + 2.0))
            assert (k0, k1) == (max(0, math.floor(lam) - h), math.ceil(lam) + h + 1)

    def test_matches_scalar_summator(self):
        for lam in [0.5, 30.0, 400.0]:
            (got,) = log_sum_rows(_poisson_rows([lam]), lam, lam)
            assert got == pytest.approx(
                log_sum_series(_poisson_log_terms(lam)), rel=1e-14
            )

    @pytest.mark.parametrize("guess", [0.0, 20.0, 2900.0, 6000.0, 50_000.0])
    def test_poor_mode_guess_costs_passes_not_accuracy(self, guess):
        ranges = []
        (got,) = log_sum_rows(_poisson_rows([3000.0], ranges), guess, guess)
        assert got == pytest.approx(3000.0, rel=1e-13)
        if guess in (0.0, 50_000.0):
            assert len(ranges) > 1

    def test_rows_stop_together_past_every_mode(self):
        ranges = []
        got = log_sum_rows(_poisson_rows([1.0, 3000.0, 1e5], ranges), 1.0, 1e5)
        # one window spans every row's mode, so the row with its mode near
        # 1 is summed over it too
        assert got == pytest.approx([1.0, 3000.0, 1e5], rel=1e-13)
        assert ranges[0][0] == 0
        assert ranges[-1][1] > 1e5 + 9 * math.sqrt(1e5)

    @pytest.mark.parametrize("rows,top", [(1, 4e4), (3, 4e4), (512, 4e4), (20_000, 1.0)])
    def test_blocks_stay_under_the_cell_cap(self, rows, top):
        ranges = []
        lams = np.geomspace(1e-3, top, rows)
        got = log_sum_rows(_poisson_rows(lams, ranges), 1e-3, top, rows=rows)
        assert got == pytest.approx(lams, rel=1e-13)
        # the window is cut into contiguous blocks at least two terms wide,
        # and each holds at most 16384 cells while two-term blocks fit
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        widths = [k1 - k0 for k0, k1 in ranges]
        assert min(widths) >= 2
        assert max(rows * w for w in widths) <= max(16384, 3 * rows)

    def test_divergence_message_names_mode_and_tolerance(self, monkeypatch):
        # a window that doubles past the budget without meeting the bound
        monkeypatch.setattr(numerics, "_MAX_TERMS", 1000)
        growing = lambda k0, k1: 0.1 * np.arange(k0, k1, dtype=float)[None, :]
        message = "no truncation after 1000 terms (terms peak at k = 2.5, rel_tol 1e-14)"
        with pytest.raises(SeriesDivergenceError, match=re.escape(message)):
            log_sum_rows(growing, 0.0, 2.5)

    # the largest mode whose first window, 8 + ceil(9 sqrt(2 mode + 2)) terms
    # past it, stays under term 10^6 is 987_343; an F row of mode 988_417
    @pytest.mark.parametrize(
        "mode", [987_343.5, 988_417.0, 999_990.0, 1e7, math.inf, math.nan]
    )
    def test_window_past_the_budget_raises_before_summing(self, mode):
        ranges = []
        with pytest.raises(SeriesDivergenceError, match="no truncation after 1000000"):
            log_sum_rows(_poisson_rows([1e6] * 512, ranges), mode, mode, rows=512)
        assert ranges == []

    def test_budget_is_decided_from_the_mode(self):
        hi = 987_343
        assert hi + 8 + math.ceil(9.0 * math.sqrt(2.0 * hi + 2.0)) == 999_999
        numerics._check_budget(float(hi))
        message = "(terms peak at k = 987343, rel_tol 1e-14)"
        with pytest.raises(SeriesDivergenceError, match=re.escape(message)):
            numerics._check_budget(hi + 1e-6)


class TestFindRootIncreasing:
    def test_cosh_example(self):
        root = find_root_increasing(math.cosh, 171.0, 1.0, lo=0.0)
        assert root == pytest.approx(math.acosh(171.0), rel=1e-12)

    def test_square_from_hint(self):
        root = find_root_increasing(lambda x: x * x, 4.0, 1.0, lo=0.0)
        assert root == pytest.approx(2.0, rel=1e-12)

    def test_walks_far_up(self):
        root = find_root_increasing(lambda x: x * x, 1e16, 1.0, lo=0.0)
        assert root == pytest.approx(1e8, rel=1e-10)

    def test_target_below_range(self):
        with pytest.raises(RootRangeError):
            find_root_increasing(lambda x: x * x, -1.0, 1.0, lo=0.0)

    def test_target_above_bounded_function(self):
        # tanh never reaches 2 on an unbounded domain
        with pytest.raises(RootRangeError):
            find_root_increasing(math.tanh, 2.0, 1.0)

    def test_finite_upper_bound_approach(self):
        f = lambda t: 1.0 / (1.0 - t)
        root = find_root_increasing(f, 1e6, 0.5, lo=0.0, hi=1.0)
        assert root == pytest.approx(1.0 - 1e-6, rel=1e-9)

    def test_finite_bound_without_crossing(self):
        with pytest.raises(RootBracketError):
            find_root_increasing(lambda t: t, 5.0, 0.5, lo=0.0, hi=1.0)

    def test_residual_contract(self):
        target = 123.456
        root = find_root_increasing(math.exp, target, 1.0)
        assert abs(math.exp(root) - target) <= 1e-10 * (1.0 + abs(target))

    def test_hint_validation(self):
        with pytest.raises(ValueError):
            find_root_increasing(math.exp, 2.0, math.nan)
        with pytest.raises(ValueError):
            find_root_increasing(math.exp, 2.0, 5.0, lo=1.0, hi=2.0)
        # a zero hint gives the walk no scale to step by
        with pytest.raises(ValueError, match="nonzero"):
            find_root_increasing(math.exp, 2.0, 0.0, lo=-math.inf)

    @pytest.mark.parametrize("s", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize(
        "f,target,hint,lo,hi,root",
        [
            # up toward an infinite boundary, down toward a finite one
            (lambda x: x**3, 8.0, 0.01, 0.0, math.inf, 2.0),
            (lambda x: x**3, 8.0, 100.0, 0.0, math.inf, 2.0),
            # down toward an infinite boundary
            (lambda x: x, -5.0, 1.0, -math.inf, math.inf, -5.0),
            # up toward a finite boundary
            (lambda x: x / (1.0 - x), 1e3, 0.5, 0.0, 1.0, 1e3 / 1001.0),
        ],
    )
    def test_roots_in_any_unit(self, s, f, target, hint, lo, hi, root):
        # the same problem with x measured in units of 1 / s: the walk and
        # the polish take no absolute step, so the root scales with s
        got = find_root_increasing(
            lambda x: f(x / s), target, hint * s, lo=lo * s, hi=hi * s
        )
        assert got == pytest.approx(root * s, rel=4e-15, abs=0.0)

    @pytest.mark.parametrize(
        "target,lo,hi,error",
        [(5.0, 0.0, 1.0, RootBracketError), (0.0, 1.0, 2.0, RootRangeError)],
    )
    def test_never_evaluates_on_a_finite_boundary(self, target, lo, hi, error):
        # halving the gap to a boundary rounds onto it after about 53 steps;
        # the walk must stop there instead of calling f outside (lo, hi)
        calls = []

        def f(t):
            calls.append(t)
            return t

        with pytest.raises(error):
            find_root_increasing(f, target, 0.5 * (lo + hi), lo=lo, hi=hi)
        assert len(calls) > 50
        assert all(lo < t < hi for t in calls)


# increasing shapes with their sign change at u = 0; "stairs" is flat between
# jumps, so Brent meets equal function values and divides by zero
_SHAPES = {
    "cubic": lambda u, k: u**3 + k * u,
    "sinh": lambda u, k: math.sinh(max(-700.0, min(700.0, k * u))),
    "expm1": lambda u, k: math.expm1(min(700.0, k * u)),
    "atan": lambda u, k: math.atan(k * u),
    "stairs": lambda u, k: math.floor(k * u) + 0.5,
}


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


def _recorded(f, calls):
    def g(x):
        calls.append(x)
        return f(x)

    return g


class TestBrentq:
    """_brentq against scipy.optimize.brentq, the code it ports."""

    @settings(max_examples=400)
    @given(
        shape=st.sampled_from(sorted(_SHAPES)),
        root=st.floats(-1e3, 1e3),
        k=_log_uniform(1e-3, 1e2),
        scale=_log_uniform(1e-300, 1e300),
        below=_log_uniform(1e-9, 1e3),
        above=_log_uniform(1e-9, 1e3),
        xtol=st.sampled_from([math.ulp(0.0), 1e-14, 2e-12, 1e-6]),
        rtol=st.sampled_from([_BRENT_RTOL, 1e-10]),
    )
    # function values near 1e-300 underflow in the step formulas
    @example("sinh", 2275.8512759919117, 0.58116, 7.08e-178, 7.06, 371.7, 1e-14, _BRENT_RTOL)
    @example("stairs", 0.3, 2.0, 1.0, 10.0, 10.0, 1e-14, _BRENT_RTOL)
    @example("stairs", 0.0, 1.0, 1.0, 1.0, 1.0, math.ulp(0.0), _BRENT_RTOL)
    def test_bit_identical_to_scipy(
        self, shape, root, k, scale, below, above, xtol, rtol
    ):
        f = lambda x: scale * _SHAPES[shape](x - root, k)
        a, b = root - below, root + above
        ours, theirs = [], []
        try:
            expected = optimize.brentq(
                _recorded(f, theirs), a, b, xtol=xtol, rtol=rtol, maxiter=300
            )
        except RuntimeError:
            # a root at 0 with no absolute tolerance is approached by
            # relative steps only: both run out of iterations
            with pytest.raises(RootBracketError, match="did not converge"):
                _brentq(_recorded(f, ours), a, b, xtol, rtol, 300)
        else:
            assert _brentq(_recorded(f, ours), a, b, xtol, rtol, 300) == expected
        assert ours == theirs

    def test_zero_at_an_end_returns_that_end(self):
        f = lambda x: x - 1.0
        for a, b in [(1.0, 3.0), (-2.0, 1.0)]:
            got = _brentq(f, a, b, 1e-14, _BRENT_RTOL, 300)
            assert got == 1.0
            assert got == optimize.brentq(f, a, b, xtol=1e-14, rtol=_BRENT_RTOL)

    def test_same_sign_is_an_error(self):
        f = lambda x: x * x + 1.0
        with pytest.raises(ValueError, match="different signs"):
            _brentq(f, -1.0, 2.0, 1e-14, _BRENT_RTOL, 300)
        with pytest.raises(ValueError, match="different signs"):
            optimize.brentq(f, -1.0, 2.0, xtol=1e-14, rtol=_BRENT_RTOL)

    def test_iteration_budget_is_a_typed_failure(self):
        # the cube root of 2 takes several steps from [0, 2]
        f = lambda x: x**3 - 2.0
        with pytest.raises(RootBracketError, match="did not converge in 1 iterations"):
            _brentq(f, 0.0, 2.0, 1e-14, _BRENT_RTOL, 1)
        assert _brentq(f, 0.0, 2.0, 1e-14, _BRENT_RTOL, 300) == pytest.approx(
            2.0 ** (1.0 / 3.0), rel=1e-15
        )

    def test_nan_is_an_error(self):
        with pytest.raises(ValueError, match="NaN"):
            _brentq(lambda x: math.nan, 0.0, 1.0, 1e-14, _BRENT_RTOL, 300)
