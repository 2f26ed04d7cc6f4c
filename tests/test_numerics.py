import math

import numpy as np
import pytest

import oracles
from pfdr_sizer.ldp_engine import cauchy_score_model, gamma_score_model
from pfdr_sizer.numerics import (
    DEFAULT_SERIES_POLICY,
    RootBracketError,
    RootRangeError,
    SeriesDivergenceError,
    SeriesPolicy,
    digamma,
    find_root_increasing,
    log_sum_series,
    sum_series,
)


def log_gamma(x: float) -> float:
    # the gamma-score cgf is ln Gamma(1 + t) + EULER_GAMMA t on t > -1
    t = x - 1.0
    return gamma_score_model().cgf.lambda_fn(t) - oracles.EULER_GAMMA * t


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

    def test_divergence_detected(self):
        def flat():
            while True:
                yield 0.0

        policy = SeriesPolicy(rel_tol=1e-14, max_terms=1000)
        with pytest.raises(SeriesDivergenceError):
            sum_series(flat(), policy=policy)

    def test_growing_terms_detected(self):
        def growing():
            k = 0
            while True:
                yield 0.1 * k
                k += 1

        policy = SeriesPolicy(rel_tol=1e-14, max_terms=1000)
        with pytest.raises(SeriesDivergenceError):
            sum_series(growing(), policy=policy)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SeriesPolicy(rel_tol=0.0)
        with pytest.raises(ValueError):
            SeriesPolicy(rel_tol=1e-5)
        with pytest.raises(ValueError):
            SeriesPolicy(max_terms=999)
        # boundary values are allowed
        SeriesPolicy(rel_tol=1e-6, max_terms=1000)
        assert DEFAULT_SERIES_POLICY.rel_tol == 1e-14


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
