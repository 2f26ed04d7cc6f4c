import math

import pytest
from scipy import optimize, special

import oracles
from pfdr_sizer.f_test import (
    FEffect,
    log_lr_sup_f,
    lr_sup_f,
    m_p,
    plan_f,
    quadratic_root_n,
)
from pfdr_sizer.pfdr_core import PfdrTarget


class TestLrSupF:
    def test_vanishing_noncentrality(self):
        assert lr_sup_f(3, 10, 1e-9) == pytest.approx(1.0, abs=1e-6)
        assert lr_sup_f(3, 10, 0.0) == 1.0

    def test_large_p_collapses_to_power_law(self):
        # (1 + delta^2)^(n/2) with n = 5, delta = 1: 2^(5/2)
        assert lr_sup_f(2000, 5, 1.0) == pytest.approx(2.0**2.5, rel=2e-2)

    def test_brute_force_point(self):
        assert lr_sup_f(2, 7, 0.5) == pytest.approx(
            oracles.brute_force_lr_f(2, 7, 0.5), rel=1e-6
        )

    @pytest.mark.parametrize("p,n", [(1, 4), (3, 9), (8, 2)])
    def test_brute_force_small_grid(self, p, n):
        for delta in [0.2, 0.7]:
            assert lr_sup_f(p, n, delta) == pytest.approx(
                oracles.brute_force_lr_f(p, n, delta), rel=1e-6
            )

    def test_increasing_in_delta_and_n(self):
        by_delta = [lr_sup_f(4, 6, d) for d in [0.1, 0.3, 0.6, 1.0]]
        assert all(a < b for a, b in zip(by_delta, by_delta[1:]))
        by_n = [lr_sup_f(4, n, 0.5) for n in [2, 5, 12, 30]]
        assert all(a < b for a, b in zip(by_n, by_n[1:]))

    def test_crude_exponential_bound(self):
        for p, n, delta in [(2, 5, 0.3), (6, 10, 0.8), (1, 3, 1.5)]:
            bound = math.exp(0.5 * (n + p) ** 2 * delta * delta)
            assert lr_sup_f(p, n, delta) <= bound

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_small_delta_limit_transform(self, p, a):
        # along n delta = a with delta -> 0 the sup approaches m_p(p, a)
        delta = 1e-3
        n = round(a / delta)
        assert lr_sup_f(p, n, delta) == pytest.approx(m_p(p, a), rel=0.05)

    def test_log_variant(self):
        assert log_lr_sup_f(2, 7, 0.5) == pytest.approx(
            math.log(lr_sup_f(2, 7, 0.5)), rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            lr_sup_f(0, 5, 0.5)
        with pytest.raises(ValueError):
            lr_sup_f(2, 0, 0.5)
        with pytest.raises(ValueError):
            lr_sup_f(2, 5, -0.5)


class TestMp:
    def test_at_zero(self):
        assert m_p(5, 0.0) == 1.0

    def test_one_dimension_is_cosh(self):
        assert m_p(1, 2.0) == pytest.approx(math.cosh(2.0), rel=1e-12)

    def test_two_dimensions_is_bessel(self):
        # m_p evaluates I0 itself at p = 2, so the reference is a quadrature
        expected = math.exp(oracles.log_i0_quadrature(3.0))
        assert m_p(2, 3.0) == pytest.approx(expected, rel=1e-12)

    def test_direct_sum_point(self):
        assert m_p(4, 3.0) == pytest.approx(oracles.m_p_direct(4, 3.0), rel=1e-13)

    def test_even(self):
        assert m_p(3, -2.0) == m_p(3, 2.0)

    def test_increasing(self):
        vals = [m_p(3, t) for t in [0.5, 1.0, 2.0, 4.0]]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestQuadraticRoot:
    def test_small_dispersion_limit(self):
        # delta^2 p -> 0: the root behaves like sqrt(2 p a) / delta
        p, a = 1_000_000, math.log(171.0)
        delta = math.sqrt(1e-4 / p)
        expected = math.sqrt(2.0 * p * a) / delta
        assert quadratic_root_n(p, delta, a) == pytest.approx(expected, rel=1e-2)

    def test_large_dispersion_limit(self):
        # delta^2 p -> inf: the root behaves like 2 a / delta^2
        p, a = 100, math.log(171.0)
        delta = math.sqrt(1e4 / p)
        assert quadratic_root_n(p, delta, a) == pytest.approx(
            2.0 * a / delta**2, rel=1e-2
        )

    def test_solves_its_quadratic(self):
        # n is the positive root of delta^2 n^2 + delta^2 p n = 2 a p
        p, delta, a = 7, 0.3, math.log(171.0)
        n = quadratic_root_n(p, delta, a)
        assert delta**2 * n * n + delta**2 * p * n == pytest.approx(
            2.0 * a * p, rel=1e-12
        )


class TestPlanF:
    def test_high_dimensional_example(self):
        report = plan_f(PfdrTarget(alpha=0.05, pi=0.1), FEffect(delta=1.0, p=10_000))
        assert report.n_exact == 15
        assert report.n_asymptotic == 15.0
        assert report.regime == "f-log-power"
        # the exact crossing really is at 15 for these arguments
        assert lr_sup_f(10_000, 15, 1.0) >= 171.0 > lr_sup_f(10_000, 14, 1.0)

    def test_small_effect_low_dimension_example(self):
        report = plan_f(PfdrTarget(alpha=0.05, pi=0.1), FEffect(delta=0.01, p=2))
        # rate = inverse of the limit transform at Q, scaled by 1/delta
        t_star = optimize.brentq(
            lambda t: float(special.i0(t)) - 171.0, 1.0, 20.0, xtol=1e-12
        )
        assert report.regime == "f-mgf-inversion"
        assert report.n_asymptotic == pytest.approx(t_star / 0.01, rel=1e-9)

    def test_mid_regime_uses_quadratic(self):
        report = plan_f(PfdrTarget(alpha=0.05, pi=0.1), FEffect(delta=0.5, p=10))
        assert report.regime == "f-quadratic-root"
        assert report.n_asymptotic == pytest.approx(
            quadratic_root_n(10, 0.5, math.log(171.0)), rel=1e-12
        )

    def test_trivial_target(self):
        report = plan_f(PfdrTarget(alpha=0.5, pi=0.5), FEffect(delta=0.5, p=3))
        assert report.n_exact == 1
        assert report.n_asymptotic == 1.0

    def test_all_three_rates_reported(self):
        report = plan_f(PfdrTarget(alpha=0.05, pi=0.1), FEffect(delta=0.5, p=10))
        d = report.diagnostics
        for key in ("n_mgf_inversion", "n_quadratic_root", "n_log_power"):
            assert key in d and d[key] >= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FEffect(delta=-0.1, p=3)
        with pytest.raises(ValueError):
            FEffect(delta=0.5, p=0)
