import math
import re

import pytest
from scipy import optimize, special

import oracles
from pfdr_sizer import f_test, numerics
from pfdr_sizer.f_test import (
    FEffect,
    _log_m_p,
    log_lr_sup_f,
    lr_sup_f,
    m_p,
    plan_f,
    quadratic_root_n,
)
from pfdr_sizer.numerics import SeriesDivergenceError
from pfdr_sizer.pfdr_core import PfdrTarget


class TestLrSupF:
    # mode 988_417 at delta 703: its first window passes term 10^6
    @pytest.mark.parametrize("delta", [703.0, 2000.0, 1e300])
    def test_mode_past_the_budget_raises_at_once(self, monkeypatch, delta):
        # the error is raised from the mode before any chunk, so the shared
        # log-factorial table is not built to 10^6 entries
        p, n = 3, 1
        a = 0.5 * (n + p) * delta * delta
        mode = f_test._f_mode(p, n, a)
        monkeypatch.setattr(numerics, "_log_factorial_table", ())
        message = (
            f"no truncation after 1000000 terms (terms peak at k = {mode:.6g}, "
            "rel_tol 1e-14)"
        )
        with pytest.raises(SeriesDivergenceError, match=re.escape(message)):
            log_lr_sup_f(p, n, delta)
        assert len(numerics._log_factorial_table) == 0

    def test_vanishing_noncentrality(self):
        assert lr_sup_f(3, 10, 1e-9) == pytest.approx(1.0, abs=1e-6)
        assert lr_sup_f(3, 10, 0.0) == 1.0

    def test_underflowing_noncentrality(self):
        # A = (n + p) delta^2 / 2 underflows to 0, where K = 1 exactly
        assert lr_sup_f(3, 5, 1e-300) == 1.0
        assert log_lr_sup_f(3, 5, 1e-300) == 0.0

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


# dimensions of the mpmath checks of m_p, up to where 0F1's parameter is
# far larger than its argument's square root
MP_DIMENSIONS = [1, 2, 3, 10, 1000, 100_000, 3_000_000]


class TestMp:
    def test_at_zero(self):
        assert m_p(5, 0.0) == 1.0

    def test_one_dimension_is_cosh(self):
        assert m_p(1, 2.0) == pytest.approx(math.cosh(2.0), rel=1e-12)

    def test_two_dimensions_is_bessel(self):
        # the reference is a quadrature, not a series like the one m_p sums
        expected = math.exp(oracles.log_i0_quadrature(3.0))
        assert m_p(2, 3.0) == pytest.approx(expected, rel=1e-12)

    def test_direct_sum_point(self):
        assert m_p(4, 3.0) == pytest.approx(oracles.m_p_direct(4, 3.0), rel=1e-13)

    def test_even(self):
        assert m_p(3, -2.0) == m_p(3, 2.0)

    def test_increasing(self):
        vals = [m_p(3, t) for t in [0.5, 1.0, 2.0, 4.0]]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("p", MP_DIMENSIONS)
    def test_log_against_hypergeometric(self, p):
        # 40 log-spaced t from log M near 1e-12 to past 700; those with log M
        # in [1e-12, 700] are checked, relative to log M itself
        lo, hi = math.sqrt(2e-12 * p), 2.0 * max(710.0, math.sqrt(1420.0 * p))
        checked = 0
        for i in range(40):
            t = lo * (hi / lo) ** (i / 39)
            ref = oracles.log_m_p_hyp0f1(p, t)
            if 1e-12 <= ref <= 700.0:
                assert _log_m_p(p, t) == pytest.approx(ref, rel=1e-13, abs=0.0)
                checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("p", MP_DIMENSIONS)
    def test_log_past_float_range_against_hypergeometric(self, p):
        # log M from 700 to 3000, where the sum moves to lower scales
        lo = 0.8 * max(700.0, math.sqrt(1400.0 * p))
        hi = 1.25 * max(3000.0, math.sqrt(6000.0 * p))
        checked = 0
        for i in range(16):
            t = lo * (hi / lo) ** (i / 15)
            ref = oracles.log_m_p_hyp0f1(p, t)
            if 700.0 <= ref <= 3000.0:
                assert _log_m_p(p, t) == pytest.approx(ref, rel=1e-13, abs=0.0)
                checked += 1
        assert checked >= 5

    def test_mode_past_the_budget(self):
        # log M_p raises at once; M_p itself is past float range there
        for t in (3e6, 1e100, math.inf):
            with pytest.raises(SeriesDivergenceError, match="no truncation after"):
                _log_m_p(3, t)
            assert m_p(3, t) == math.inf
        with pytest.raises(ValueError):
            m_p(3, math.nan)

    @pytest.mark.parametrize("p", MP_DIMENSIONS)
    def test_inf_exactly_past_float_range(self, p):
        # bisect t to 1e-12 around the 50-digit crossing log M = 709.78,
        # exp_or_inf's cutoff; log M moves by about 1e-9 across that bracket
        a, b = 1.0, 2.0 * max(720.0, math.sqrt(1440.0 * p))
        assert oracles.log_m_p_hyp0f1(p, b) >= 709.78
        while b / a - 1.0 > 1e-12:
            mid = math.sqrt(a * b)
            if oracles.log_m_p_hyp0f1(p, mid) < 709.78:
                a = mid
            else:
                b = mid
        assert 1e308 < m_p(p, a) < math.inf
        assert m_p(p, b) == math.inf


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

    @pytest.mark.parametrize("p", [3, 100])
    def test_q_beyond_float_range_plans(self, p):
        # Q overflows and ln Q = 739.77 does not: the search decides on ln Q,
        # and the mgf inversion solves log M_p(t) = ln Q past float range
        target = PfdrTarget(alpha=0.05, pi=1e-320)
        report = plan_f(target, FEffect(delta=1.0, p=p))
        n, log_q = report.n_exact, target.log_q()
        assert log_lr_sup_f(p, n, 1.0) >= log_q > log_lr_sup_f(p, n - 1, 1.0)
        assert report.q_value == math.inf
        t_star = report.diagnostics["n_mgf_inversion"]
        assert oracles.log_m_p_hyp0f1(p, t_star) == pytest.approx(log_q, rel=1e-12)

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
        # past 2^53 a float cannot tell p from p + 1; 10^400 is past float range
        for p in (2**53 + 1, 10**400):
            with pytest.raises(ValueError, match="p must be at most 2\\^53"):
                FEffect(delta=0.5, p=p)
        assert FEffect(delta=0.5, p=2**53).p == 2**53
