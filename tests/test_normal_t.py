import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import optimize, stats

import oracles
from pfdr_sizer import normal_t, numerics
from pfdr_sizer.normal_t import (
    MAX_MIXTURE_ATOMS,
    SnrEffect,
    SnrMixture,
    log_lr_sup_t,
    lr_sup_t,
    lr_sup_t_mixture,
    plan_t,
    plan_t_mixture,
)
from pfdr_sizer.numerics import SeriesDivergenceError
from pfdr_sizer.pfdr_core import NotAttainableError, PfdrTarget

EPS = sys.float_info.epsilon


class TestLrSupT:
    def test_oracle_self_check(self):
        # the test oracle's finite-x ratio must agree with scipy's noncentral
        # t density ratio before we lean on it
        n, r, x = 6, 0.4, 5.0
        d = math.sqrt(n + 1.0) * r
        via_scipy = math.exp(stats.nct.logpdf(x, n, d) - stats.t.logpdf(x, n))
        assert oracles.lr_t_at_x(n, r, x) == pytest.approx(via_scipy, rel=1e-10)

    @pytest.mark.parametrize("n", [1, 3, 6, 15, 30])
    @pytest.mark.parametrize("r", [0.05, 0.2, 0.5, 1.0])
    def test_brute_force_grid(self, n, r):
        assert lr_sup_t(n, r) == pytest.approx(
            oracles.brute_force_lr_t(n, r), rel=1e-6
        )

    def test_zero_effect(self):
        assert lr_sup_t(5, 0.0) == 1.0

    def test_increasing_in_r(self):
        vals = [lr_sup_t(10, r) for r in [0.1, 0.2, 0.4, 0.8]]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_increasing_in_n(self):
        vals = [lr_sup_t(n, 0.3) for n in [2, 5, 20, 80]]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_small_r_near_one(self):
        assert lr_sup_t(8, 1e-8) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_exponential_rate_limit(self, a):
        # along r = a/n the sup tends to e^a, with error falling like 1/n
        errs = []
        for n in [100, 1000, 10_000]:
            rel = abs(lr_sup_t(n, a / n) / math.exp(a) - 1.0)
            assert rel < 10.0 / n
            errs.append(rel)
        assert errs[0] > errs[1] > errs[2]

    def test_log_variant_consistent(self):
        for n, r in [(5, 0.3), (50, 0.2), (200, 0.1)]:
            assert log_lr_sup_t(n, r) == pytest.approx(
                math.log(lr_sup_t(n, r)), rel=1e-12
            )

    def test_log_variant_survives_overflow(self):
        log_val = log_lr_sup_t(10_000, 1.0)
        assert math.isfinite(log_val)
        assert log_val > 700.0
        assert lr_sup_t(10_000, 1.0) == math.inf

    # d^2 = 2 r^2 at n = 1: a mode past the budget, or d^2 overflowing,
    # raises before any term is summed, and so does mode 994_896, whose
    # first window of 8 + ceil(9 sqrt(2 mode + 2)) terms past it passes
    # term 10^6
    @pytest.mark.parametrize("r", [705.3, 1e3, 1e160, 1e300])
    def test_mode_past_the_budget_raises_at_once(self, r, monkeypatch):
        def no_pairs(x):
            raise AssertionError("summed a term past the budget")

        monkeypatch.setattr(normal_t, "_gamma_half_ratio", no_pairs)
        with pytest.raises(SeriesDivergenceError, match="no truncation after 1000000 terms"):
            log_lr_sup_t(1, r)

    def test_budget_reached_while_summing(self, monkeypatch):
        # mode near 900, whose first window reaches past term 1000
        monkeypatch.setattr(numerics, "_MAX_TERMS", 1000)
        monkeypatch.setattr(normal_t, "_MAX_TERMS", 1000)
        with pytest.raises(SeriesDivergenceError, match="no truncation after 1000 terms"):
            log_lr_sup_t(1, 21.2)
        assert math.isfinite(log_lr_sup_t(1, 10.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            lr_sup_t(0, 0.5)
        with pytest.raises(ValueError):
            lr_sup_t(5, -0.1)


@given(
    x=st.one_of(
        st.integers(1, 2 * 10**7).map(lambda n: 0.5 * (n + 1)),
        st.floats(0.0, 7.0).map(lambda e: 10.0**e),
    )
)
@example(x=15.727826798370957)  # math.gamma's ratio 23 ulp off
@example(x=30.0)
@example(x=5e5)
def test_gamma_half_ratio_against_mpmath(x):
    # the t series' first odd term rests on Gamma(x + 1/2) / Gamma(x), x = (n + 1)/2
    with mpmath.workdps(50):
        expected = float(mpmath.gamma(mpmath.mpf(x) + 0.5) / mpmath.gamma(x))
    assert abs(normal_t._gamma_half_ratio(x) - expected) <= 32.0 * EPS * expected


class TestPlanT:
    def test_headline_example(self):
        report = plan_t(PfdrTarget(alpha=0.05, pi=0.1), SnrEffect(r=0.01))
        assert report.n_exact == 515
        assert report.n_asymptotic == pytest.approx(
            math.log(171.0) / 0.01, rel=1e-10
        )
        assert abs(report.n_exact - report.n_asymptotic) / report.n_asymptotic < 0.1
        assert report.regime == "t-snr-rate"
        assert report.q_value == pytest.approx(171.0, rel=1e-12)
        assert report.diagnostics["snr"] == 0.01

    def test_trivial_target(self):
        # Q = 1 is met by any statistic at a single degree of freedom
        report = plan_t(PfdrTarget(alpha=0.5, pi=0.5), SnrEffect(r=0.3))
        assert report.n_exact == 1
        assert report.n_asymptotic == pytest.approx(1.0)

    def test_exact_is_crossing_point(self):
        target = PfdrTarget(alpha=0.05, pi=0.3)
        report = plan_t(target, SnrEffect(r=0.2))
        n = report.n_exact
        assert lr_sup_t(n, 0.2) >= target.q()
        assert lr_sup_t(n - 1, 0.2) < target.q()

    def test_not_attainable_under_ceiling(self):
        with pytest.raises(NotAttainableError):
            plan_t(PfdrTarget(alpha=0.05, pi=0.1), SnrEffect(r=1e-4), n_max=1000)

    def test_q_beyond_float_range_plans(self):
        # Q overflows and ln Q = 739.77 does not: both plans decide on ln Q
        target = PfdrTarget(alpha=0.05, pi=1e-320)
        log_q = target.log_q()
        assert log_lr_sup_t(936, 1.0) >= log_q > log_lr_sup_t(935, 1.0)
        point_mass = SnrMixture(atoms=((1.0, 1.0),))
        for report in (plan_t(target, SnrEffect(r=1.0)), plan_t_mixture(target, point_mass)):
            assert report.n_exact == 936
            assert report.q_value == math.inf
            assert report.diagnostics["log_q"] == log_q
            assert report.n_asymptotic == pytest.approx(log_q, rel=1e-12)


class TestMixture:
    def test_point_mass_matches_single_effect(self):
        target = PfdrTarget(alpha=0.05, pi=0.1)
        single = plan_t(target, SnrEffect(r=0.01))
        mixed = plan_t_mixture(target, SnrMixture(((1.0, 1.0),), 0.01))
        assert mixed.n_exact == single.n_exact
        assert mixed.n_asymptotic == pytest.approx(single.n_asymptotic, rel=1e-12)

    def test_two_atom_curve_is_average(self):
        mix = SnrMixture(atoms=((0.1, 0.5), (0.3, 0.5)))
        for n in [2, 10, 40]:
            expected = 0.5 * lr_sup_t(n, 0.1) + 0.5 * lr_sup_t(n, 0.3)
            assert lr_sup_t_mixture(n, mix) == pytest.approx(expected, rel=1e-12)

    def test_two_atom_rate_solves_moment_equation(self):
        # 0.5 e^a + 0.5 e^{2a} = 171 pins the asymptotic rate
        target = PfdrTarget(alpha=0.05, pi=0.1)
        mix = SnrMixture(atoms=((1.0, 0.5), (2.0, 0.5)), scale=0.01)
        report = plan_t_mixture(target, mix)
        a_star = optimize.brentq(
            lambda a: 0.5 * math.exp(a) + 0.5 * math.exp(2.0 * a) - 171.0,
            0.0,
            10.0,
            xtol=1e-13,
        )
        assert report.diagnostics["mgf_rate"] == pytest.approx(a_star, rel=1e-10)
        assert report.n_asymptotic == pytest.approx(a_star / 0.01, rel=1e-10)
        assert report.regime == "t-mixture-mgf"
        assert report.notes  # convention note travels with the report

    def test_gamma_prior_matches_its_moment_transform(self):
        # effects drawn from Gamma(shape 2, scale 1/2), discretized on
        # Gauss-Laguerre nodes: with R = u / 2 the prior is u e^-u du, so
        # atom i sits at u_i / 2 with weight w_i u_i (which sum to 1); at
        # n * scale = 1 the mixture curve approaches E exp(R) = 4
        u, w = np.polynomial.laguerre.laggauss(40)
        mass = w * u / (w * u).sum()
        mix = SnrMixture(tuple(zip(u / 2.0, mass)), scale=1e-3)
        got = lr_sup_t_mixture(1000, mix)
        assert got == pytest.approx(4.0, rel=0.02)

    @pytest.mark.parametrize("n", [1, 7, 1000, 10**7])
    def test_vanishing_effect_gives_exactly_one(self, n):
        # at d ~ 1e-300 only the k = 0 term counts, and its gamma ratio
        # a_{n,0} must cancel to exactly 1 even where lgamma is ~ 1e8
        mix = SnrMixture(atoms=((1.0, 1.0),), scale=1e-300)
        assert lr_sup_t_mixture(n, mix) == 1.0

    def test_atom_whose_effect_underflows_keeps_its_weight(self):
        # scale * r = 1e-325 rounds to 0: that atom's ratio is exactly 1
        pairs = ((1e-320, 0.25), (2e4, 0.75))
        got = lr_sup_t_mixture(10, SnrMixture(atoms=pairs, scale=1e-5))
        expected = oracles.lr_sup_t_mixture_by_atom(10, pairs, 1e-5)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_vanishing_effect_is_not_attainable(self):
        mix = SnrMixture(atoms=((1.0, 1.0),), scale=1e-300)
        with pytest.raises(NotAttainableError):
            plan_t_mixture(PfdrTarget(alpha=0.3, pi=0.7), mix)

    def test_not_attainable_message_prints_q_in_full(self):
        # Q is one ulp above 1 here; six significant digits printed "Q=1"
        mix = SnrMixture(atoms=((1.0, 1.0),), scale=1e-300)
        with pytest.raises(NotAttainableError) as info:
            plan_t_mixture(PfdrTarget(alpha=0.3, pi=0.7), mix)
        assert info.value.q_value == 1.0000000000000002
        assert "reaches only 1.0 at n_max=10000000," in str(info.value)
        assert str(info.value).endswith("the required Q=1.0000000000000002")

    def test_atom_budget(self):
        k = MAX_MIXTURE_ATOMS + 1
        with pytest.raises(ValueError, match=f"at most {MAX_MIXTURE_ATOMS} atoms"):
            SnrMixture(atoms=tuple((1.0 + i, 1.0 / k) for i in range(k)))

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            SnrMixture(atoms=((0.1, 0.6), (0.3, 0.6)))
        with pytest.raises(ValueError):
            SnrMixture(atoms=((-0.1, 0.5), (0.3, 0.5)))

    def test_trivial_target_rate_zero(self):
        report = plan_t_mixture(
            PfdrTarget(alpha=0.5, pi=0.5), SnrMixture(((0.5, 1.0),))
        )
        assert report.diagnostics["mgf_rate"] == 0.0
        assert report.n_exact == 1


class TestSnrEffect:
    def test_validation(self):
        with pytest.raises(ValueError):
            SnrEffect(r=0.0)
        with pytest.raises(ValueError):
            SnrEffect(r=-1.0)
