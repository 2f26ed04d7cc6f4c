import inspect
import math
import subprocess
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import integrate

import family_draws
import oracles
from pfdr_sizer import ldp_engine
from pfdr_sizer.ldp_engine import (
    EULER_GAMMA,
    QuadratureError,
    SplitSpec,
    TailIndex,
    UnsupportedFamilyError,
    empirical_cgf,
    gamma_score_density,
    gamma_score_model,
    k_f,
    legendre,
    make_family,
    make_score_model,
    n_star_general,
    n_star_score,
    optimal_split,
    pfdr_floor_limit,
    solve_t0,
)
from pfdr_sizer.numerics import RootBracketError, RootRangeError
from pfdr_sizer.pfdr_core import PfdrTarget, q_threshold

RNG = np.random.default_rng(20260819)

FAMILIES = {
    "normal": make_family("normal", sigma=1.3),
    "uniform": make_family("uniform", width=2.0),
    "gamma-small": make_family("gamma", shape=0.3, scale=1.1),
    "gamma-half": make_family("gamma", shape=0.5, scale=1.0),
    "gamma-large": make_family("gamma", shape=4.0, scale=1.3),
}

SCORES = {
    "normal-score": make_score_model("normal-score", sigma=1.2),
    "cauchy-score": make_score_model("cauchy-score"),
    "gamma-score": make_score_model("gamma-score"),
}


def _interior_points(cgf, count=20):
    lo = cgf.domain_inf if math.isfinite(cgf.domain_inf) else -20.0
    hi = cgf.domain_sup if math.isfinite(cgf.domain_sup) else 20.0
    # keep clear of the boundary so finite differences stay inside
    pad = 1e-2 * (hi - lo)
    return lo + pad + (hi - lo - 2 * pad) * RNG.random(count)


class TestCgfDerivatives:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_first_derivative_matches_fd(self, name):
        cgf, _ = FAMILIES[name]
        for t in _interior_points(cgf):
            fd = oracles.central_diff(cgf.lambda_fn, t)
            assert cgf.lambda_d1(t) == pytest.approx(fd, rel=2e-6, abs=2e-6)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_second_derivative_matches_fd(self, name):
        cgf, _ = FAMILIES[name]
        for t in _interior_points(cgf):
            fd = oracles.central_diff(cgf.lambda_d1, t)
            assert cgf.lambda_d2(t) == pytest.approx(fd, rel=2e-6, abs=2e-6)

    @pytest.mark.parametrize("name", sorted(SCORES))
    def test_score_derivatives_match_fd(self, name):
        cgf = SCORES[name].cgf
        for t in _interior_points(cgf):
            fd1 = oracles.central_diff(cgf.lambda_fn, t)
            assert cgf.lambda_d1(t) == pytest.approx(fd1, rel=2e-6, abs=2e-6)
            fd2 = oracles.central_diff(cgf.lambda_d1, t)
            assert cgf.lambda_d2(t) == pytest.approx(fd2, rel=2e-6, abs=2e-6)

    def test_cgf_vanishes_at_origin(self):
        for cgf, _ in FAMILIES.values():
            assert cgf.lambda_fn(0.0) == pytest.approx(0.0, abs=1e-15)
        for model in SCORES.values():
            assert model.cgf.lambda_fn(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_uniform_series_joins_direct_branch(self):
        # values on both sides of each series window must agree at the seam
        cgf, _ = make_family("uniform", width=1.0)
        for fn, seam in [
            (cgf.lambda_fn, 1e-2),
            (cgf.lambda_d1, 1e-2),
            (cgf.lambda_d2, 0.1),
        ]:
            # straddle so tightly that the function's own variation between
            # the two points is far below the comparison tolerance
            below = fn(seam * (1.0 - 1e-12))
            above = fn(seam * (1.0 + 1e-12))
            assert below == pytest.approx(above, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("shape", [0.3, 2.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_gamma_cgf_against_mpmath(self, shape, sign):
        # Lambda(t) = shape (-ln(1 - x) - x) at x = scale t cancels as
        # x -> 0, where a series takes over; 50 digits settle the value
        cgf, _ = make_family("gamma", shape=shape, scale=1.0)
        for x in sign * np.logspace(-20.0, math.log10(0.5), 200):
            with mpmath.workdps(50):
                exact = float(shape * (-mpmath.log1p(-mpmath.mpf(x)) - x))
            got = cgf.lambda_fn(float(x))
            assert got == pytest.approx(exact, rel=4e-15, abs=0.0)

    def test_gamma_domain_boundary(self):
        cgf, _ = make_family("gamma", shape=1.0, scale=2.0)
        assert cgf.domain_sup == pytest.approx(0.5)
        with pytest.raises(ValueError):
            cgf.lambda_fn(0.5)
        with pytest.raises(ValueError):
            cgf.lambda_fn(0.7)


class TestLegendre:
    def test_normal_unit(self):
        cgf, _ = make_family("normal", sigma=1.0)
        rate, eta = legendre(cgf, 1.0)
        assert rate == pytest.approx(0.5, rel=1e-12)
        assert eta == pytest.approx(1.0, rel=1e-12)

    def test_normal_sigma_two(self):
        cgf, _ = make_family("normal", sigma=2.0)
        rate, eta = legendre(cgf, 1.0)
        assert rate == pytest.approx(0.125, rel=1e-12)
        assert eta == pytest.approx(0.25, rel=1e-12)

    def test_gamma_against_golden_section(self):
        cgf, _ = make_family("gamma", shape=1.0, scale=1.0)
        u = 0.5
        _, best = oracles.golden_max(
            lambda t: u * t - cgf.lambda_fn(t), 0.0, 1.0 - 1e-9, tol=1e-12
        )
        rate, eta = legendre(cgf, u)
        assert rate == pytest.approx(best, abs=1e-10)
        # closed form: Lambda'(t) = t/(1-t) = 1/2 at t = 1/3
        assert eta == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_duality_identity(self):
        # Lambda*(Lambda'(t)) = t Lambda'(t) - Lambda(t) on interior points
        for cgf, _ in FAMILIES.values():
            for t in _interior_points(cgf, count=5):
                if t <= 0:
                    continue
                u = cgf.lambda_d1(t)
                rate, eta = legendre(cgf, u)
                assert rate == pytest.approx(
                    t * u - cgf.lambda_fn(t), rel=1e-9, abs=1e-9
                )
                assert eta == pytest.approx(t, rel=1e-7, abs=1e-9)

    def test_at_zero(self):
        cgf, _ = make_family("normal", sigma=1.0)
        assert legendre(cgf, 0.0) == (0.0, 0.0)

    def test_unreachable_slope(self):
        # gamma slopes are bounded below by -shape * scale
        cgf, _ = make_family("gamma", shape=1.0, scale=1.0)
        with pytest.raises(RootRangeError):
            legendre(cgf, -5.0)
        # uniform slopes live inside (-width/2, width/2)
        cgf, _ = make_family("uniform", width=1.0)
        with pytest.raises(RootRangeError):
            legendre(cgf, 0.6)

    def test_slope_beyond_a_finite_domain_edge(self):
        # the bracket walk toward the domain edge rounds onto it; the cgf,
        # which rejects its edge, must not be evaluated there
        cgf, _ = make_family("gamma", shape=1.0)
        with pytest.raises(RootRangeError, match="outside the derivative range"):
            legendre(cgf, 1e308)
        with pytest.raises(RootRangeError, match="below the range"):
            legendre(gamma_score_model().cgf, -1e20)


def _cgf_and_tail(name, **params):
    if name.endswith("-score"):
        model = make_score_model(name, **params)
        return model.cgf, model.tail
    return make_family(name, **params)


class TestSolveT0:
    def test_normal_closed_form(self):
        for sigma in [0.5, 1.0, 2.0]:
            for rho in [0.2, 0.5, 0.8]:
                cgf, tail = make_family("normal", sigma=sigma)
                t0 = solve_t0(cgf, tail, SplitSpec(rho=rho))
                expected = math.sqrt(rho / (1.0 - rho)) / sigma
                assert t0 == pytest.approx(expected, rel=1e-9)

    def test_gamma_closed_form(self):
        # t Lambda'(t) = c has root t0 = (sqrt(g^2 + 2g) - g)/beta with
        # g = c / (2 alpha), c = (1 + lam) rho / (1 - rho)
        for shape in [0.3, 0.5, 1.0, 4.0]:
            for rho in [0.2, 0.5, 0.8]:
                for scale in [1.0, 1.3]:
                    cgf, tail = make_family("gamma", shape=shape, scale=scale)
                    c = (1.0 + tail.lam) * rho / (1.0 - rho)
                    g = c / (2.0 * shape)
                    expected = (math.sqrt(g * g + 2.0 * g) - g) / scale
                    t0 = solve_t0(cgf, tail, SplitSpec(rho=rho))
                    assert t0 == pytest.approx(expected, rel=1e-9)

    def test_gamma_tail_index_by_shape(self):
        # shapes below one half thin the paired-difference density at zero
        assert make_family("gamma", shape=0.3, scale=1.0)[1].lam == pytest.approx(-0.4)
        assert make_family("gamma", shape=0.5, scale=1.0)[1].lam == 0.0
        assert make_family("gamma", shape=4.0, scale=1.0)[1].lam == 0.0

    def test_uniform_solves_its_equation(self):
        cgf, tail = make_family("uniform", width=2.0)
        t0 = solve_t0(cgf, tail, SplitSpec(rho=0.5))
        lhs = t0 * cgf.lambda_d1(t0)
        assert lhs == pytest.approx(1.0, rel=1e-10)
        # and the derivative the equation uses is itself FD-validated
        fd = oracles.central_diff(cgf.lambda_fn, t0)
        assert cgf.lambda_d1(t0) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize(
        "name,param,value,scale",
        [
            ("normal", "sigma", 1e-154, 1e-154),
            ("uniform", "width", 1e-153, 1e-153),
            ("normal-score", "sigma", 1e154, 1e-154),
        ],
    )
    def test_curvature_near_the_float_floor(self, name, param, value, scale):
        # at rho = 0.95 the right side over Lambda''(0) overflows, but the
        # root is finite: the unit-scale root divided by the data scale
        split = SplitSpec(rho=0.95)
        cgf, tail = _cgf_and_tail(name, **{param: value})
        unit_cgf, _ = _cgf_and_tail(name, **{param: 1.0})
        t0 = solve_t0(cgf, tail, split)
        assert t0 * cgf.lambda_d1(t0) == pytest.approx(19.0, rel=1e-10)
        assert t0 == pytest.approx(solve_t0(unit_cgf, tail, split) / scale, rel=1e-12)

    def test_increasing_in_rho(self):
        for cgf, tail in FAMILIES.values():
            vals = [
                solve_t0(cgf, tail, SplitSpec(rho=r))
                for r in [0.1, 0.3, 0.5, 0.7, 0.9]
            ]
            assert all(a < b for a, b in zip(vals, vals[1:]))


# data scales b from 1e-150 to 1e150; each family's scale parameter is b
SCALES = [10.0**e for e in (-150, -100, -30, -10, -3, 3, 10, 30, 100, 150)]


def _at_scale(name, b):
    if name == "gamma":
        return make_family("gamma", shape=2.0, scale=b)
    return make_family(name, **{{"normal": "sigma", "uniform": "width"}[name]: b})


@pytest.mark.parametrize("b", SCALES)
@pytest.mark.parametrize("rho", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("name", ["normal", "uniform", "gamma"])
class TestScaleEquivariance:
    """Lambda_b(t) = Lambda_1(b t), so roots are the unit-scale roots over b."""

    def test_solve_t0(self, name, rho, b):
        split = SplitSpec(rho=rho)
        unit = solve_t0(*_at_scale(name, 1.0), split)
        got = b * solve_t0(*_at_scale(name, b), split)
        assert got == pytest.approx(unit, rel=1e-14, abs=0.0)

    def test_legendre(self, name, rho, b):
        # at the slopes Lambda_1'(+-t0): one on each side of the origin
        unit_cgf, tail = _at_scale(name, 1.0)
        cgf, _ = _at_scale(name, b)
        t0 = solve_t0(unit_cgf, tail, SplitSpec(rho=rho))
        for t in (t0, -t0):
            u = unit_cgf.lambda_d1(t)
            unit_rate, unit_eta = legendre(unit_cgf, u)
            rate, eta = legendre(cgf, b * u)
            assert rate == pytest.approx(unit_rate, rel=1e-14, abs=0.0)
            assert b * eta == pytest.approx(unit_eta, rel=1e-14, abs=0.0)


class TestOptimalSplit:
    def test_normal(self):
        opt = optimal_split(*make_family("normal", sigma=1.0))
        assert opt.rho_star == pytest.approx(0.5, abs=1e-6)
        assert opt.boundary is None

    def test_gamma_small_shapes_share_optimum(self):
        expected = 1.0 / (2.0 + math.sqrt(2.0))
        for shape in [0.2, 0.3, 0.5]:
            opt = optimal_split(*make_family("gamma", shape=shape, scale=1.0))
            assert opt.rho_star == pytest.approx(expected, abs=1e-6)

    def test_gamma_shape_four(self):
        opt = optimal_split(*make_family("gamma", shape=4.0, scale=1.0))
        assert opt.rho_star == pytest.approx(0.4, abs=1e-6)

    def test_gamma_shape_one(self):
        opt = optimal_split(*make_family("gamma", shape=1.0, scale=1.0))
        assert opt.rho_star == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_uniform_pushes_to_boundary(self):
        opt = optimal_split(*make_family("uniform", width=1.0))
        assert opt.rho_star is None
        assert opt.boundary == "upper"
        assert opt.objective == pytest.approx(2.0, abs=1e-6)

    def test_scale_invariance(self):
        a = optimal_split(*make_family("normal", sigma=0.25))
        b = optimal_split(*make_family("normal", sigma=4.0))
        assert a.rho_star == pytest.approx(b.rho_star, abs=1e-6)

    def test_empirical_domain_ending_before_the_upper_root_raises(self):
        # the search's upper end, rho = 1 - 1e-4, needs t Lambda'(t) to reach
        # rho / (1 - rho) = 9999; on a grid of +-2 an empirical cgf's domain
        # ends long before that, though a middle split still solves
        sample = np.random.default_rng(7).standard_normal(500)
        cgf = empirical_cgf(sample, t_grid=(-2.0, 2.0))
        tail = TailIndex(0.0)
        sup = cgf.domain_sup
        assert sup * cgf.lambda_d1(sup) < (1.0 - 1e-4) / 1e-4
        assert 0.0 < solve_t0(cgf, tail, SplitSpec(0.5)) < sup
        with pytest.raises(RootBracketError):
            optimal_split(cgf, tail)


class TestKf:
    def test_gamma_score_exact_value(self):
        got = k_f(gamma_score_density)
        assert got == pytest.approx(1.0 - math.log(2.0), abs=1e-8)

    def test_gamma_score_alternative_quadrature(self):
        # substitute the closed normalizer 1/4 and integrate z f(z)^2 directly
        num, err = integrate.quad(
            lambda z: z * gamma_score_density(z) ** 2, -30.0, 30.0, limit=200
        )
        assert err < 1e-10
        assert 4.0 * num == pytest.approx(1.0 - math.log(2.0), abs=1e-8)

    def test_even_density_gives_zero(self):
        pdf = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        assert k_f(pdf) == pytest.approx(0.0, abs=1e-9)

    def test_non_integrable_density_raises(self):
        with pytest.raises(QuadratureError):
            k_f(lambda z: 1.0)

    @given(shift=st.floats(-3.0, 3.0), scale=st.floats(0.1, 100.0))
    @example(shift=0.4066469470208034, scale=1.2017409996023218)
    def test_shifted_scaled_gamma_score(self, shift, scale):
        # z -> scale z + shift maps K_f = 1 - ln 2 to scale (1 - ln 2) + shift.
        # That crosses 0 at shift = -scale (1 - ln 2), while the rounding of
        # the two integrals stays of order scale, so the bound is relative to
        # the larger of the two
        got = k_f(lambda z: gamma_score_density((z - shift) / scale) / scale)
        want = scale * (1.0 - math.log(2.0)) + shift
        assert abs(got - want) <= 1e-13 * max(abs(want), scale)

    @pytest.mark.parametrize("failure", ["raises", "nan"])
    def test_density_failing_at_a_node_raises(self, failure):
        def density(z):
            if z < 2.0:
                return gamma_score_density(z)
            if failure == "raises":
                raise ValueError("outside the model")
            return math.nan

        with pytest.raises(QuadratureError):
            k_f(density)

    def test_heavy_tail_is_refused_not_cut(self):
        # f(z) = (1 + z^2)^(-(1 + a) / 2) (1 + tanh z) / 2 has z f^2 ~ z^(-1 - 2a)
        # on the right; 30-digit mpmath gives K_f = 4.591513587243097 at
        # a = 0.1 and 8.716457611724502 at a = 0.05, where cutting the line at
        # the nodes' reach of |z| ~ 1.4e83 would return a value 4e-9 low
        def density(a):
            return lambda z: (1.0 + z * z) ** (-0.5 - 0.5 * a) * 0.5 * (1.0 + math.tanh(z))

        assert k_f(density(0.1)) == pytest.approx(4.591513587243097, rel=1e-14)
        with pytest.raises(QuadratureError, match="tails not negligible"):
            k_f(density(0.05))

    def test_loads_no_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from pfdr_sizer.ldp_engine import k_f, gamma_score_density; "
             "k_f(gamma_score_density); "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_score_models_carry_their_k_f(self):
        assert SCORES["normal-score"].k_f == 0.0
        assert SCORES["cauchy-score"].k_f == 0.0
        assert SCORES["gamma-score"].k_f == pytest.approx(
            1.0 - math.log(2.0), rel=1e-12
        )


class TestPlanners:
    def test_general_normal_plan(self):
        target = PfdrTarget(alpha=0.05, pi=0.1)
        cgf, tail = make_family("normal", sigma=1.0)
        report = n_star_general(target, cgf, tail, split=SplitSpec(rho=0.5), d=0.1)
        # rate = d (1 - rho) t0 with t0 = 1: N = ln Q / 0.05
        assert report.n_asymptotic == pytest.approx(
            math.log(q_threshold(0.05, 0.1)) / 0.05, rel=1e-10
        )
        assert report.regime == "cgf-rate"
        assert report.n_exact is None

    def test_general_diagnostics_contract(self):
        target = PfdrTarget(alpha=0.05, pi=0.1)
        cgf, tail = make_family("normal", sigma=1.0)
        report = n_star_general(target, cgf, tail, split=SplitSpec(rho=0.5), d=0.1)
        d = report.diagnostics
        for key in (
            "t0",
            "lambda_tail",
            "rho",
            "log_q",
            "n_ceiling",
            "m_variance_part",
            "n_mean_part",
            "pfdr_floor_at_plan",
        ):
            assert key in d
        assert d["m_variance_part"] + d["n_mean_part"] == d["n_ceiling"]
        # the floor at the planned (integer) size cannot exceed the target
        assert d["pfdr_floor_at_plan"] <= 0.05 + 1e-12

    def test_ceiling_is_a_float(self):
        target = PfdrTarget(alpha=0.05, pi=0.1)
        cgf, tail = make_family("normal", sigma=1.0)
        split = SplitSpec(rho=0.5)
        for d, ceiling in ((0.1, 103.0), (1e-300, 1.0283327113005319e301)):
            diagnostics = n_star_general(target, cgf, tail, split, d).diagnostics
            assert all(type(value) is float for value in diagnostics.values())
            assert diagnostics["n_ceiling"] == ceiling

    def test_floor_equals_alpha_at_fractional_plan(self):
        target = PfdrTarget(alpha=0.05, pi=0.1)
        cgf, tail = make_family("normal", sigma=1.0)
        report = n_star_general(target, cgf, tail, split=SplitSpec(rho=0.5), d=0.1)
        t0 = report.diagnostics["t0"]
        floor = pfdr_floor_limit(0.1, 0.5, t_growth=0.1 * report.n_asymptotic, t0=t0)
        assert floor == pytest.approx(0.05, rel=1e-10)

    def test_score_plan_matches_general_for_normal(self):
        # the score family of a normal location model has the same rate as
        # the general planner run on the normal family itself
        target = PfdrTarget(alpha=0.01, pi=0.2)
        for sigma in [0.5, 1.0, 2.0]:
            for rho in [0.3, 0.5, 0.7]:
                for theta in [0.1, 1.0]:
                    split = SplitSpec(rho=rho)
                    cgf, tail = make_family("normal", sigma=sigma)
                    general = n_star_general(target, cgf, tail, split=split, d=theta)
                    score = n_star_score(
                        target,
                        make_score_model("normal-score", sigma=sigma),
                        split=split,
                        theta=theta,
                    )
                    assert score.n_asymptotic == pytest.approx(
                        general.n_asymptotic, rel=1e-9
                    )
                    assert score.regime == "score-rate"

    def test_gamma_score_rate_identity(self):
        target = PfdrTarget(alpha=0.05, pi=0.1)
        model = make_score_model("gamma-score")
        split = SplitSpec(rho=0.4)
        theta = 0.7
        report = n_star_score(target, model, split=split, theta=theta)
        t0 = report.diagnostics["t0"]
        rate = theta * ((1.0 - 0.4) * model.cgf.lambda_d1(t0) + 2.0 * 0.4 * model.k_f)
        assert math.exp(rate * report.n_asymptotic) == pytest.approx(
            target.q(), rel=1e-9
        )

    def test_trivial_target_plans_one(self):
        target = PfdrTarget(alpha=0.5, pi=0.5)
        cgf, tail = make_family("normal", sigma=1.0)
        report = n_star_general(target, cgf, tail, split=SplitSpec(rho=0.5), d=0.1)
        assert report.n_asymptotic == 1.0

    def test_shift_validation(self):
        target = PfdrTarget(alpha=0.05, pi=0.1)
        cgf, tail = make_family("normal", sigma=1.0)
        with pytest.raises(ValueError):
            n_star_general(target, cgf, tail, split=SplitSpec(rho=0.5), d=0.0)
        with pytest.raises(ValueError):
            n_star_score(
                target, make_score_model("gamma-score"), SplitSpec(rho=0.5), theta=-1.0
            )

    @pytest.mark.parametrize(
        "family,params,effect",
        [
            ("normal", {}, 1e-320),
            ("gamma-score", {}, 1e-320),
            ("gamma", {"shape": 1e300}, 1e-300),
        ],
    )
    def test_rate_too_small_to_plan_is_refused(self, family, params, effect):
        # ln(Q) / rate overflows to inf, or the rate itself underflows to 0
        target = PfdrTarget(alpha=0.05, pi=0.1)
        split = SplitSpec(rho=0.5)
        with pytest.raises(ValueError, match=r"rate .* is too small"):
            if family.endswith("-score"):
                n_star_score(target, make_score_model(family, **params), split, effect)
            else:
                cgf, tail = make_family(family, **params)
                n_star_general(target, cgf, tail, split, effect)


class TestPfdrFloor:
    def test_zero_growth_gives_prior_odds(self):
        assert pfdr_floor_limit(0.3, 0.5, 0.0, 1.0) == pytest.approx(0.7)

    def test_decreasing_in_growth(self):
        vals = [pfdr_floor_limit(0.1, 0.5, T, 1.0) for T in [0.0, 1.0, 5.0, 20.0]]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_huge_growth_saturates_to_zero(self):
        assert pfdr_floor_limit(0.1, 0.5, 1e6, 1.0) == pytest.approx(0.0, abs=1e-300)

    @pytest.mark.parametrize("pi", [1e-320, 1e-300, 1e-5, 0.5, 1.0 - 1e-16])
    @pytest.mark.parametrize("growth", [1399.0, 1400.0, 1480.0, 2000.0])
    def test_past_exp_range_matches_exact(self, pi, growth):
        # (1 - rho) T t0 = growth / 2 crosses 700, where exp nears overflow
        with mpmath.workdps(50):
            p, gain = mpmath.mpf(pi), mpmath.exp(mpmath.mpf(growth) / 2)
            exact = float((1 - p) / ((1 - p) + p * gain))
        assert pfdr_floor_limit(pi, 0.5, growth, 1.0) == pytest.approx(exact, rel=1e-12)

    def test_floor_at_plan_for_a_tiny_prior(self):
        # at pi = 1e-320, ln Q = 739.8: the plan's floor is alpha, not 1
        cgf, tail = make_family("normal")
        for pi in (1e-320, 0.1):
            report = n_star_general(PfdrTarget(0.05, pi), cgf, tail, SplitSpec(0.3), 0.5)
            floor = report.diagnostics["pfdr_floor_at_plan"]
            assert 0.04 < floor <= 0.05


class TestEmpiricalCgf:
    def test_matches_normal_on_large_sample(self):
        sample = RNG.standard_normal(100_000)
        cgf = empirical_cgf(sample, t_grid=(-2.0, 2.0))
        assert cgf.lambda_fn(0.5) == pytest.approx(0.125, abs=0.01)
        assert cgf.lambda_fn(0.0) == 0.0
        assert cgf.family_tag == "empirical"

    def test_derivatives_match_fd(self):
        sample = RNG.standard_normal(5_000)
        cgf = empirical_cgf(sample, t_grid=(-1.0, 1.0))
        for t in [-0.5, 0.2, 0.8]:
            assert cgf.lambda_d1(t) == pytest.approx(
                oracles.central_diff(cgf.lambda_fn, t), rel=1e-5, abs=1e-7
            )

    def test_centering(self):
        sample = 5.0 + RNG.standard_normal(10_000)
        cgf = empirical_cgf(sample, t_grid=(-1.0, 1.0))
        # mean removal means the slope at zero is (numerically) zero
        assert cgf.lambda_d1(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_overflow_hull_clips_domain(self):
        sample = np.concatenate([RNG.standard_normal(5_000), [100.0]])
        cgf = empirical_cgf(sample, t_grid=(-10.0, 10.0))
        assert cgf.domain_sup < 10.0

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            empirical_cgf(np.zeros(99), t_grid=(-1.0, 1.0))

    def test_non_finite_rejected(self):
        sample = np.zeros(200)
        sample[0] = np.nan
        with pytest.raises(ValueError):
            empirical_cgf(sample, t_grid=(-1.0, 1.0))

    def test_grid_must_straddle_zero(self):
        with pytest.raises(ValueError):
            empirical_cgf(RNG.standard_normal(200), t_grid=(0.5, 1.0))

    @pytest.mark.parametrize("grid", [(math.nan, 1.0), (-1.0, 0.5, math.nan)])
    def test_grid_must_not_hold_nan(self, grid):
        with pytest.raises(ValueError, match="t_grid contains NaN"):
            empirical_cgf(RNG.standard_normal(200), t_grid=grid)

    def test_constant_sample_has_no_curvature(self):
        cgf = empirical_cgf(np.zeros(500), t_grid=(-1.0, 1.0))
        with pytest.raises(RootRangeError):
            solve_t0(cgf, TailIndex(lam=0.0), SplitSpec(rho=0.5))

    def test_solve_t0_on_empirical(self):
        sample = RNG.standard_normal(50_000)
        cgf = empirical_cgf(sample, t_grid=(-3.0, 3.0))
        t0 = solve_t0(cgf, TailIndex(lam=0.0), SplitSpec(rho=0.5))
        # near the normal closed form sqrt(rho/(1-rho))/sigma = 1
        assert t0 == pytest.approx(1.0, rel=0.05)


_EMPIRICAL_SHAPES = {
    "normal": lambda rng, n: rng.standard_normal(n),
    "gamma": lambda rng, n: rng.gamma(0.5, size=n),
    "negative-exponential": lambda rng, n: -rng.exponential(size=n),
    "t3": lambda rng, n: rng.standard_t(3, size=n),
}


class TestEmpiricalCgfEvaluation:
    """Every evaluation returns the bits of the direct tilted-moment formulas,
    holds at most one or two sample-sized arrays, and is safe under threads."""

    @given(
        shape=st.sampled_from(sorted(_EMPIRICAL_SHAPES)),
        size=st.integers(100, 20_000),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
        shift=st.floats(-100.0, 100.0),
        half_widths=st.tuples(st.floats(0.01, 50.0), st.floats(0.01, 50.0)),
        interior=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    )
    def test_bit_identical_to_the_direct_formulas(
        self, shape, size, seed, scale, shift, half_widths, interior
    ):
        sample = _EMPIRICAL_SHAPES[shape](np.random.default_rng(seed), size) * scale + shift
        cgf = empirical_cgf(sample, t_grid=(-half_widths[0], half_widths[1]))
        lo, hi = cgf.domain_inf, cgf.domain_sup
        ts = [lo, hi, 0.0, -0.0] + [min(hi, max(lo, lo + u * (hi - lo))) for u in interior]
        for t in ts:
            expected = oracles.empirical_tilted_reference(sample, t)
            for fn, want in zip((cgf.lambda_fn, cgf.lambda_d1, cgf.lambda_d2), expected):
                assert fn(t) == want, (fn.__name__, t)
                got = fn(np.float64(t))
                assert type(got) is float and got == want, (fn.__name__, t)

    def test_one_sample_sized_array_per_evaluation(self):
        size = 100_000
        cgf = empirical_cgf(RNG.standard_normal(size), t_grid=(-2.0, 2.0))
        array_bytes = 8 * size
        calls = [
            (cgf.lambda_fn, 0.7, 1.25),
            (cgf.lambda_fn, -0.4, 1.25),
            (cgf.lambda_d1, 0.7, 1.25),
            (cgf.lambda_d1, -0.4, 1.25),
            (cgf.lambda_d2, 0.7, 2.25),
            (cgf.lambda_d2, -0.4, 2.25),
            (cgf.lambda_d2, 0.0, 0.01),
        ]
        for fn, t, arrays in calls:
            tracemalloc.start()
            try:
                fn(t)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= arrays * array_bytes, (fn.__name__, t, peak / array_bytes)

    def test_threads_get_the_serial_results(self):
        # more threads than cores, each walking the domain its own way; a
        # buffer shared between evaluations would mix their weights
        cgf = empirical_cgf(RNG.gamma(2.0, size=100_000), t_grid=(-1.0, 1.0))
        fns = (cgf.lambda_fn, cgf.lambda_d1, cgf.lambda_d2)
        plans = [
            [(fns[(i + j) % 3], t) for j, t in enumerate(np.linspace(-0.9, 0.9, 25 + i))]
            for i in range(4)
        ]
        serial = [[fn(t) for fn, t in plan] for plan in plans]
        results = [None] * len(plans)
        start = threading.Barrier(len(plans))

        def evaluate(i):
            start.wait(timeout=60)
            results[i] = [fn(t) for fn, t in plans[i]]

        threads = [threading.Thread(target=evaluate, args=(i,)) for i in range(len(plans))]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        assert results == serial


class TestUniformCgfTypoGuard:
    def test_fd_oracle_separates_the_two_candidate_forms(self):
        # two plausible closed forms for the uniform cgf derivative differ
        # only in the argument of tanh; the finite-difference oracle rejects
        # one and confirms the other, and the package matches the survivor
        cgf, _ = make_family("uniform", width=1.0)
        t = 2.0
        fd = oracles.central_diff(cgf.lambda_fn, t, h=1e-6)
        wrong = 0.5 / math.tanh(t) - 1.0 / t
        right = 0.5 / math.tanh(0.5 * t) - 1.0 / t
        assert abs(wrong - fd) > 1e-3
        assert abs(right - fd) < 1e-8
        assert cgf.lambda_d1(t) == pytest.approx(fd, abs=1e-8)


class TestFamilies:
    def test_make_family_unknown(self):
        with pytest.raises(UnsupportedFamilyError):
            make_family("cauchy")

    def test_gamma_requires_shape(self):
        with pytest.raises(ValueError):
            make_family("gamma")

    def test_score_model_name_normalization(self):
        a = make_score_model("gamma-score")
        b = make_score_model("gamma_score")
        assert a.cgf.lambda_fn(0.3) == b.cgf.lambda_fn(0.3)

    def test_gamma_score_density_shape(self):
        # density integrates to one and has mean zero (centered score)
        total, err = integrate.quad(gamma_score_density, -30.0, 30.0, limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)
        mean, _ = integrate.quad(
            lambda z: z * gamma_score_density(z), -30.0, 30.0, limit=200
        )
        assert mean == pytest.approx(0.0, abs=1e-9)

    def test_gamma_score_cgf_closed_form(self):
        # Lambda(t) = lgamma(1 + t) + gamma t for the centered score
        cgf = SCORES["gamma-score"].cgf
        for t in [-0.5, 0.3, 2.0]:
            expected = math.lgamma(1.0 + t) + EULER_GAMMA * t
            assert cgf.lambda_fn(t) == pytest.approx(expected, rel=1e-12)

    def test_cauchy_score_series_window_joins(self):
        cgf = SCORES["cauchy-score"].cgf
        seam = 1e-5
        below = cgf.lambda_d1(seam * (1.0 - 1e-9))
        above = cgf.lambda_d1(seam * (1.0 + 1e-9))
        assert below == pytest.approx(above, rel=1e-7)


# off-default values, so a sampler that ignores a parameter fails; a new
# required parameter needs a value here
PARAM_VALUES = {"sigma": 1.7, "width": 2.5, "shape": 1.5, "scale": 0.6}


class TestFamilyRegistry:
    def test_kinds_partition_the_registry(self):
        assert ldp_engine.SHIFT_FAMILIES + ldp_engine.SCORE_FAMILIES == tuple(
            ldp_engine.FAMILIES
        )

    @pytest.mark.parametrize("name", list(ldp_engine.FAMILIES))
    def test_params_match_model_and_sampler(self, name):
        family = ldp_engine.FAMILIES[name]
        model_params = inspect.signature(family.model).parameters
        assert list(model_params) == list(family.params)
        for key, default in family.params.items():
            declared = model_params[key].default
            assert declared == (inspect.Parameter.empty if default is None else default)
        # hits(rng, size, n, m, effect, z, side, **params)
        assert list(inspect.signature(family.hits).parameters)[7:] == list(
            family.params
        )

    @pytest.mark.parametrize("name", list(ldp_engine.FAMILIES))
    def test_sampler_moments_match_cgf(self, name):
        # at n = m = 1 the mean is one observation and S^2 = (Y1 - Y2)^2 / 2,
        # so under the null both have variance, resp. mean, Lambda''(0) of
        # the family at scale 1, the units the statistics the family hands
        # to the rejection rule are in; the shifted mean of a family with a
        # scale is the null's plus effect / scale
        family = ldp_engine.FAMILIES[name]
        kwargs = {key: PARAM_VALUES.get(key, d) for key, d in family.params.items()}
        key = family_draws.SCALE_PARAM.get(name)
        unit = {**kwargs, key: 1.0} if key else kwargs
        model = family.model(**unit)
        cgf = model.cgf if family.kind == "score" else model[0]
        curvature = cgf.lambda_d2(0.0)
        size = 200_000
        rng = np.random.default_rng(4321)
        xbar0, s0, xbar1, s1 = family_draws.statistics(name, rng, size, 1, 1, 0.3, **kwargs)
        assert abs(xbar0.mean()) <= 5.0 * xbar0.std() / math.sqrt(size)
        dev2 = (xbar0 - xbar0.mean()) ** 2
        var_se = math.sqrt((np.mean(dev2**2) - np.mean(dev2) ** 2) / size)
        assert abs(np.mean(dev2) - curvature) <= 5.0 * var_se
        s2 = s0 * s0
        assert abs(s2.mean() - curvature) <= 5.0 * s2.std() / math.sqrt(size)
        if family.kind == "shift":
            assert s1 is s0
        if key:
            assert np.array_equal(xbar1, xbar0 + 0.3 / kwargs[key])

    def test_gamma_mean_has_the_law_of_n_draws(self):
        # the mean of n Gamma(shape) draws, in units of the scale, has
        # cumulants kappa_j = (j - 1)! shape / n^(j - 1); the third pins the
        # Gamma(n shape) shape, which n = 1 cannot tell from Gamma(shape)
        shape, scale, n, size = PARAM_VALUES["shape"], PARAM_VALUES["scale"], 7, 200_000
        rng = np.random.default_rng(8765)
        xbar0, _, xbar1, _ = family_draws.statistics(
            "gamma", rng, size, n, 3, 0.3, shape=shape, scale=scale
        )
        assert np.array_equal(xbar1, xbar0 + 0.3 / scale)
        dev = xbar0 - xbar0.mean()
        var = np.mean(dev**2)
        # each moment estimate with its influence-function standard error
        checks = [
            (xbar0, 0.0),
            (dev**2, shape / n),
            (dev**3 - 3.0 * var * dev, 2.0 * shape / n**2),
        ]
        for h, expected in checks:
            assert abs(h.mean() - expected) <= 5.0 * h.std() / math.sqrt(size)
