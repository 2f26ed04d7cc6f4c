import inspect
import math

import numpy as np
import pytest
from scipy import integrate

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
from pfdr_sizer.numerics import RootRangeError
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

    def test_increasing_in_rho(self):
        for cgf, tail in FAMILIES.values():
            vals = [
                solve_t0(cgf, tail, SplitSpec(rho=r))
                for r in [0.1, 0.3, 0.5, 0.7, 0.9]
            ]
            assert all(a < b for a, b in zip(vals, vals[1:]))


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


class TestPfdrFloor:
    def test_zero_growth_gives_prior_odds(self):
        assert pfdr_floor_limit(0.3, 0.5, 0.0, 1.0) == pytest.approx(0.7)

    def test_decreasing_in_growth(self):
        vals = [pfdr_floor_limit(0.1, 0.5, T, 1.0) for T in [0.0, 1.0, 5.0, 20.0]]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_huge_growth_saturates_to_zero(self):
        assert pfdr_floor_limit(0.1, 0.5, 1e6, 1.0) == pytest.approx(0.0, abs=1e-300)


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
        # sample(rng, size, n, m, effect, **params)
        assert list(inspect.signature(family.sample).parameters)[5:] == list(
            family.params
        )

    @pytest.mark.parametrize("name", list(ldp_engine.FAMILIES))
    def test_sampler_moments_match_cgf(self, name):
        # at n = m = 1 the mean is one observation and S^2 = (Y1 - Y2)^2 / 2,
        # so under the null both have variance, resp. mean, Lambda''(0)
        family = ldp_engine.FAMILIES[name]
        kwargs = {key: PARAM_VALUES.get(key, d) for key, d in family.params.items()}
        model = family.model(**kwargs)
        cgf = model.cgf if family.kind == "score" else model[0]
        curvature = cgf.lambda_d2(0.0)
        size = 200_000
        rng = np.random.default_rng(4321)
        xbar0, s0, _, s1 = family.sample(rng, size, 1, 1, 0.3, **kwargs)
        assert abs(xbar0.mean()) <= 5.0 * xbar0.std() / math.sqrt(size)
        dev2 = (xbar0 - xbar0.mean()) ** 2
        var_se = math.sqrt((np.mean(dev2**2) - np.mean(dev2) ** 2) / size)
        assert abs(np.mean(dev2) - curvature) <= 5.0 * var_se
        s2 = s0 * s0
        assert abs(s2.mean() - curvature) <= 5.0 * s2.std() / math.sqrt(size)
        if family.kind == "shift":
            assert s1 is s0

    def test_gamma_mean_has_the_law_of_n_draws(self):
        # the mean of n Gamma(shape, scale) draws has cumulants
        # kappa_j = (j - 1)! shape scale^j / n^(j - 1); the third pins the
        # Gamma(n shape) shape, which n = 1 cannot tell from Gamma(shape)
        shape, scale, n, size = PARAM_VALUES["shape"], PARAM_VALUES["scale"], 7, 200_000
        rng = np.random.default_rng(8765)
        xbar0, *_ = ldp_engine.FAMILIES["gamma"].sample(
            rng, size, n, 3, 0.3, shape=shape, scale=scale
        )
        dev = xbar0 - xbar0.mean()
        var = np.mean(dev**2)
        # each moment estimate with its influence-function standard error
        checks = [
            (xbar0, 0.0),
            (dev**2, scale**2 * shape / n),
            (dev**3 - 3.0 * var * dev, 2.0 * shape * scale**3 / n**2),
        ]
        for h, expected in checks:
            assert abs(h.mean() - expected) <= 5.0 * h.std() / math.sqrt(size)
