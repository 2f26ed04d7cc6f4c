"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s) and
then asserts, so the suite doubles as a human-readable checklist.  Budgets
are wall-clock seconds for the criterion's computation.

Criteria 8 and 9 hold the rejection threshold fixed at z0, so their
references use the fixed-threshold tilt x*(z0) from tests/oracles.py, not
the tilt root t0 that only a threshold growing without bound reaches.
"""

import math
import time

import numpy as np
from scipy import stats

import oracles
from pfdr_sizer.f_test import FEffect, lr_sup_f, plan_f
from pfdr_sizer.ldp_engine import (
    SplitSpec,
    gamma_score_density,
    k_f,
    make_family,
    make_score_model,
    n_star_general,
    n_star_score,
    optimal_split,
    pfdr_floor_limit,
    solve_t0,
)
from pfdr_sizer.mc_verify import (
    SimScenario,
    ThresholdSchedule,
    bahadur_rao_tail,
    simulate_pfdr,
    tail_ratio_mc,
)
from pfdr_sizer.normal_t import SnrEffect, lr_sup_t, plan_t
from pfdr_sizer.pfdr_core import PfdrTarget

TARGET = PfdrTarget(alpha=0.05, pi=0.1)
LOG_Q = math.log(171.0)


def _verdict(num: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    in_budget = elapsed < budget
    tag = "PASS" if (ok and in_budget) else "FAIL"
    line = f"[{tag}] acceptance {num}: {detail} ({elapsed:.1f}s, budget {budget:.0f}s)"
    print(line)
    assert ok and in_budget, line


def test_acceptance_1_t_rate_convergence():
    start = time.perf_counter()
    errs = []
    for r in [0.1, 0.01, 0.001]:
        n_exact = plan_t(TARGET, SnrEffect(r=r)).n_exact
        errs.append(abs(n_exact * r / LOG_Q - 1.0))
    ok = errs[0] > errs[1] > errs[2] and errs[2] < 0.05
    detail = (
        "minimum-n times snr over ln(171) converges to 1: rel errors "
        + ", ".join(f"{e:.2e}" for e in errs)
        + " decreasing with final < 0.05"
    )
    _verdict(1, ok, detail, time.perf_counter() - start, 10.0)


def test_acceptance_2_t_sup_vs_brute_force():
    start = time.perf_counter()
    worst = 0.0
    for n in [1, 3, 6, 15, 30]:
        for r in [0.05, 0.2, 0.5, 0.8, 1.0]:
            got = lr_sup_t(n, r)
            ref = oracles.brute_force_lr_t(n, r)
            worst = max(worst, abs(got / ref - 1.0))
    ok = worst < 1e-6
    detail = f"t ratio supremum matches brute-force maximization, worst rel {worst:.2e} < 1e-6 on the 5x5 grid"
    _verdict(2, ok, detail, time.perf_counter() - start, 30.0)


def test_acceptance_3_f_large_p_and_plan():
    start = time.perf_counter()
    worst = 0.0
    p_inf = 100_000
    for n in range(1, 11):
        for delta in [0.5, 1.0]:
            got = lr_sup_f(p_inf, n, delta)
            limit = (1.0 + delta * delta) ** (0.5 * n)
            worst = max(worst, abs(got / limit - 1.0))
    report = plan_f(TARGET, FEffect(delta=1.0, p=10_000))
    ok = worst < 0.02 and report.n_exact == 15 and report.n_asymptotic == 15.0
    detail = (
        f"F supremum approaches the power-law limit (worst rel {worst:.2e} < 0.02 "
        f"at p = 1e5) and the high-dimensional plan lands on n = {report.n_exact} "
        f"(asymptotic {report.n_asymptotic:g})"
    )
    _verdict(3, ok, detail, time.perf_counter() - start, 10.0)


def test_acceptance_4_t0_closed_forms():
    start = time.perf_counter()
    worst = 0.0
    for sigma in [0.5, 1.0, 2.0]:
        cgf, tail = make_family("normal", sigma=sigma)
        for rho in [0.2, 0.5, 0.8]:
            t0 = solve_t0(cgf, tail, SplitSpec(rho=rho))
            expected = math.sqrt(rho / (1.0 - rho)) / sigma
            worst = max(worst, abs(t0 / expected - 1.0))
    for shape in [0.3, 0.5, 1.0, 2.0, 4.0]:
        for scale in [1.0, 1.3]:
            cgf, tail = make_family("gamma", shape=shape, scale=scale)
            for rho in [0.2, 0.5, 0.8]:
                c = (1.0 + tail.lam) * rho / (1.0 - rho)
                g = c / (2.0 * shape)
                expected = (math.sqrt(g * g + 2.0 * g) - g) / scale
                t0 = solve_t0(cgf, tail, SplitSpec(rho=rho))
                worst = max(worst, abs(t0 / expected - 1.0))
    ok = worst < 1e-9
    detail = f"tilt root matches normal and gamma closed forms, worst rel {worst:.2e} < 1e-9"
    _verdict(4, ok, detail, time.perf_counter() - start, 5.0)


def test_acceptance_5_optimal_splits():
    start = time.perf_counter()
    checks = []
    opt = optimal_split(*make_family("normal", sigma=1.0))
    checks.append(opt.rho_star is not None and abs(opt.rho_star - 0.5) < 1e-6)
    small = 1.0 / (2.0 + math.sqrt(2.0))
    for shape in [0.3, 0.5]:
        opt = optimal_split(*make_family("gamma", shape=shape, scale=1.0))
        checks.append(opt.rho_star is not None and abs(opt.rho_star - small) < 1e-6)
    opt = optimal_split(*make_family("gamma", shape=4.0, scale=1.0))
    checks.append(opt.rho_star is not None and abs(opt.rho_star - 0.4) < 1e-6)
    uni = optimal_split(*make_family("uniform", width=1.0))
    checks.append(uni.rho_star is None and uni.boundary == "upper")
    ok = all(checks)
    detail = (
        "split optima: normal 0.5, gamma(0.3)/gamma(0.5) at 1/(2+sqrt(2)), "
        "gamma(4) at 0.4 (all within 1e-6), uniform runs into the upper boundary"
    )
    _verdict(5, ok, detail, time.perf_counter() - start, 5.0)


def test_acceptance_6_score_side():
    start = time.perf_counter()
    kf_val = k_f(gamma_score_density, mode="density-weighted")
    kf_err = abs(kf_val - (1.0 - math.log(2.0)))
    worst = 0.0
    target = PfdrTarget(alpha=0.01, pi=0.2)
    for sigma in [0.5, 1.0, 2.0]:
        for rho in [0.3, 0.5, 0.7]:
            for theta in [0.1, 1.0]:
                split = SplitSpec(rho=rho)
                cgf, tail = make_family("normal", sigma=sigma)
                general = n_star_general(target, cgf, tail, split, d=theta)
                score = n_star_score(
                    target,
                    make_score_model("normal-score", sigma=sigma),
                    split,
                    theta=theta,
                )
                worst = max(
                    worst,
                    abs(score.n_asymptotic / general.n_asymptotic - 1.0),
                )
    ok = kf_err < 1e-8 and worst < 1e-9
    detail = (
        f"gamma-score variance contribution {kf_val:.12f} within 1e-8 of 1 - ln 2 "
        f"(err {kf_err:.1e}); normal-score and general planners agree to "
        f"{worst:.1e} rel across the grid"
    )
    _verdict(6, ok, detail, time.perf_counter() - start, 5.0)


def test_acceptance_7_sharp_tail_factor():
    start = time.perf_counter()
    cgf, _ = make_family("normal", sigma=1.0)
    errs = []
    for n in [100, 200]:
        approx = bahadur_rao_tail(cgf, u=0.5, n=n)
        exact = oracles.exact_normal_mean_tail(0.5, 1.0, n)
        errs.append(abs(approx / exact - 1.0))
    halving = errs[1] / errs[0]
    ok = errs[0] < 0.05 and 0.35 < halving < 0.65
    detail = (
        f"sharp tail estimate within {errs[0]:.2%} of the exact normal tail at "
        f"n = 100 and the error contracts by {halving:.2f} when n doubles"
    )
    _verdict(7, ok, detail, time.perf_counter() - start, 1.0)


def test_acceptance_8_mc_ratio_at_plan_scale():
    start = time.perf_counter()
    n = m = 200
    n_total = n + m
    t_growth = 1.0
    # threshold tuned so the null rejection probability is about 1e-3
    z0 = float(stats.t.isf(1e-3, m)) / math.sqrt(n)
    scenario = SimScenario(
        family="normal",
        effect=0.0,
        pi=0.5,
        n=n,
        m=m,
        schedule=ThresholdSchedule(kind="fixed", z0=z0),
        trials=10_000_000,
        seed=2026,
    )
    result = tail_ratio_mc(scenario, t_target=t_growth)
    rho = m / n_total
    limit = oracles.studentized_tail_ratio_limit(z0, rho, t_growth)
    band = (0.85 * limit, 1.15 * limit)
    exact = oracles.studentized_tail_ratio_exact(n, m, z0, t_growth / n_total)
    within_band = band[0] <= result.ratio_hat <= band[1]
    # the estimand at N = 400 is the exact finite-size ratio; comparing with
    # the limit would add a 2.6-SE bias to the Monte Carlo error
    within_noise = abs(result.ratio_hat - exact) <= 3.0 * result.stderr
    ok = within_band and within_noise
    detail = (
        f"measured ratio {result.ratio_hat:.4f} +/- {result.stderr:.4f} "
        f"({result.trials:,} trials, {result.hits_den:,} null hits) vs the exact "
        f"finite-size ratio {exact:.4f} at N = {n_total} (3-SE rule) and the band "
        f"[{band[0]:.4f}, {band[1]:.4f}] around the fixed-threshold limit "
        f"exp((1 - rho) T x*(z0)) = {limit:.4f} at z0 = {z0:.4f}"
    )
    _verdict(8, ok, detail, time.perf_counter() - start, 300.0)


def test_acceptance_9_mc_pfdr_floor():
    start = time.perf_counter()
    n = m = 200
    n_total = n + m
    z0 = float(stats.t.isf(1e-3, m)) / math.sqrt(n)
    schedule = ThresholdSchedule(kind="fixed", z0=z0)
    pi = 0.1
    # effect sized so the threshold growth is T = 1 at this sample size
    effect = 1.0 / n_total
    scenario = SimScenario(
        family="normal", effect=effect, pi=pi, n=n, m=m,
        schedule=schedule, trials=250, seed=77,
    )
    result = simulate_pfdr(scenario, batch_nulls=10_000)
    tilt = oracles.studentized_tilt(z0, 0.5)
    floor = pfdr_floor_limit(pi, 0.5, t_growth=1.0, t0=tilt)
    above_floor = result.pfdr_hat >= floor - 3.0 * result.stderr
    null_checks = []
    for pi0 in [0.1, 0.5, 0.9]:
        s0 = SimScenario(
            family="normal", effect=0.0, pi=pi0, n=n, m=m,
            schedule=schedule, trials=200, seed=78,
        )
        r0 = simulate_pfdr(s0, batch_nulls=10_000)
        null_checks.append(abs(r0.pfdr_hat - (1.0 - pi0)) <= 3.0 * r0.stderr)
    ok = above_floor and all(null_checks)
    detail = (
        f"simulated pFDR {result.pfdr_hat:.4f} +/- {result.stderr:.4f} respects "
        f"the floor {floor:.4f} at T = 1 and the fixed-threshold tilt "
        f"x*(z0) = {tilt:.4f}, and zero-effect runs sit on "
        f"1 - pi for pi in (0.1, 0.5, 0.9)"
    )
    _verdict(9, ok, detail, time.perf_counter() - start, 300.0)


def test_acceptance_10_derivative_discriminators():
    start = time.perf_counter()
    cgf, _ = make_family("uniform", width=1.0)
    t = 2.0
    fd = oracles.central_diff(cgf.lambda_fn, t, h=1e-6)
    wrong = 0.5 / math.tanh(t) - 1.0 / t
    right = 0.5 / math.tanh(0.5 * t) - 1.0 / t
    separates = abs(wrong - fd) > 1e-3 and abs(right - fd) < 1e-8
    package_right = abs(cgf.lambda_d1(t) - fd) < 1e-8
    # the squared null score density integrates to exactly 1/4, which pins
    # the flat (lam = 0) tail behavior of the paired-difference density
    from scipy import integrate

    sq, _ = integrate.quad(
        lambda z: gamma_score_density(z) ** 2, -30.0, 30.0, limit=200
    )
    norm_ok = abs(sq - 0.25) < 1e-9
    ok = separates and package_right and norm_ok
    detail = (
        "finite differences reject the tanh(t) variant of the uniform cgf slope "
        f"(off by {abs(wrong - fd):.1e}) and confirm the tanh(t/2) form "
        f"(off by {abs(right - fd):.1e}); squared gamma-score density integrates "
        f"to {sq:.12f} = 1/4"
    )
    _verdict(10, ok, detail, time.perf_counter() - start, 1.0)
