"""Property tests of the numpy series kernels against their scalar oracles.

The oracles in oracles.py sum the same series one Python term at a time:
log_lr_sup_f_series is the F kernel the numpy summator replaced, and
lr_sup_t_mixture_by_atom averages the scalar t kernel atom by atom.  The
t and F suprema are also checked to be nondecreasing in n and in the
effect, and to agree with their log-domain variants.  log_lr_sup_t is
checked against a 50-digit quadrature of its integral form, and F on both
sides of the mode where it leaves its plain-float sum for the numpy window,
in value and in monotonicity.  The last test checks that the planners built
on these kernels return the smallest n whose density-ratio supremum
reaches Q.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from pfdr_sizer import f_test
from pfdr_sizer.f_test import FEffect, log_lr_sup_f, lr_sup_f, m_p, plan_f
from pfdr_sizer.normal_t import (
    SnrEffect,
    SnrMixture,
    log_lr_sup_t,
    lr_sup_t,
    lr_sup_t_mixture,
    plan_t,
    plan_t_mixture,
)
from pfdr_sizer.pfdr_core import NotAttainableError, PfdrTarget

EPS = sys.float_info.epsilon


def log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


def log_uniform_int(lo: int, hi: int):
    return log_uniform(lo, hi).map(lambda x: min(hi, max(lo, round(x))))


@settings(max_examples=30)
@given(
    p=log_uniform_int(1, 100_000),
    n=log_uniform_int(1, 10_000),
    delta=log_uniform(1e-3, 2.0),
)
@example(p=1, n=5000, delta=1.0)  # K near exp(1700), beyond float range
@example(p=3, n=5001, delta=1.0)
@example(p=100_000, n=1, delta=2.0)
@example(p=100_000, n=2, delta=2.0)
@example(p=2, n=7, delta=1e-3)
def test_log_lr_sup_f_matches_series(p, n, delta):
    expected = oracles.log_lr_sup_f_series(p, n, delta)
    got = log_lr_sup_f(p, n, delta)
    # both sides form log terms as differences of numbers near A ln A, so
    # each carries rounding of about eps A ln A: at p = 1e5, delta = 2 both
    # are 1e-10 off a 50-digit reference.  Past that they agree to 1e-11.
    a = 0.5 * (n + p) * delta * delta
    tol = 1e-11 * max(1.0, abs(expected)) + EPS * a * math.log(max(a, math.e))
    assert abs(got - expected) <= tol


# p up to 1e5 and delta up to 2, with A from 0.01 to 2e5; where A passes
# about 100 the window no longer starts at k = 0
F_ORACLE_POINTS = [
    (p, n, delta)
    for p in (1, 3, 40, 500, 10_000, 100_000)
    for n, delta in ((1, 2.0), (7, 0.05), (60, 0.6), (2000, 0.1), (300, 1.5))
]


@pytest.mark.parametrize("p,n,delta", F_ORACLE_POINTS)
def test_log_lr_sup_f_against_hypergeometric(p, n, delta):
    expected = oracles.log_lr_sup_f_hyp1f1(p, n, delta)
    got = log_lr_sup_f(p, n, delta)
    from_zero = oracles.log_lr_sup_f_series(p, n, delta)
    # a log term near A ln A rounds by about eps A ln A, in the window and
    # from k = 0 alike; past that and a few ulp of log K, the window is no
    # worse than the full sum
    a = 0.5 * (n + p) * delta * delta
    scale = max(1.0, abs(expected))
    floor = EPS * (a * math.log(max(a, math.e)) + 8.0 * scale)
    assert abs(got - expected) <= 1e-11 * scale + floor
    assert abs(got - expected) <= abs(from_zero - expected) + floor


def _f_delta_at_mode(p: int, n: int, mode: float) -> float:
    """The delta at which K(p, n, delta)'s terms peak at the given mode.

    The mode solves A (n + p + 2k) = (k + 1)(p + 2k) with A = (n + p) delta^2 / 2.
    """
    return math.sqrt(2.0 * (mode + 1.0) * (p + 2.0 * mode) / ((n + p) * (n + p + 2.0 * mode)))


# just below and above the mode where F leaves its plain-float sum for the
# numpy window, at one end of p and n and the other
@pytest.mark.parametrize("side", [0.98, 1.02])
@pytest.mark.parametrize("p,n", [(1, 3), (3, 400), (40, 60), (500, 10_000), (100_000, 7)])
def test_log_lr_sup_f_across_the_window_switch(p, n, side):
    delta = _f_delta_at_mode(p, n, side * f_test._SHORT_MODE)
    a = 0.5 * (n + p) * delta * delta
    assert (f_test._f_mode(p, n, a) < f_test._SHORT_MODE) == (side < 1.0)
    expected = oracles.log_lr_sup_f_hyp1f1(p, n, delta)
    got = log_lr_sup_f(p, n, delta)
    # the bound of test_log_lr_sup_f_against_hypergeometric
    scale = max(1.0, abs(expected))
    floor = EPS * (a * math.log(max(a, math.e)) + 8.0 * scale)
    assert abs(got - expected) <= 1e-11 * scale + floor


@given(
    n=log_uniform_int(1, 1_000_000),
    r=log_uniform(1e-4, 10.0),
)
@example(n=10, r=0.5)
@example(n=5000, r=0.01)
@example(n=5000, r=0.05)
@example(n=100_000, r=0.003)
@example(n=1_000_000, r=0.001)
@example(n=1_000_000, r=0.003)
@example(n=7, r=100.0)  # L = 7564455036249869.69 to 40 digits
@example(n=1, r=1e-4)
def test_log_lr_sup_t_against_integral(n, r):
    d = math.sqrt(n + 1.0) * r
    d2 = d * d
    # within the term budget: the series' mode lies well before term 10^6
    assume(0.5 * (d2 + math.sqrt(d2 * (d2 + 4.0 * n))) < 900_000)
    expected = oracles.log_lr_sup_t_integral(n, r)
    got = log_lr_sup_t(n, r)
    # log L is the log of a sum near e^{d^2/2} less d^2/2, so it cancels by
    # up to about 16 eps d^2/2 where d^2 dominates n
    tol = 1e-12 * max(1.0, abs(expected)) + 16.0 * EPS * 0.5 * d2
    assert abs(got - expected) <= tol


def _random_atoms(atoms: int, seed: int) -> tuple[tuple[float, float], ...]:
    """(r, w) pairs with r uniform on [0.05, 2] and Dirichlet weights."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(atoms))
    return tuple(
        (float(r), float(w))
        for r, w in zip(rng.uniform(0.05, 2.0, atoms), weights / weights.sum())
    )


@settings(max_examples=20)
@given(
    atoms=st.integers(1, 512),
    seed=st.integers(0, 2**32 - 1),
    scale=log_uniform(1e-3, 1.0),
    n=log_uniform_int(1, 1000),
)
@example(atoms=512, seed=1, scale=1.0, n=20)
@example(atoms=3, seed=1, scale=1.0, n=1000)  # overflows float range
def test_lr_sup_t_mixture_matches_atom_sum(atoms, seed, scale, n):
    pairs = _random_atoms(atoms, seed)
    got = lr_sup_t_mixture(n, SnrMixture(atoms=pairs, scale=scale))
    expected = oracles.lr_sup_t_mixture_by_atom(n, pairs, scale)
    if math.isinf(expected):
        assert got == math.inf
    else:
        assert got == pytest.approx(expected, rel=1e-11)


@given(
    p=st.one_of(st.just(2), log_uniform_int(1, 100_000)),
    t=st.floats(0.0, 1e6),
    factor=st.floats(1.0, 10.0),
)
@example(p=2, t=1000.0, factor=1.0)
@example(p=2, t=700.0, factor=1.5)
# tiny t, where M_2 = 1 + t^2 / 4 is 1 to within a few ulp
@example(p=2, t=1e-10, factor=1.0)
@example(p=2, t=1e-9, factor=10.0)
@example(p=2, t=1e-8, factor=3.0)
@example(p=2, t=2.6e-8, factor=1.15)
@example(p=2, t=3e-8, factor=1.0)
def test_m_p_at_least_one_and_nondecreasing(p, t, factor):
    low, high = m_p(p, t), m_p(p, -t * factor)
    assert low >= 1.0
    assert high >= low


# relative slack of the monotonicity checks, the same round-off allowance
# min_n_search gives the curves it evaluates
SLACK = 1e-12


@given(
    p=log_uniform_int(1, 100_000),
    n=log_uniform_int(1, 2000),
    step=st.integers(1, 1000),
    delta=log_uniform(1e-3, 2.0),
)
# from n to n + 1 the window's first term leaves k = 0
@example(p=1, n=314, step=1, delta=0.5)
@example(p=3, n=65, step=1, delta=1.5)
@example(p=10, n=583, step=1, delta=0.3)
@example(p=300, n=64, step=1, delta=0.7)
def test_lr_sup_f_nondecreasing_in_n(p, n, step, delta):
    low, high = lr_sup_f(p, n, delta), lr_sup_f(p, n + step, delta)
    assert high >= low * (1.0 - SLACK)


@given(
    p=log_uniform_int(1, 100_000),
    n=log_uniform_int(1, 100_000),
    step=st.integers(1, 1000),
    where=st.floats(0.0, 1.0, exclude_max=True),
)
@example(p=1, n=1, step=1, where=0.0)
@example(p=3, n=400, step=1, where=0.5)
@example(p=100_000, n=7, step=1000, where=0.99)
def test_log_lr_sup_f_nondecreasing_across_the_window_switch(p, n, step, where):
    # a delta at which the mode passes the switch between n and n + step
    lo = _f_delta_at_mode(p, n + step, f_test._SHORT_MODE)
    hi = _f_delta_at_mode(p, n, f_test._SHORT_MODE)
    delta = lo + where * (hi - lo)
    below = f_test._f_mode(p, n, 0.5 * (n + p) * delta * delta)
    above = f_test._f_mode(p, n + step, 0.5 * (n + step + p) * delta * delta)
    assume(below < f_test._SHORT_MODE <= above)
    low, high = log_lr_sup_f(p, n, delta), log_lr_sup_f(p, n + step, delta)
    assert high >= low + math.log1p(-SLACK)


@given(
    p=log_uniform_int(1, 100_000),
    n=log_uniform_int(1, 2000),
    delta=log_uniform(1e-3, 1.0),
    factor=st.floats(1.0, 2.0),
)
def test_lr_sup_f_nondecreasing_in_delta(p, n, delta, factor):
    low, high = lr_sup_f(p, n, delta), lr_sup_f(p, n, delta * factor)
    assert high >= low * (1.0 - SLACK)


@given(
    n=log_uniform_int(1, 2000),
    step=st.integers(1, 1000),
    r=log_uniform(1e-3, 1.0),
)
def test_lr_sup_t_nondecreasing_in_n(n, step, r):
    low, high = lr_sup_t(n, r), lr_sup_t(n + step, r)
    assert high >= low * (1.0 - SLACK)


@settings(max_examples=20)
@given(
    atoms=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    scale=log_uniform(1e-2, 1.0),
    n=log_uniform_int(1, 2000),
    step=st.integers(1, 1000),
)
# from n to n + 1 the window's first term leaves k = 0
@example(atoms=1, seed=0, scale=1.0, n=131, step=1)
@example(atoms=3, seed=1, scale=0.3, n=1183, step=1)
def test_lr_sup_t_mixture_nondecreasing_in_n(atoms, seed, scale, n, step):
    mixture = SnrMixture(atoms=_random_atoms(atoms, seed), scale=scale)
    low, high = lr_sup_t_mixture(n, mixture), lr_sup_t_mixture(n + step, mixture)
    assert high >= low * (1.0 - SLACK)


@given(
    n=log_uniform_int(1, 2000),
    r=log_uniform(1e-3, 1.0),
    factor=st.floats(1.0, 2.0),
)
def test_lr_sup_t_nondecreasing_in_r(n, r, factor):
    low, high = lr_sup_t(n, r), lr_sup_t(n, r * factor)
    assert high >= low * (1.0 - SLACK)


@given(n=log_uniform_int(1, 5000), r=log_uniform(1e-3, 2.0))
@example(n=1000, r=0.87)  # about exp(708), just inside float range
def test_log_lr_sup_t_is_the_log(n, r):
    value = lr_sup_t(n, r)
    if math.isfinite(value):
        # lr_sup_t sums against a fixed scale, log_lr_sup_t in the log
        # domain, so the two agree to rounding, not bit for bit
        assert math.exp(log_lr_sup_t(n, r)) == pytest.approx(value, rel=1e-12)


@given(
    p=log_uniform_int(1, 100_000),
    n=log_uniform_int(1, 5000),
    delta=log_uniform(1e-3, 2.0),
)
def test_log_lr_sup_f_is_the_log(p, n, delta):
    value = lr_sup_f(p, n, delta)
    if math.isfinite(value):
        assert math.exp(log_lr_sup_f(p, n, delta)) == pytest.approx(value, rel=1e-12)


def _plan(kind: str, target: PfdrTarget, effect: float, p: int, atoms: int, seed: int):
    """One planner's report and its density-ratio curve n -> rho_n."""
    if kind == "t":
        return plan_t(target, SnrEffect(effect)), lambda n: lr_sup_t(n, effect)
    if kind == "f":
        return plan_f(target, FEffect(effect, p)), lambda n: lr_sup_f(p, n, effect)
    mixture = SnrMixture(atoms=_random_atoms(atoms, seed), scale=effect)
    return plan_t_mixture(target, mixture), lambda n: lr_sup_t_mixture(n, mixture)


@given(
    kind=st.sampled_from(["t", "f", "mixture"]),
    alpha=log_uniform(1e-3, 0.3),
    pi=log_uniform(1e-3, 0.5),
    effect=log_uniform(0.01, 1.0),
    p=log_uniform_int(1, 1000),
    atoms=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_n_exact_is_minimal(kind, alpha, pi, effect, p, atoms, seed):
    report, rho = _plan(kind, PfdrTarget(alpha, pi), effect, p, atoms, seed)
    n = report.n_exact
    q = (1.0 - alpha) * (1.0 - pi) / (alpha * pi)
    assert q <= rho(n)
    if n > 1:
        assert rho(n - 1) < q


# Plans pinned while the F and mixture series were still summed from k = 0:
# (kind, alpha, pi, effect, p or (atoms, seed), n_max, status, n_exact,
# regime), where effect is delta for F and the scale for mixtures, and an
# n_max of None leaves the default
GOLDEN_PLANS = [
    ("f", 0.05, 0.1, 1.0, 10000, None, "ok", 15, "f-log-power"),
    ("f", 0.01, 0.01, 0.1, 10000, None, "ok", 1596, "f-log-power"),
    ("f", 0.05, 0.1, 0.02, 10000, None, "ok", 11803, "f-quadratic-root"),
    ("f", 0.1, 0.3, 0.5, 10000, None, "ok", 28, "f-log-power"),
    ("f", 0.05, 0.1, 0.01, 2, None, "ok", 702, "f-mgf-inversion"),
    ("f", 0.01, 0.1, 0.3, 1, None, "ok", 27, "f-quadratic-root"),
    ("f", 0.001, 0.01, 0.5, 1, None, "ok", 27, "f-quadratic-root"),
    ("f", 0.05, 0.1, 0.7, 300, None, "ok", 25, "f-log-power"),
    ("f", 0.01, 0.01, 0.2, 300, None, "ok", 262, "f-log-power"),
    ("f", 0.05, 0.3, 0.3, 10, None, "ok", 31, "f-quadratic-root"),
    ("f", 0.001, 0.001, 0.05, 40, None, "ok", 742, "f-mgf-inversion"),
    ("f", 0.1, 0.1, 1.5, 3, None, "ok", 6, "f-quadratic-root"),
    ("f", 0.05, 0.1, 0.05, 100000, None, "ok", 3962, "f-quadratic-root"),
    ("f", 0.01, 0.1, 2.0, 100000, None, "ok", 9, "f-log-power"),
    ("f", 0.05, 0.1, 0.015, 5021, 9, "NotAttainableError", None, None),
    ("f", 0.05, 0.1, 0.3, 1000, 3, "NotAttainableError", None, None),
    ("f", 0.3, 0.5, 0.01, 7, None, "ok", 357, "f-mgf-inversion"),
    ("f", 0.01, 0.01, 0.03, 1, None, "ok", 332, "f-mgf-inversion"),
    ("f", 0.05, 0.01, 0.15, 2000, None, "ok", 538, "f-log-power"),
    ("f", 0.001, 0.1, 1.0, 50, None, "ok", 22, "f-log-power"),
    ("mixture", 0.05, 0.1, 1.0, (1, 0), None, "ok", 10, "t-mixture-mgf"),
    ("mixture", 0.05, 0.1, 0.1, (1, 3), None, "ok", 102, "t-mixture-mgf"),
    ("mixture", 0.01, 0.01, 0.05, (4, 1), None, "ok", 150, "t-mixture-mgf"),
    ("mixture", 0.05, 0.1, 0.5, (4, 2), None, "ok", 11, "t-mixture-mgf"),
    ("mixture", 0.1, 0.3, 0.02, (16, 5), None, "ok", 123, "t-mixture-mgf"),
    ("mixture", 0.001, 0.01, 0.2, (16, 6), None, "ok", 42, "t-mixture-mgf"),
    ("mixture", 0.05, 0.1, 0.01, (128, 7), None, "ok", 349, "t-mixture-mgf"),
    ("mixture", 0.01, 0.1, 0.3, (128, 8), None, "ok", 16, "t-mixture-mgf"),
    ("mixture", 0.05, 0.1, 2.0, (128, 9), None, "ok", 3, "t-mixture-mgf"),
    ("mixture", 0.001, 0.001, 0.005, (128, 10), None, "ok", 1642, "t-mixture-mgf"),
    ("mixture", 0.05, 0.1, 0.1, (512, 11), None, "ok", 38, "t-mixture-mgf"),
    ("mixture", 0.3, 0.5, 0.01, (2, 12), None, "ok", 209, "t-mixture-mgf"),
    ("mixture", 0.05, 0.1, 0.003, (8, 13), 5, "NotAttainableError", None, None),
    ("mixture", 0.01, 0.01, 1.5, (3, 14), None, "ok", 6, "t-mixture-mgf"),
    ("mixture", 0.05, 0.3, 0.05, (64, 15), None, "ok", 58, "t-mixture-mgf"),
    ("mixture", 0.001, 0.1, 0.7, (32, 16), None, "ok", 11, "t-mixture-mgf"),
    ("mixture", 0.1, 0.01, 0.001, (5, 17), None, "ok", 5559, "t-mixture-mgf"),
    ("mixture", 0.01, 0.3, 3.0, (2, 18), None, "ok", 5, "t-mixture-mgf"),
    ("mixture", 0.05, 0.1, 0.004, (256, 19), None, "ok", 886, "t-mixture-mgf"),
    ("mixture", 0.05, 0.1, 0.002, (7, 20), 10, "NotAttainableError", None, None),
]


@pytest.mark.parametrize(
    "kind,alpha,pi,effect,shape,n_max,status,n_exact,regime", GOLDEN_PLANS
)
def test_golden_plans(kind, alpha, pi, effect, shape, n_max, status, n_exact, regime):
    target = PfdrTarget(alpha, pi)
    kwargs = {} if n_max is None else {"n_max": n_max}
    if kind == "f":
        plan = lambda: plan_f(target, FEffect(effect, shape), **kwargs)
    else:
        mixture = SnrMixture(atoms=_random_atoms(*shape), scale=effect)
        plan = lambda: plan_t_mixture(target, mixture, **kwargs)
    if status == "NotAttainableError":
        with pytest.raises(NotAttainableError):
            plan()
    else:
        report = plan()
        assert (report.n_exact, report.regime) == (n_exact, regime)
