"""Property tests of the numpy series kernels against their scalar oracles.

The oracles in oracles.py sum the same series one Python term at a time:
log_lr_sup_f_series is the F kernel the numpy summator replaced, and
lr_sup_t_mixture_by_atom averages the scalar t kernel atom by atom.  The
t and F suprema are also checked to be nondecreasing in n and in the
effect, and to agree with their log-domain variants.  The last test checks
that the planners built on these kernels return the smallest n whose
density-ratio supremum reaches Q.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
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
from pfdr_sizer.pfdr_core import PfdrTarget

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
# I0 rounds to 1 - 2 ulp below t of about 2.7e-8, and m_p clamps it to 1
@example(p=2, t=1e-10, factor=1.0)
@example(p=2, t=1e-9, factor=10.0)
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
def test_lr_sup_f_nondecreasing_in_n(p, n, step, delta):
    low, high = lr_sup_f(p, n, delta), lr_sup_f(p, n + step, delta)
    assert high >= low * (1.0 - SLACK)


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
