import bisect
import math

import oracles
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pfdr_sizer import f_test, normal_t
from pfdr_sizer.numerics import exp_or_inf
from pfdr_sizer.pfdr_core import (
    DEFAULT_N_MAX,
    InvalidRatioError,
    LrSupCurve,
    NonMonotoneCurveError,
    NotAttainableError,
    PfdrTarget,
    min_n_search,
    min_pfdr,
    q_threshold,
)


class TestQThreshold:
    def test_examples(self):
        assert q_threshold(0.05, 0.1) == pytest.approx(171.0, rel=1e-12)
        assert q_threshold(0.5, 0.5) == pytest.approx(1.0, rel=1e-15)
        assert q_threshold(0.01, 0.01) == pytest.approx(9801.0, rel=1e-12)

    def test_decreasing_in_alpha_and_pi(self):
        assert q_threshold(0.01, 0.1) > q_threshold(0.05, 0.1)
        assert q_threshold(0.05, 0.05) > q_threshold(0.05, 0.1)

    @pytest.mark.parametrize("alpha,pi", [(0.0, 0.5), (1.0, 0.5), (0.05, 0.0), (0.05, 1.0)])
    def test_domain(self, alpha, pi):
        with pytest.raises(ValueError):
            q_threshold(alpha, pi)

    # Q overflows, or alpha * pi underflows to 0, while ln Q stays finite
    @pytest.mark.parametrize("alpha,pi", [(0.05, 1e-320), (1e-12, 1e-320), (1e-160, 1e-160)])
    def test_q_beyond_float_range_is_inf(self, alpha, pi):
        assert q_threshold(alpha, pi) == math.inf
        assert PfdrTarget(alpha, pi).q() == math.inf
        assert 0.0 < PfdrTarget(alpha, pi).log_q() < 1500.0


class TestMinPfdr:
    def test_examples(self):
        assert min_pfdr(0.1, 171.0) == pytest.approx(0.05, rel=1e-12)
        assert min_pfdr(0.5, 1.0) == pytest.approx(0.5, rel=1e-15)
        assert min_pfdr(0.1, 1.0) == pytest.approx(0.9, rel=1e-15)

    def test_inverse_identity(self):
        # plugging the threshold back in recovers the attainability boundary;
        # only meaningful where the threshold is a legal ratio sup (Q >= 1)
        for alpha in [0.01, 0.05, 0.2, 0.5]:
            for pi in [0.01, 0.1, 0.5, 0.9]:
                q = q_threshold(alpha, pi)
                if q >= 1.0:
                    assert min_pfdr(pi, q) == pytest.approx(alpha, abs=1e-12)

    def test_decreasing_in_rho(self):
        vals = [min_pfdr(0.3, rho) for rho in [1.0, 2.0, 10.0, 1e4]]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rho_below_one_rejected(self):
        with pytest.raises(ValueError):
            min_pfdr(0.3, 0.999)


def _unit_open():
    """alpha or pi log-uniform from 1e-320 to 1/2, or 1 minus one from 1e-16."""
    small = st.floats(-320.0, math.log10(0.5)).map(lambda e: 10.0**e)
    return st.one_of(small, st.floats(-16.0, math.log10(0.5)).map(lambda e: 1.0 - 10.0**e))


def _counting_curve(fn):
    calls = {"n": 0}

    def eval_(n: int) -> float:
        calls["n"] += 1
        return fn(n)

    return LrSupCurve(eval_), calls


# curves below return log rho_n, the quantity min_n_search decides on
class TestMinNSearch:
    def test_exponential_curve(self):
        target = PfdrTarget(alpha=0.05, pi=0.1)
        curve, calls = _counting_curve(lambda n: 0.01 * n)
        report = min_n_search(curve, target)
        # smallest n with exp(0.01 n) >= 171: n = ceil(100 ln 171) = 515
        assert report.n_exact == 515
        assert curve.eval(514) < target.log_q() <= curve.eval(515)
        assert report.diagnostics["monotone_checked"] == 1.0
        assert calls["n"] < 60  # doubling plus bisection, not a linear scan

    def test_weak_inequality_boundary(self):
        # log rho_n = n ln(Q) / 4: n = 4 attains the target with equality
        target = PfdrTarget(alpha=0.2, pi=0.5)
        log_q = target.log_q()
        assert log_q == pytest.approx(math.log(4.0), rel=1e-15)
        curve = LrSupCurve(lambda n: n * log_q / 4.0)
        assert curve.eval(4) == log_q
        report = min_n_search(curve, target)
        assert report.n_exact == 4

    def test_q_of_one_needs_single_observation(self):
        target = PfdrTarget(alpha=0.5, pi=0.5)
        curve = LrSupCurve(lambda n: 0.0)
        assert min_n_search(curve, target).n_exact == 1

    def test_not_attainable_reports_ceiling(self):
        target = PfdrTarget(alpha=0.05, pi=0.1)
        curve = LrSupCurve(lambda n: math.log(2.0 - 1.0 / n))
        with pytest.raises(NotAttainableError) as exc:
            min_n_search(curve, target, n_max=500)
        assert exc.value.n_max == 500
        assert exc.value.rho_at_n_max == pytest.approx(2.0 - 1.0 / 500)
        assert exc.value.q_value == pytest.approx(171.0, rel=1e-12)

    def test_non_monotone_curve_is_an_error(self):
        # doubling lands on a bracket whose interior hides an earlier crossing
        table = {1: 1.0, 2: 3.5, 3: 6.0, 4: 2.0, 5: 2.0, 6: 2.0, 7: 2.0}
        curve = LrSupCurve(lambda n: math.log(table.get(n, 10.0)))
        target = PfdrTarget(alpha=0.2, pi=0.5)  # Q = 4
        with pytest.raises(NonMonotoneCurveError) as info:
            min_n_search(curve, target)
        assert info.value.n_pair == (2, 4)
        # the message gives values, not logs (both round-trip exactly)
        assert str(info.value) == (
            "curve is not nondecreasing in n: rho_2 = 3.5 but rho_4 = 2.0"
        )

    def test_monotone_slack_is_absolute_in_log(self):
        # past float range in rho, where only logs compare: a drop of about
        # 1e-13 in log rho is round-off and passes, one of 1e-11 is not
        target = PfdrTarget(alpha=1e-300, pi=1e-300)  # ln Q = 1381.6
        for drop, fails in ((1e-13, False), (1e-11, True)):
            table = {1: 1000.0, 2: 1000.0 - drop}
            curve = LrSupCurve(lambda n: table.get(n, 2000.0))
            if fails:
                with pytest.raises(NonMonotoneCurveError) as info:
                    min_n_search(curve, target)
                assert info.value.n_pair == (1, 2)
            else:
                assert min_n_search(curve, target).n_exact == 3

    def test_non_monotone_message_gives_log_rho_past_float_range(self):
        # both rho read inf there, so only the logs show the fall
        target = PfdrTarget(alpha=1e-300, pi=1e-300)
        table = {1: 1000.0, 2: 999.0}
        curve = LrSupCurve(lambda n: table.get(n, 2000.0))
        with pytest.raises(NonMonotoneCurveError) as info:
            min_n_search(curve, target)
        assert str(info.value) == (
            "curve is not nondecreasing in n: rho_1 = inf but rho_2 = inf; "
            "log rho_1 = 1000.0 but log rho_2 = 999.0"
        )

    def test_curve_below_one_rejected(self):
        target = PfdrTarget(alpha=0.2, pi=0.5)
        curve = LrSupCurve(lambda n: math.log(0.5))
        # a numerical fault, so not a ValueError the CLI would call a usage error
        with pytest.raises(InvalidRatioError, match=r"rho_1 = 0\.5;") as info:
            min_n_search(curve, target)
        assert not isinstance(info.value, ValueError)
        # round-off just below log rho = 0 is tolerated
        curve = LrSupCurve(lambda n: -1e-10 if n == 1 else 2.0)
        assert min_n_search(curve, target).n_exact == 2

    def test_diagnostics_shape(self):
        target = PfdrTarget(alpha=0.05, pi=0.1)
        curve = LrSupCurve(lambda n: 0.5 * n)
        report = min_n_search(curve, target)
        assert report.n_exact == 11
        assert report.q_value == pytest.approx(171.0, rel=1e-12)
        d = report.diagnostics
        assert d["rho_at_n_exact"] == pytest.approx(math.exp(5.5))
        assert d["rho_below_n_exact"] == pytest.approx(math.exp(5.0))

    def test_default_ceiling_value(self):
        assert DEFAULT_N_MAX == 10_000_000


# ln Q = ln 4 (to within an ulp) for the step-curve properties below
STEP_TARGET = PfdrTarget(alpha=0.2, pi=0.5)
STEP_LOG_Q = STEP_TARGET.log_q()
FIXED_HINTS = (1.0, 0.5, 1e12, math.nan)


@st.composite
def step_curves(draw):
    """A nondecreasing step curve of log rho on [1, n_max] with levels around ln Q.

    Returns (n_max, jumps, levels): the curve is levels[i] on
    [jumps[i - 1], jumps[i]).  A jump at n_max + 1 is never reached.
    """
    n_max = draw(st.integers(1, 10_000))
    jumps = sorted(draw(st.lists(st.integers(2, n_max + 1), max_size=12, unique=True)))
    log_q = STEP_LOG_Q
    level = st.one_of(
        st.sampled_from([0.0, math.nextafter(log_q, 0.0), log_q, math.inf]),
        st.floats(0.0, log_q + math.log(3.0)),
    )
    count = len(jumps) + 1
    levels = sorted(draw(st.lists(level, min_size=count, max_size=count)))
    return n_max, jumps, levels


def _step(jumps, levels, n: int) -> float:
    return levels[bisect.bisect_right(jumps, n)]


def _recording_step_curve(jumps, levels):
    seen = []

    def eval_(n: int) -> float:
        seen.append(n)
        return _step(jumps, levels, n)

    return LrSupCurve(eval_), seen


def _first_crossing(jumps, levels, n_max):
    return next(
        (n for n in range(1, n_max + 1) if _step(jumps, levels, n) >= STEP_LOG_Q), None
    )


def _counted(monkeypatch, module, name):
    calls = []
    kernel = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestHintedSearch:
    @given(curve=step_curves(), random_hint=st.floats(-1e3, 2e4))
    @example(curve=(10_000, [5000], [0.0, STEP_LOG_Q]), random_hint=1.0)
    @example(curve=(10_000, [2, 9999], [0.0, STEP_LOG_Q, math.inf]), random_hint=9999.0)
    @example(curve=(1, [], [0.0]), random_hint=1.0)
    def test_matches_brute_force_for_any_hint(self, curve, random_hint):
        n_max, jumps, levels = curve
        expected = _first_crossing(jumps, levels, n_max)
        for hint in FIXED_HINTS + (float(n_max), random_hint):
            rho, seen = _recording_step_curve(jumps, levels)
            if expected is None:
                with pytest.raises(NotAttainableError) as info:
                    min_n_search(rho, STEP_TARGET, n_max=n_max, hint=hint)
                assert info.value.rho_at_n_max == exp_or_inf(rho.eval(n_max))
            else:
                report = min_n_search(rho, STEP_TARGET, n_max=n_max, hint=hint)
                assert report.n_exact == expected, hint
                assert report.diagnostics["monotone_checked"] == 1.0
            assert all(1 <= n <= n_max for n in seen), hint

    def test_plan_t_evaluation_budget(self, monkeypatch):
        calls = _counted(monkeypatch, normal_t, "log_lr_sup_t")
        target = PfdrTarget(alpha=0.05, pi=0.1)
        report = normal_t.plan_t(target, normal_t.SnrEffect(0.01))
        assert report.n_exact == 515
        assert len(calls) <= 4

    def test_plan_f_evaluation_budget(self, monkeypatch):
        calls = _counted(monkeypatch, f_test, "log_lr_sup_f")
        target = PfdrTarget(alpha=0.05, pi=0.1)
        report = f_test.plan_f(target, f_test.FEffect(delta=0.3, p=10))
        assert report.n_exact == 38
        assert len(calls) <= 6


class TestPfdrTarget:
    def test_q_matches_function(self):
        t = PfdrTarget(alpha=0.05, pi=0.1)
        assert t.q() == q_threshold(0.05, 0.1)

    # ln Q where Q overflows: ln 19 + 320 ln 10, which plan-t and the CLI report
    def test_log_q_beyond_float_range(self):
        assert PfdrTarget(alpha=0.05, pi=1e-320).log_q() == 739.7716798701404

    @given(alpha=_unit_open(), pi=_unit_open())
    @example(alpha=0.05, pi=1e-320)
    @example(alpha=5e-324, pi=5e-324)
    @example(alpha=0.5, pi=0.5)
    @example(alpha=1.0 - 2.0**-53, pi=1e-320)
    def test_log_q_against_mpmath(self, alpha, pi):
        terms = (math.log1p(-alpha), math.log1p(-pi), math.log(alpha), math.log(pi))
        bound = 4.0 * math.ulp(1.0) * sum(abs(x) for x in terms)
        assert abs(PfdrTarget(alpha, pi).log_q() - oracles.log_q_mpmath(alpha, pi)) <= bound

    def test_frozen(self):
        t = PfdrTarget(alpha=0.05, pi=0.1)
        with pytest.raises(AttributeError):
            t.alpha = 0.1

    @pytest.mark.parametrize("alpha,pi", [(-0.1, 0.5), (0.5, -0.1), (1.5, 0.5)])
    def test_validation(self, alpha, pi):
        with pytest.raises(ValueError):
            PfdrTarget(alpha=alpha, pi=pi)
