import bisect
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pfdr_sizer import f_test, normal_t
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

    # Q overflows, or alpha * pi underflows to 0
    @pytest.mark.parametrize("alpha,pi", [(0.05, 1e-320), (1e-12, 1e-320), (1e-160, 1e-160)])
    def test_q_beyond_float_range_is_refused(self, alpha, pi):
        with pytest.raises(ValueError, match=rf"alpha = {alpha!r} and pi = {pi!r} are too small"):
            q_threshold(alpha, pi)
        with pytest.raises(ValueError, match="overflows"):
            PfdrTarget(alpha, pi).q()


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


def _counting_curve(fn):
    calls = {"n": 0}

    def eval_(n: int) -> float:
        calls["n"] += 1
        return fn(n)

    return LrSupCurve(eval_), calls


class TestMinNSearch:
    def test_exponential_curve(self):
        target = PfdrTarget(alpha=0.05, pi=0.1)
        curve, calls = _counting_curve(lambda n: math.exp(0.01 * n))
        report = min_n_search(curve, target)
        # smallest n with exp(0.01 n) >= 171: n = ceil(100 ln 171) = 515
        assert report.n_exact == 515
        assert curve.eval(514) < target.q() <= curve.eval(515)
        assert report.diagnostics["monotone_checked"] == 1.0
        assert calls["n"] < 60  # doubling plus bisection, not a linear scan

    def test_weak_inequality_boundary(self):
        # rho_n = n and Q exactly 4: n = 4 attains the target with equality
        target = PfdrTarget(alpha=0.2, pi=0.5)
        assert target.q() == pytest.approx(4.0, rel=1e-15)
        curve = LrSupCurve(lambda n: float(n))
        report = min_n_search(curve, target)
        assert report.n_exact == 4

    def test_q_of_one_needs_single_observation(self):
        target = PfdrTarget(alpha=0.5, pi=0.5)
        curve = LrSupCurve(lambda n: 1.0)
        assert min_n_search(curve, target).n_exact == 1

    def test_not_attainable_reports_ceiling(self):
        target = PfdrTarget(alpha=0.05, pi=0.1)
        curve = LrSupCurve(lambda n: 2.0 - 1.0 / n)
        with pytest.raises(NotAttainableError) as exc:
            min_n_search(curve, target, n_max=500)
        assert exc.value.n_max == 500
        assert exc.value.rho_at_n_max == pytest.approx(2.0 - 1.0 / 500)
        assert exc.value.q_value == pytest.approx(171.0, rel=1e-12)

    def test_non_monotone_curve_is_an_error(self):
        # doubling lands on a bracket whose interior hides an earlier crossing
        table = {1: 1.0, 2: 3.0, 3: 6.0, 4: 2.0, 5: 2.0, 6: 2.0, 7: 2.0}
        curve = LrSupCurve(lambda n: table.get(n, 10.0))
        target = PfdrTarget(alpha=0.2, pi=0.5)  # Q = 4
        with pytest.raises(NonMonotoneCurveError) as info:
            min_n_search(curve, target)
        assert info.value.n_pair == (2, 4)
        assert "rho_2 = 3.0" in str(info.value)
        assert "rho_4 = 2.0" in str(info.value)

    def test_curve_below_one_rejected(self):
        target = PfdrTarget(alpha=0.2, pi=0.5)
        curve = LrSupCurve(lambda n: 0.5)
        # a numerical fault, so not a ValueError the CLI would call a usage error
        with pytest.raises(InvalidRatioError) as info:
            min_n_search(curve, target)
        assert not isinstance(info.value, ValueError)

    def test_diagnostics_shape(self):
        target = PfdrTarget(alpha=0.05, pi=0.1)
        curve = LrSupCurve(lambda n: math.exp(0.5 * n))
        report = min_n_search(curve, target)
        assert report.n_exact == 11
        assert report.q_value == pytest.approx(171.0, rel=1e-12)
        d = report.diagnostics
        assert d["rho_at_n_exact"] == pytest.approx(math.exp(5.5))
        assert d["rho_below_n_exact"] == pytest.approx(math.exp(5.0))

    def test_default_ceiling_value(self):
        assert DEFAULT_N_MAX == 10_000_000


# Q = 4 (to within an ulp) for the step-curve properties below
STEP_TARGET = PfdrTarget(alpha=0.2, pi=0.5)
FIXED_HINTS = (1.0, 0.5, 1e12, math.nan)


@st.composite
def step_curves(draw):
    """A nondecreasing step curve on [1, n_max] with levels around Q.

    Returns (n_max, jumps, levels): the curve is levels[i] on
    [jumps[i - 1], jumps[i]).  A jump at n_max + 1 is never reached.
    """
    n_max = draw(st.integers(1, 10_000))
    jumps = sorted(draw(st.lists(st.integers(2, n_max + 1), max_size=12, unique=True)))
    q = STEP_TARGET.q()
    level = st.one_of(
        st.sampled_from([1.0, math.nextafter(q, 0.0), q, math.inf]),
        st.floats(1.0, 3.0 * q),
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
    q = STEP_TARGET.q()
    return next((n for n in range(1, n_max + 1) if _step(jumps, levels, n) >= q), None)


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
    @example(curve=(10_000, [5000], [1.0, 4.0]), random_hint=1.0)
    @example(curve=(10_000, [2, 9999], [1.0, 4.0, math.inf]), random_hint=9999.0)
    @example(curve=(1, [], [1.0]), random_hint=1.0)
    def test_matches_brute_force_for_any_hint(self, curve, random_hint):
        n_max, jumps, levels = curve
        expected = _first_crossing(jumps, levels, n_max)
        for hint in FIXED_HINTS + (float(n_max), random_hint):
            rho, seen = _recording_step_curve(jumps, levels)
            if expected is None:
                with pytest.raises(NotAttainableError) as info:
                    min_n_search(rho, STEP_TARGET, n_max=n_max, hint=hint)
                assert info.value.rho_at_n_max == rho.eval(n_max)
            else:
                report = min_n_search(rho, STEP_TARGET, n_max=n_max, hint=hint)
                assert report.n_exact == expected, hint
                assert report.diagnostics["monotone_checked"] == 1.0
            assert all(1 <= n <= n_max for n in seen), hint

    def test_plan_t_evaluation_budget(self, monkeypatch):
        calls = _counted(monkeypatch, normal_t, "lr_sup_t")
        target = PfdrTarget(alpha=0.05, pi=0.1)
        report = normal_t.plan_t(target, normal_t.SnrEffect(0.01))
        assert report.n_exact == 515
        assert len(calls) <= 4

    def test_plan_f_evaluation_budget(self, monkeypatch):
        calls = _counted(monkeypatch, f_test, "lr_sup_f")
        target = PfdrTarget(alpha=0.05, pi=0.1)
        report = f_test.plan_f(target, f_test.FEffect(delta=0.3, p=10))
        assert report.n_exact == 38
        assert len(calls) <= 6


class TestPfdrTarget:
    def test_q_matches_function(self):
        t = PfdrTarget(alpha=0.05, pi=0.1)
        assert t.q() == q_threshold(0.05, 0.1)

    def test_frozen(self):
        t = PfdrTarget(alpha=0.05, pi=0.1)
        with pytest.raises(AttributeError):
            t.alpha = 0.1

    @pytest.mark.parametrize("alpha,pi", [(-0.1, 0.5), (0.5, -0.1), (1.5, 0.5)])
    def test_validation(self, alpha, pi):
        with pytest.raises(ValueError):
            PfdrTarget(alpha=alpha, pi=pi)
