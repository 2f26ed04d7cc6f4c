import ast
import contextlib
import csv
import functools
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfdr_sizer import mc_verify
from pfdr_sizer.cli import _OUTCOMES, _flatten, _to_json, main, parse_config
from pfdr_sizer.f_test import log_lr_sup_f
from pfdr_sizer.ldp_engine import FAMILIES
from pfdr_sizer.normal_t import SnrMixture, log_lr_sup_t, log_lr_sup_t_mixture
from pfdr_sizer.pfdr_core import PfdrTarget

PLAN_F_ARGS = [
    "plan-f", "--alpha", "0.05", "--pi", "0.1", "--delta", "1", "--p", "10000",
]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_TEXT = st.text(max_size=12) | st.sampled_from(
    ['"', "\\", '\\"', "\t\n\r\x00\x1f", "\x7f", "é ü ∞ 漢 😀"]
)
_REPORTS = st.recursive(
    st.floats() | st.integers() | st.none() | st.booleans() | _TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=20,
)


def _as_parsed(obj):
    """What json.loads must return for _to_json(obj): non-finite floats
    travel as strings, every other value exactly."""
    if isinstance(obj, dict):
        return {key: _as_parsed(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_as_parsed(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    return obj


class TestReportShape:
    def test_plan_f_example(self, capsys):
        code, out, err = _run(capsys, PLAN_F_ARGS)
        assert code == 0
        assert err == ""
        # integral floats render without a decimal tail
        assert '"n_asymptotic": 15' in out
        report = json.loads(out)
        assert set(report) == {
            "command", "inputs", "outputs", "diagnostics", "status",
            "tool_version", "seed",
        }
        assert report["command"] == "plan-f"
        assert report["status"] == "ok"
        assert report["outputs"]["n_exact"] == 15
        assert report["outputs"]["regime"] == "f-log-power"
        assert report["inputs"]["p"] == 10000

    def test_floats_round_trip_at_full_precision(self, capsys):
        code, out, _ = _run(capsys, PLAN_F_ARGS)
        report = json.loads(out)
        assert report["inputs"]["alpha"] == 0.05
        # seventeen significant digits appear literally in the text
        assert "0.050000000000000003" in out

    def test_seed_recorded(self, capsys):
        code, out, _ = _run(capsys, PLAN_F_ARGS + ["--seed", "42"])
        assert json.loads(out)["seed"] == 42

    def test_csv_format(self, capsys):
        code, out, _ = _run(capsys, PLAN_F_ARGS + ["--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["key", "value"]
        table = {k: v for k, v in rows[1:]}
        assert table["outputs.n_exact"] == "15"
        assert table["status"] == "ok"
        assert table["command"] == "plan-f"

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = _run(capsys, PLAN_F_ARGS + ["--output", str(path)])
        assert code == 0
        assert out == ""
        report = json.loads(path.read_text())
        assert report["outputs"]["n_exact"] == 15

    def test_nonfinite_values_stay_valid_json(self, capsys):
        # an unbounded cgf domain puts infinities in the diagnostics;
        # strict parsers must still accept the report
        code, out, _ = _run(
            capsys, ["ldp-info", "--family", "uniform", "--width", "2"]
        )
        assert code == 0

        def reject(name):
            raise ValueError(name)

        report = json.loads(out, parse_constant=reject)
        assert report["diagnostics"]["domain_sup"] == "Infinity"
        assert report["diagnostics"]["domain_inf"] == "-Infinity"

    def test_control_characters_in_inputs_stay_valid_json(self, capsys):
        atoms = "1:0.5,\t2:0.5"
        code, out, _ = _run(
            capsys,
            ["plan-t-mixture", "--alpha", "0.05", "--pi", "0.1", "--atoms", atoms],
        )
        assert code == 0
        assert "\t" not in out
        assert json.loads(out)["inputs"]["atoms"] == atoms

    @given(_REPORTS)
    def test_any_report_round_trips(self, report):
        assert json.loads(_to_json(report)) == _as_parsed(report)

    def test_numpy_scalars_render_as_their_values(self):
        # numpy integers and floats print like python ones; numpy's bool is
        # neither a bool nor a number, so it prints as its text
        report = {
            "i": np.int64(3), "f": np.float32(0.5), "nan": np.float64("nan"),
            "inf": np.float64("inf"), "b": np.bool_(True),
        }
        assert _to_json(report) == (
            '{\n  "i": 3,\n  "f": 0.5,\n  "nan": "NaN",\n'
            '  "inf": "Infinity",\n  "b": "True"\n}'
        )
        rows = []
        _flatten("", report, rows)
        assert rows == [
            ("i", "3"), ("f", "0.5"), ("nan", "NaN"), ("inf", "Infinity"), ("b", "True"),
        ]


class TestCommands:
    def test_plan_t(self, capsys):
        code, out, _ = _run(
            capsys, ["plan-t", "--alpha", "0.05", "--pi", "0.1", "--snr", "0.01"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["outputs"]["n_exact"] == 515
        assert report["outputs"]["regime"] == "t-snr-rate"

    def test_plan_t_mixture_notes_travel(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "plan-t-mixture", "--alpha", "0.05", "--pi", "0.1",
                "--atoms", "1:0.5,2:0.5", "--scale", "0.01",
            ],
        )
        assert code == 0
        report = json.loads(out)
        assert report["outputs"]["regime"] == "t-mixture-mgf"
        assert report["diagnostics"]["notes"]

    def test_plan_general_gamma(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "plan-general", "--alpha", "0.05", "--pi", "0.1",
                "--family", "gamma", "--shape", "2.0", "--effect", "0.3",
                "--rho", "0.4",
            ],
        )
        assert code == 0
        report = json.loads(out)
        assert report["outputs"]["n_exact"] is None
        assert report["outputs"]["regime"] == "cgf-rate"
        assert report["outputs"]["n_asymptotic"] > 1.0

    def test_huge_plan_prints_its_ceiling_as_a_float(self, capsys):
        argv = [
            "plan-general", "--alpha", "0.05", "--pi", "0.1", "--family", "normal",
            "--effect", "1e-300", "--rho", "0.5",
        ]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert '"n_ceiling": 1.0283327113005319e+301,' in out
        code, out, _ = _run(capsys, argv[:-3] + ["0.3", "--rho", "0.4"])
        assert code == 0
        assert '"n_ceiling": 35,' in out

    def test_plan_score(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "plan-score", "--alpha", "0.05", "--pi", "0.1",
                "--family", "normal-score", "--effect", "0.5", "--rho", "0.5",
            ],
        )
        assert code == 0
        assert json.loads(out)["outputs"]["regime"] == "score-rate"

    def test_optimize_split(self, capsys):
        code, out, _ = _run(capsys, ["optimize-split", "--family", "normal"])
        assert code == 0
        report = json.loads(out)
        assert report["outputs"]["rho_star"] == pytest.approx(0.5, abs=1e-6)
        assert report["outputs"]["boundary"] is None

    def test_optimize_split_boundary_case(self, capsys):
        code, out, _ = _run(
            capsys, ["optimize-split", "--family", "uniform", "--width", "1.0"]
        )
        report = json.loads(out)
        assert report["outputs"]["rho_star"] is None
        assert report["outputs"]["boundary"] == "upper"

    def test_simulate_pfdr(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "simulate", "--family", "normal", "--effect", "0", "--pi", "0.5",
                "--n", "5", "--m", "5", "--trials", "40", "--z0", "0.4",
                "--batch-nulls", "2000", "--seed", "7",
            ],
        )
        assert code == 0
        report = json.loads(out)
        assert report["outputs"]["pfdr_hat"] == pytest.approx(0.5, abs=0.05)
        assert report["diagnostics"]["n_total"] == 10

    def test_simulate_tail_ratio_at_zero(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "simulate", "--family", "normal", "--estimand", "tail-ratio",
                "--n", "4", "--m", "4", "--trials", "5000", "--z0", "0.5",
                "--t-target", "0",
            ],
        )
        assert code == 0
        report = json.loads(out)
        assert report["outputs"]["ratio_hat"] == 1.0
        assert report["outputs"]["stderr"] == 0.0

    def test_ldp_info(self, capsys):
        code, out, _ = _run(
            capsys, ["ldp-info", "--family", "normal", "--rho", "0.5", "--u", "1.0"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "ok"


    @pytest.mark.parametrize(
        "args,n_asymptotic",
        [
            ("plan-general --family normal --sigma 1e-154", 7.86e-153),
            ("plan-general --family uniform --width 1e-153", 8.57e-153),
            ("plan-score --family normal-score --sigma 1e154", 7.86e155),
        ],
    )
    def test_curvature_near_the_float_floor_plans(self, capsys, args, n_asymptotic):
        # the root search's starting point used to overflow at rho = 0.95
        argv = args.split() + [
            "--alpha", "0.05", "--pi", "0.1", "--effect", "0.3", "--rho", "0.95",
        ]
        code, out, err = _run(capsys, argv)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["status"] == "ok"
        assert report["outputs"]["n_asymptotic"] == pytest.approx(
            n_asymptotic, rel=1e-3
        )


class TestFailureStatuses:
    def test_not_attainable_exit_one_with_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = _run(
            capsys,
            [
                "plan-t", "--alpha", "0.05", "--pi", "0.1", "--snr", "1e-4",
                "--n-max", "1000", "--output", str(path),
            ],
        )
        assert code == 1
        report = json.loads(path.read_text())
        assert report["status"] == "not-attainable"
        assert report["outputs"]["n_exact"] is None
        assert report["diagnostics"]["n_max"] == 1000
        assert report["diagnostics"]["rho_at_n_max"] < report["diagnostics"]["q_value"]

    def test_insufficient_hits_exit_one(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "simulate", "--family", "normal", "--estimand", "tail-ratio",
                "--n", "4", "--m", "4", "--trials", "1000", "--z0", "8.0",
                "--t-target", "1",
            ],
        )
        assert code == 1
        report = json.loads(out)
        assert report["status"] == "insufficient-hits"
        assert report["outputs"]["ratio_hat"] is None

    def test_underflowing_f_effect_is_not_attainable(self, capsys):
        code, out, err = _run(
            capsys,
            ["plan-f", "--alpha", "0.05", "--pi", "0.1", "--delta", "1e-300", "--p", "3"],
        )
        assert code == 1
        assert err == ""
        assert json.loads(out)["status"] == "not-attainable"

    @pytest.mark.parametrize(
        "argv",
        [
            ["plan-f", "--delta", "1e-156", "--p", "3"],
            ["plan-t-mixture", "--atoms", "1:1", "--scale", "1e-320"],
        ],
    )
    def test_steep_series_edge_is_not_attainable_without_warning(self, capsys, argv):
        # consecutive log terms differ by more than 709 at the window's edge,
        # where expm1 of the difference used to overflow
        code, out, err = _run(capsys, argv + ["--alpha", "0.05", "--pi", "0.1"])
        assert (code, err) == (1, "")
        assert json.loads(out)["status"] == "not-attainable"

    def test_degenerate_scenario_exit_one(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "simulate", "--family", "normal", "--n", "4", "--m", "4",
                "--trials", "5", "--z0", "50.0", "--batch-nulls", "100",
            ],
        )
        assert code == 1
        assert json.loads(out)["status"] == "degenerate-scenario"


    def test_root_bracket_failure_exit_one(self, capsys, tmp_path):
        # an empirical cgf has a finite domain, and at rho = 0.9999 the tilt
        # root lies beyond it
        sample = tmp_path / "gamma.txt"
        np.savetxt(sample, np.random.default_rng(5).gamma(2.0, size=2000))
        code, out, err = _run(
            capsys,
            [
                "plan-general", "--alpha", "0.05", "--pi", "0.1",
                "--family", "empirical", "--sample-file", str(sample),
                "--effect", "0.3", "--rho", "0.9999",
            ],
        )
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["status"] == "root-not-bracketed"
        assert report["outputs"] == {}
        assert "domain boundary" in report["diagnostics"]["message"]

    def test_empty_sample_file_is_one_error_line(self, tmp_path):
        # a fresh process, so that a warning printed on stderr is seen
        sample = tmp_path / "empty.txt"
        sample.write_text("")
        proc = subprocess.run(
            [sys.executable, "-c",
             "from pfdr_sizer.cli import main_entry; main_entry()",
             "plan-general", "--alpha", "0.05", "--pi", "0.1",
             "--family", "empirical", "--sample-file", str(sample),
             "--effect", "0.3", "--rho", "0.4"],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: sample file {str(sample)!r} holds no observations\n"

    def test_series_divergence_exit_one(self, capsys):
        code, out, err = _run(
            capsys,
            [
                "plan-f", "--alpha", "0.05", "--pi", "0.1", "--delta", "1",
                "--p", "3000000",
            ],
        )
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["status"] == "series-diverged"
        assert report["outputs"] == {}
        message = report["diagnostics"]["message"]
        assert "no truncation after 1000000 terms" in message
        assert "terms peak at k = " in message
        assert "rel_tol 1e-14" in message

    def test_ratio_below_one_is_a_fault_not_a_usage_error(self, capsys, monkeypatch):
        from pfdr_sizer import f_test

        monkeypatch.setattr(f_test, "log_lr_sup_f", lambda *args, **kwargs: math.log(0.5))
        code, out, err = _run(capsys, PLAN_F_ARGS)
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["status"] == "invalid-ratio"
        assert report["outputs"] == {}
        # the search starts at plan-f's smaller rate asymptote, here the log
        # power, n = 15 (the mgf inversion reads 320.8)
        assert "rho_15 = 0.5" in report["diagnostics"]["message"]

    def test_non_monotone_curve_is_a_fault(self, capsys, monkeypatch):
        from pfdr_sizer import normal_t

        monkeypatch.setattr(normal_t, "log_lr_sup_t", lambda n, r: 10.0 - math.log(n))
        code, out, err = _run(
            capsys, ["plan-t", "--alpha", "0.05", "--pi", "0.1", "--snr", "0.5"]
        )
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["status"] == "non-monotone-curve"
        assert report["outputs"] == {}
        message = report["diagnostics"]["message"]
        # the message gives the values rho = exp(log rho), not the logs
        assert f"rho_1 = {math.exp(10.0)!r}" in message
        assert f"rho_4 = {math.exp(10.0 - math.log(4.0))!r}" in message


def _with_required(argv):
    command, rest = argv[0], argv[1:]
    if command == "simulate":
        rest += ["--n", "4", "--m", "4", "--trials", "2", "--z0", "0.5"]
    else:
        rest += ["--alpha", "0.05", "--pi", "0.1"]
    if command in ("plan-general", "plan-score"):
        rest += ["--effect", "0.3", "--rho", "0.5"]
    return [command, *rest]


# float flags at the edges of their ranges and of float range itself
EDGE_VALUES = ["0.0", "1e-320", "1e-300", "0.05", "1.0", "1e+300", "inf", "nan", "-0.0"]
EDGE_PLANS = {
    "plan-t": lambda e: ["plan-t", "--snr", e],
    "plan-f": lambda e: ["plan-f", "--delta", e, "--p", "3"],
    "plan-t-mixture": lambda e: ["plan-t-mixture", "--atoms", f"{e}:1", "--scale", e],
    "plan-general": lambda e: [
        "plan-general", "--family", "normal", "--effect", e, "--rho", "0.5",
    ],
    "plan-score": lambda e: [
        "plan-score", "--family", "gamma-score", "--effect", e, "--rho", "0.5",
    ],
}

# the float flags of the other commands, each drawn from EDGE_VALUES, with
# small sizes, so that each call is quick whatever the values
EDGE_FLAGS = {
    "simulate": ("effect", "pi", "z0", "t-target", "sigma", "width", "shape", "scale"),
    "optimize-split": ("sigma", "width", "shape", "scale"),
    "ldp-info": ("rho", "u", "sigma", "width", "shape", "scale"),
}
EDGE_SIZES = [
    "--n", "4", "--m", "3", "--trials", "20", "--batch-nulls", "50", "--min-hits", "1",
]
# optimize-split takes shift families only
SHIFT_OF = {"normal-score": "normal", "cauchy-score": "uniform", "gamma-score": "gamma"}

# integer flags at the edges of their ranges, of exact float integers and of
# float range, each command's drawn over ordinary float flags; the run budget
# and the 2^53 bound keep every call quick
INT_EDGE_VALUES = ["0", "-1", "1", str(2**53 + 1), str(10**10), str(10**400)]
_PLAN_TARGET = ["--alpha", "0.05", "--pi", "0.1"]
INT_FLAGS = {
    "plan-t": (["plan-t", *_PLAN_TARGET, "--snr", "1"], ("n-max", "seed")),
    "plan-t-mixture": (
        ["plan-t-mixture", *_PLAN_TARGET, "--atoms", "1:1"], ("n-max", "seed"),
    ),
    "plan-f": (["plan-f", *_PLAN_TARGET, "--delta", "1"], ("p", "n-max", "seed")),
    "simulate": (
        ["simulate", "--z0", "0.5", "--t-target", "1", "--shape", "2"],
        ("n", "m", "trials", "batch-nulls", "min-hits", "seed"),
    ),
}
# sizes that the float kernels or the run budget refuse past 2^53
SIZE_FLAGS = {"p", "n-max", "n", "m", "trials"}


def _edge_call(argv):
    """main(argv)'s exit code, stdout and stderr; no traceback or warning."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert caught == []
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == "" and "error: " in err.getvalue()
    else:
        assert err.getvalue() == ""
        assert (json.loads(out.getvalue())["status"] == "ok") == (code == 0)
    return code, out.getvalue(), err.getvalue()


def _log_curve(command, effect):
    """The public log kernel an exact plan of this command searches."""
    if command == "plan-t":
        return lambda n: log_lr_sup_t(n, effect)
    if command == "plan-f":
        return lambda n: log_lr_sup_f(3, n, effect)
    mixture = SnrMixture(atoms=((effect, 1.0),), scale=effect)
    return lambda n: log_lr_sup_t_mixture(n, mixture)


class TestEdgeValues:
    # 300 of the 3645 combinations; all of them ran in about 15 s on 2 cores
    @settings(max_examples=300)
    @given(
        command=st.sampled_from(sorted(EDGE_PLANS)),
        alpha=st.sampled_from(EDGE_VALUES),
        pi=st.sampled_from(EDGE_VALUES),
        effect=st.sampled_from(EDGE_VALUES),
    )
    @example(command="plan-t", alpha="0.05", pi="1e-320", effect="1.0")
    @example(command="plan-f", alpha="1e-300", pi="1e-320", effect="1.0")
    @example(command="plan-t-mixture", alpha="1e-320", pi="1e-320", effect="0.05")
    @example(command="plan-t", alpha="0.05", pi="0.05", effect="1e+300")
    @example(command="plan-f", alpha="0.05", pi="0.05", effect="1e+300")
    # mixture effects of atom times scale that underflow to 0 and overflow
    @example(command="plan-t-mixture", alpha="0.05", pi="0.05", effect="1e-300")
    @example(command="plan-t-mixture", alpha="0.05", pi="0.05", effect="1e+300")
    def test_exit_status_and_crossing(self, command, alpha, pi, effect):
        argv = EDGE_PLANS[command](effect) + ["--alpha", alpha, "--pi", pi]
        code, out, _ = _edge_call(argv)
        if code == 2:
            return
        n = json.loads(out)["outputs"].get("n_exact")
        if code == 0 and n is not None:
            log_q = PfdrTarget(float(alpha), float(pi)).log_q()
            log_rho = _log_curve(command, float(effect))
            assert log_rho(n) >= log_q
            assert n == 1 or log_rho(n - 1) < log_q

    # 300 draws; at EDGE_SIZES each call takes milliseconds
    @settings(max_examples=300)
    @given(
        command=st.sampled_from(sorted(EDGE_FLAGS)),
        family=st.sampled_from(sorted(FAMILIES)),
        estimand=st.sampled_from(["pfdr", "tail-ratio"]),
        values=st.lists(st.sampled_from(EDGE_VALUES), min_size=8, max_size=8),
    )
    # a width or scale whose square overflows, and slopes that are not finite
    @example(
        command="simulate", family="uniform", estimand="tail-ratio",
        values=["0.0", "0.05", "0.05", "1.0", "1.0", "1e+300", "1.0", "1.0"],
    )
    @example(
        command="simulate", family="gamma", estimand="pfdr",
        values=["1e+300", "0.05", "0.05", "1.0", "1.0", "1.0", "1.0", "1e+300"],
    )
    @example(
        command="ldp-info", family="normal", estimand="pfdr",
        values=["0.05", "inf", "1.0", "1.0", "1.0", "1.0", "1.0", "1.0"],
    )
    @example(
        command="ldp-info", family="gamma-score", estimand="pfdr",
        values=["0.05", "nan", "1.0", "1.0", "1.0", "1.0", "1.0", "1.0"],
    )
    def test_simulation_and_rate_commands(self, command, family, estimand, values):
        if command == "optimize-split":
            family = SHIFT_OF.get(family, family)
        argv = [command, "--family", family]
        for flag, value in zip(EDGE_FLAGS[command], values):
            argv += [f"--{flag}", value]
        if command == "simulate":
            argv += ["--estimand", estimand, *EDGE_SIZES]
        _, _, err = _edge_call(argv)
        assert "bracket_hint" not in err

    @settings(max_examples=300)
    @given(
        command=st.sampled_from(sorted(INT_FLAGS)),
        family=st.sampled_from(sorted(FAMILIES)),
        estimand=st.sampled_from(["pfdr", "tail-ratio"]),
        values=st.lists(st.sampled_from(INT_EDGE_VALUES), min_size=6, max_size=6),
    )
    @example(
        command="simulate", family="uniform", estimand="pfdr",
        values=["3", "3", "10000000000", "50", "1", "0"],
    )
    @example(
        command="simulate", family="gamma", estimand="tail-ratio",
        values=["3", "3", "10000000000", "1", "1", str(10**400)],
    )
    def test_integer_flags(self, command, family, estimand, values):
        base, flags = INT_FLAGS[command]
        argv = list(base)
        if command == "simulate":
            argv += ["--family", family, "--estimand", estimand]
        for flag, value in zip(flags, values):
            argv += [f"--{flag}", value]
        code, _, _ = _edge_call(argv)
        if any(f in SIZE_FLAGS and int(v) > 2**53 for f, v in zip(flags, values)):
            assert code == 2


class TestUsageErrors:
    def test_invalid_trials(self, capsys):
        code, out, err = _run(
            capsys,
            [
                "simulate", "--family", "normal", "--n", "4", "--m", "4",
                "--trials", "0", "--z0", "0.5",
            ],
        )
        assert code == 2
        assert "trials" in err

    def test_raw_draws_above_cap(self, capsys, monkeypatch):
        def no_draws(seed, block):
            raise AssertionError("simulate drew before checking its budget")

        monkeypatch.setattr(mc_verify, "_rng_for", no_draws)
        code, out, err = _run(
            capsys,
            [
                "simulate", "--family", "cauchy-score", "--n", "1000000",
                "--m", "1000000", "--trials", "2", "--z0", "0.5",
            ],
        )
        assert code == 2
        assert out == ""
        assert "over MAX_RUN_DRAWS = 2^32" in err

    def test_batch_nulls_above_cap(self, capsys, monkeypatch):
        def no_draws(seed, block):
            raise AssertionError("simulate drew before checking batch_nulls")

        monkeypatch.setattr(mc_verify, "_rng_for", no_draws)
        code, out, err = _run(
            capsys,
            [
                "simulate", "--family", "normal", "--n", "5", "--m", "5",
                "--trials", "2", "--z0", "0.5", "--batch-nulls", "10000000000",
            ],
        )
        assert code == 2
        assert out == ""
        assert "raw draws, over MAX_RUN_DRAWS = 2^32 = 4294967296" in err

    @pytest.mark.parametrize(
        "args,message",
        [
            ("simulate --family uniform --n 3 --m 3 --z0 0.5 --batch-nulls 50 "
             "--trials 10000000000", "over MAX_RUN_DRAWS"),
            (f"simulate --family normal --n 3 --m 3 --z0 0.5 --trials {10**400}",
             "over MAX_RUN_DRAWS"),
            ("simulate --family gamma --shape 2 --estimand tail-ratio --t-target 1 "
             "--n 3 --m 3 --z0 0.5 --trials 10000000000", "over MAX_RUN_DRAWS"),
            (f"simulate --family normal --n {10**400} --m 3 --z0 0.5 --trials 2",
             "n must be at most 2^53"),
            (f"plan-f --alpha 0.05 --pi 0.1 --delta 0.3 --p {10**400}",
             "p must be at most 2^53"),
            (f"plan-t --alpha 0.05 --pi 0.1 --snr 1e-300 --n-max {10**400}",
             "n_max must be at most 2^53"),
        ],
        ids=["uniform-batches", "trials-1e400", "gamma-tail", "n-1e400", "p-1e400",
             "n-max-1e400"],
    )
    def test_sizes_past_the_budget_or_2_53(self, capsys, monkeypatch, args, message):
        # refused before any draw, with one line and no traceback
        def no_draws(seed, block):
            raise AssertionError("simulate drew before checking its sizes")

        monkeypatch.setattr(mc_verify, "_rng_for", no_draws)
        code, out, err = _run(capsys, args.split())
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--family", "cauchy-score", "--effect", "inf", "--z0", "1"],
             "effect must be >= 0 and finite"),
            (["--family", "normal", "--z0", "inf"], "z0 must be positive and finite"),
            (["--family", "normal", "--z0", "1", "--estimand", "tail-ratio",
              "--t-target", "inf"], "t_target must be >= 0 and finite"),
            # z0 = 50 gives no hits, so min-hits 0 would divide by zero
            (["--family", "normal", "--z0", "50", "--estimand", "tail-ratio",
              "--t-target", "1", "--min-hits", "0"], "min_hits must be >= 1"),
        ],
    )
    def test_simulation_inputs(self, capsys, extra, message):
        code, out, err = _run(
            capsys, ["simulate", "--n", "5", "--m", "5", "--trials", "3", *extra]
        )
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["plan-t", "--snr", "inf"], "signal-to-noise ratio"),
            (["plan-f", "--delta", "inf", "--p", "3"], "delta"),
            (["plan-t-mixture", "--atoms", "inf:1"], "atom location"),
            (["plan-t-mixture", "--atoms", "1:1", "--scale", "inf"], "scale"),
            (["plan-general", "--family", "normal", "--sigma", "inf"], "sigma"),
            (["plan-general", "--family", "uniform", "--width", "inf"], "width"),
            (["plan-general", "--family", "gamma", "--shape", "inf"], "shape"),
            (["plan-general", "--family", "gamma", "--shape", "2", "--scale", "inf"], "scale"),
            (["plan-score", "--family", "normal-score", "--sigma", "inf"], "sigma"),
            (["simulate", "--family", "normal", "--sigma", "inf"], "sigma"),
        ],
    )
    def test_non_finite_effect_or_parameter(self, capsys, argv, name):
        code, out, err = _run(capsys, _with_required(argv))
        assert code == 2
        assert out == ""
        assert f"{name} must be positive and finite" in err

    @pytest.mark.parametrize(
        "args,name,what",
        [
            ("plan-general --family normal --sigma 1e300", "sigma", "large"),
            ("plan-general --family normal --sigma 1e-200", "sigma", "small"),
            ("plan-general --family uniform --width 1e300", "width", "large"),
            ("plan-general --family uniform --width 1e-160", "width", "small"),
            ("plan-general --family gamma --shape 2 --scale 1e300", "scale", "large"),
            ("plan-general --family gamma --shape 1e200 --scale 1e100", "shape", "large"),
            ("plan-general --family gamma --shape 1e-20", "shape", "small"),
            ("plan-score --family normal-score --sigma 1e300", "sigma", "large"),
            ("plan-score --family normal-score --sigma 1e160", "sigma", "large"),
            ("plan-score --family normal-score --sigma 1e-300", "sigma", "small"),
        ],
    )
    def test_parameter_out_of_float_range(self, capsys, args, name, what):
        # the family's curvature (or gamma's tail index) would overflow or
        # underflow; the error names the parameter, not a root-solver argument
        code, out, err = _run(capsys, _with_required(args.split()))
        assert code == 2
        assert out == ""
        assert f"{name} = " in err
        assert f"too {what}" in err

    def test_slope_beyond_the_cgf_domain_edge(self, capsys):
        code, out, err = _run(
            capsys, ["ldp-info", "--family", "gamma", "--shape", "1", "--u", "1e308"]
        )
        assert code == 2
        assert out == ""
        assert "outside the derivative range" in err

    @pytest.mark.parametrize(
        "args,tag",
        [
            ("--family uniform --u 0.6", "uniform(width=1)"),
            ("--family gamma --shape 2 --u -3", "gamma(shape=2,scale=1)"),
        ],
    )
    def test_slope_outside_the_range_names_slope_and_family(self, capsys, args, tag):
        code, out, err = _run(capsys, ["ldp-info", *args.split()])
        assert (code, out) == (2, "")
        assert "slope u = " in err
        assert f"outside the derivative range of the cgf ({tag})" in err

    @pytest.mark.parametrize(
        "args",
        [
            "plan-general --family normal --effect 1e-320 --rho 0.5",
            "plan-score --family gamma-score --effect 1e-320 --rho 0.5",
            "plan-general --family gamma --shape 1e300 --effect 1e-300 --rho 0.5",
        ],
    )
    def test_rate_too_small_to_plan(self, capsys, args):
        code, out, err = _run(capsys, args.split() + ["--alpha", "0.05", "--pi", "0.1"])
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: rate \S+ is too small: .*\n", err)

    @pytest.mark.parametrize(
        "args",
        [
            "plan-t --alpha 0.05 --pi 1e-320 --snr 1",
            "plan-f --alpha 0.05 --pi 1e-320 --delta 1 --p 3",
            "plan-t-mixture --alpha 0.05 --pi 1e-320 --atoms 1:1",
            "plan-t --alpha 1e-12 --pi 1e-320 --snr 1",
            "plan-general --alpha 0.05 --pi 1e-320 --family normal --effect 1 --rho 0.5",
            "plan-score --alpha 0.05 --pi 1e-320 --family gamma-score --effect 1 --rho 0.5",
        ],
    )
    def test_q_beyond_float_range(self, capsys, args):
        # not a usage error: Q overflows, ln Q does not, and plans decide on it
        code, out, err = _run(capsys, args.split())
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["outputs"]["q_value"] == "Infinity"
        inputs = report["inputs"]
        log_q = PfdrTarget(inputs["alpha"], inputs["pi"]).log_q()
        assert report["diagnostics"]["log_q"] == log_q
        if "--alpha 0.05 --pi 1e-320 --snr 1" in args or "--atoms 1:1" in args:
            assert log_q == 739.7716798701404
            assert report["outputs"]["n_exact"] == 936

    def test_normal_score_sigma_beyond_float_range(self, capsys):
        # sigma only divides the effect, so sigma^2 may underflow; with
        # effect / sigma past float range every false null rejects
        code, out, err = _run(
            capsys,
            [
                "simulate", "--family", "normal-score", "--sigma", "1e-320", "--n", "5",
                "--m", "5", "--trials", "2", "--z0", "0.5", "--effect", "0.1",
                "--pi", "1", "--batch-nulls", "50",
            ],
        )
        assert (code, err) == (0, "")
        outputs = json.loads(out)["outputs"]
        assert (outputs["rejections"], outputs["false_rejections"]) == (100, 0)

    def test_invalid_alpha(self, capsys):
        code, _, err = _run(
            capsys, ["plan-t", "--alpha", "1.5", "--pi", "0.1", "--snr", "0.1"]
        )
        assert code == 2
        assert "alpha" in err

    def test_missing_required(self, capsys):
        code, _, err = _run(capsys, ["plan-t", "--alpha", "0.05", "--pi", "0.1"])
        assert code == 2
        assert "--snr" in err

    def test_gamma_without_shape(self, capsys):
        code, _, err = _run(
            capsys,
            [
                "plan-general", "--alpha", "0.05", "--pi", "0.1",
                "--family", "gamma", "--effect", "0.3", "--rho", "0.4",
            ],
        )
        assert code == 2
        assert "shape" in err

    def test_bad_atom_syntax(self, capsys):
        code, _, err = _run(
            capsys,
            [
                "plan-t-mixture", "--alpha", "0.05", "--pi", "0.1",
                "--atoms", "1;0.5",
            ],
        )
        assert code == 2

    def test_unwritable_output_path(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "report.json"
        code, out, err = _run(
            capsys,
            [
                "plan-t", "--alpha", "0.05", "--pi", "0.1", "--snr", "0.01",
                "--output", str(target),
            ],
        )
        assert code == 2
        assert str(target) in err
        assert out == ""


class TestConfigFile:
    def test_config_supplies_parameters(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# plan-f inputs\n"
            "alpha = 0.05\n"
            "pi = 0.1\n"
            "delta = 1.0\n"
            "p = 10000\n"
        )
        code, out, _ = _run(capsys, ["plan-f", "--config", str(cfg)])
        assert code == 0
        assert json.loads(out)["outputs"]["n_exact"] == 15

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.05\npi = 0.1\ndelta = 1.0\np = 10000\n")
        code, out, _ = _run(
            capsys, ["plan-f", "--config", str(cfg), "--delta", "0.01", "--p", "2"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["outputs"]["regime"] == "f-mgf-inversion"
        assert report["inputs"]["delta"] == 0.01

    def test_unknown_key_is_fatal_and_named(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.05\npi = 0.1\ndelta = 1.0\np = 10000\nbogus = 3\n")
        code, _, err = _run(capsys, ["plan-f", "--config", str(cfg)])
        assert code == 2
        assert "bogus" in err
        assert "plan-f" in err

    def test_choice_validation_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = pareto\n")
        code, _, err = _run(capsys, ["optimize-split", "--config", str(cfg)])
        assert code == 2

    def test_print_effective_round_trip(self, capsys, tmp_path):
        argv = PLAN_F_ARGS + ["--seed", "9"]
        code, out, _ = _run(capsys, argv + ["--print-effective-config"])
        assert code == 0
        # feeding the printed config back reproduces the same resolved run
        cfg = tmp_path / "echo.cfg"
        cfg.write_text(out)
        direct = parse_config(argv)
        echoed = parse_config(["plan-f", "--config", str(cfg)])
        assert direct == echoed


class TestReadme:
    # the README's CLI section: its example block and its list of statuses
    CLI = (
        (Path(__file__).resolve().parents[1] / "README.md")
        .read_text()
        .split("\n## CLI\n", 1)[1]
        .split("\n## ", 1)[0]
    )
    EXAMPLES = [
        shlex.split(line)
        for line in CLI.split("```")[1].replace("\\\n", " ").splitlines()
        if line.strip()
    ]

    @pytest.mark.parametrize("argv", EXAMPLES, ids=[argv[1] for argv in EXAMPLES])
    def test_example_runs(self, capsys, argv):
        assert argv[0] == "pfdr-sizer"
        code, out, err = _run(capsys, argv[1:])
        assert (code, err) == (0, "")
        assert json.loads(out)["status"] == "ok"

    def test_statuses_are_the_outcome_table(self):
        listed = re.findall(r"^- `([a-z-]+)`:", self.CLI, re.MULTILINE)
        assert sorted(listed) == sorted(status for status, _, _ in _OUTCOMES.values())


class TestEntryPoint:
    def test_installed_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pfdr_sizer.cli", *PLAN_F_ARGS[0:1],
             "--alpha", "0.05", "--pi", "0.1", "--delta", "1", "--p", "10000"],
            capture_output=True, text=True,
        )
        # module execution path mirrors the console script
        assert proc.returncode == 0
        assert '"n_asymptotic": 15' in proc.stdout

    def test_reader_gone_before_the_report(self):
        # as `pfdr-sizer plan-t ... | head -1` can leave it: the read end is
        # closed before the process writes, so its write fails with EPIPE
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-c",
                 "from pfdr_sizer.cli import main_entry; main_entry()",
                 "plan-t", "--alpha", "0.05", "--pi", "0.1", "--snr", "0.5"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")


# fresh CLI processes, one or more per subcommand, with whether they load
# numpy: only simulate, the mixture series and F series whose mode reaches
# the numpy window need it, the rest run on math alone.  The library imports
# no scipy (TestScipyFree reads its source), so these also show that no
# other package a command loads pulls scipy in
SCIPY_FREE = {
    "plan-t": (0, False, ["plan-t", "--alpha", "0.05", "--pi", "0.1", "--snr", "0.01"]),
    "plan-t-not-attainable": (1, False, [
        "plan-t", "--alpha", "0.05", "--pi", "0.1", "--snr", "0.01", "--n-max", "10",
    ]),
    "plan-f": (0, True, PLAN_F_ARGS),
    # every mode this search meets lies below f_test._SHORT_MODE
    "plan-f-short-window": (0, False, [
        "plan-f", "--alpha", "0.05", "--pi", "0.1", "--delta", "0.3", "--p", "10",
    ]),
    "plan-t-mixture": (0, True, [
        "plan-t-mixture", "--alpha", "0.05", "--pi", "0.1",
        "--atoms", "1:0.5,2:0.5", "--scale", "0.01",
    ]),
    "plan-general-normal": (0, False, [
        "plan-general", "--alpha", "0.05", "--pi", "0.1", "--family", "normal",
        "--effect", "0.3", "--rho", "0.4",
    ]),
    "plan-score-normal-score": (0, False, [
        "plan-score", "--alpha", "0.05", "--pi", "0.1", "--family", "normal-score",
        "--effect", "0.5", "--rho", "0.3",
    ]),
    "plan-score-cauchy": (0, False, [
        "plan-score", "--alpha", "0.05", "--pi", "0.1", "--family", "cauchy-score",
        "--effect", "0.5", "--rho", "0.3",
    ]),
    "plan-score-gamma": (0, False, [
        "plan-score", "--alpha", "0.05", "--pi", "0.1", "--family", "gamma-score",
        "--effect", "0.5", "--rho", "0.3",
    ]),
    "simulate-normal": (0, True, [
        "simulate", "--family", "normal", "--effect", "0", "--pi", "0.5",
        "--n", "5", "--m", "5", "--trials", "40", "--z0", "0.4", "--seed", "7",
    ]),
    "simulate-gamma-score": (0, True, [
        "simulate", "--family", "gamma-score", "--effect", "0.3", "--pi", "0.5",
        "--n", "5", "--m", "5", "--trials", "40", "--z0", "0.4", "--seed", "7",
    ]),
    "optimize-split-normal": (0, False, ["optimize-split", "--family", "normal"]),
    "ldp-info-uniform": (0, False, [
        "ldp-info", "--family", "uniform", "--width", "2", "--rho", "0.5", "--u", "0.3",
    ]),
    "ldp-info-gamma": (0, False, [
        "ldp-info", "--family", "gamma", "--shape", "2", "--rho", "0.5", "--u", "0.3",
    ]),
    "ldp-info-cauchy-score": (0, False, [
        "ldp-info", "--family", "cauchy-score", "--rho", "0.5", "--u", "0.3",
    ]),
    "ldp-info-gamma-score": (0, False, [
        "ldp-info", "--family", "gamma-score", "--rho", "0.5", "--u", "0.3",
    ]),
    "usage-error": (2, False, ["plan-t", "--alpha", "2", "--pi", "0.1", "--snr", "0.1"]),
    "usage-error-missing": (2, False, [
        "plan-f", "--alpha", "0.05", "--pi", "0.1", "--delta", "0.3",
    ]),
    "usage-error-not-a-choice": (2, False, ["optimize-split", "--family", "cauchy"]),
    "usage-error-empirical": (2, False, [
        "plan-general", "--alpha", "0.05", "--pi", "0.1", "--family", "empirical",
        "--effect", "0.3", "--rho", "0.4",
    ]),
}


# the pfdr_sizer modules, beside the package and cli, that a CLI process
# loads for each command; a usage error loads no more than its command
_CORE = {"numerics", "pfdr_core"}
COMMAND_MODULES = {
    "plan-t": _CORE | {"normal_t"},
    "plan-t-mixture": _CORE | {"normal_t"},
    "plan-f": _CORE | {"normal_t", "f_test"},
    "plan-general": _CORE | {"ldp_engine"},
    "plan-score": _CORE | {"ldp_engine"},
    "optimize-split": _CORE | {"ldp_engine"},
    "ldp-info": _CORE | {"ldp_engine"},
    "simulate": _CORE | {"ldp_engine", "mc_verify"},
}


@functools.lru_cache(maxsize=None)
def _cold_imports(argv):
    """Exit code and the packages a fresh CLI process imports.

    The process runs the console script's entry point, so pfdr_sizer.cli
    itself is among the imports listed.  Each module listed by -X
    importtime counts for its top-level package and for its first
    subpackage: "scipy.special._ufuncs" adds "scipy" and "scipy.special".
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "from pfdr_sizer.cli import main_entry; main_entry()", *argv],
        capture_output=True, text=True,
    )
    names = set()
    for line in proc.stderr.splitlines():
        if line.startswith("import time:"):
            parts = line.rsplit("|", 1)[1].strip().split(".")
            names.update({parts[0], ".".join(parts[:2])})
    # an empty or misread list must not pass for a lean one
    assert "pfdr_sizer.cli" in names
    return proc.returncode, names


class TestColdImports:
    @pytest.mark.parametrize("name", sorted(SCIPY_FREE))
    def test_loads_no_scipy(self, name):
        code, numpy, argv = SCIPY_FREE[name]
        got, names = _cold_imports(tuple(argv))
        assert got == code
        assert ("numpy" in names) == numpy
        assert "scipy" not in names

    @pytest.mark.parametrize("name", sorted(SCIPY_FREE))
    def test_loads_only_its_commands_modules(self, name):
        code, _, argv = SCIPY_FREE[name]
        got, names = _cold_imports(tuple(argv))
        assert got == code
        loaded = {n.split(".")[1] for n in names if n.startswith("pfdr_sizer.")} - {"cli"}
        expected = COMMAND_MODULES[argv[0]]
        assert loaded <= expected if code == 2 else loaded == expected

    def test_importing_the_package_loads_no_numpy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, pfdr_sizer, pfdr_sizer.cli; "
             "print(sorted(m for m in ('numpy', 'scipy', 'concurrent.futures') "
             "if m in sys.modules))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestScipyFree:
    # scipy is a test-only dependency: the tests and the benchmark oracle use
    # it as an independent reference, the library never imports it
    ROOT = Path(__file__).resolve().parents[1]

    def test_library_source_imports_no_scipy(self):
        sources = sorted((self.ROOT / "src" / "pfdr_sizer").glob("*.py"))
        assert sources
        found = []
        for path in sources:
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                found += [
                    f"{path.name}:{node.lineno}"
                    for module in modules
                    if module.split(".")[0] == "scipy"
                ]
        assert found == []

    def test_scipy_is_not_a_runtime_dependency(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((self.ROOT / "pyproject.toml").read_text())["project"]
        runtime = [
            re.match(r"[\w.-]+", dep).group().lower() for dep in project["dependencies"]
        ]
        assert "numpy" in runtime
        assert "scipy" not in runtime
