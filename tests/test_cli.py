import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfdr_sizer.cli import _to_json, main, parse_config

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
        assert "last log term" in message
        assert "rel_tol 1e-14" in message

    def test_ratio_below_one_is_a_fault_not_a_usage_error(self, capsys, monkeypatch):
        from pfdr_sizer import f_test

        monkeypatch.setattr(f_test, "lr_sup_f", lambda *args, **kwargs: 0.5)
        code, out, err = _run(capsys, PLAN_F_ARGS)
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["status"] == "invalid-ratio"
        assert report["outputs"] == {}
        assert "rho_1 = 0.5" in report["diagnostics"]["message"]


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

    def test_raw_draws_above_cap(self, capsys):
        code, out, err = _run(
            capsys,
            [
                "simulate", "--family", "cauchy-score", "--n", "1000000",
                "--m", "1000000", "--trials", "2", "--z0", "0.5",
            ],
        )
        assert code == 2
        assert out == ""
        assert "MAX_DRAW_CELLS" in err

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
        command, rest = argv[0], argv[1:]
        if command == "simulate":
            rest += ["--n", "4", "--m", "4", "--trials", "2", "--z0", "0.5"]
        else:
            rest += ["--alpha", "0.05", "--pi", "0.1"]
        if command in ("plan-general", "plan-score"):
            rest += ["--effect", "0.3", "--rho", "0.5"]
        code, out, err = _run(capsys, [command, *rest])
        assert code == 2
        assert out == ""
        assert f"{name} must be positive and finite" in err

    def test_slope_beyond_the_cgf_domain_edge(self, capsys):
        code, out, err = _run(
            capsys, ["ldp-info", "--family", "gamma", "--shape", "1", "--u", "1e308"]
        )
        assert code == 2
        assert out == ""
        assert "outside the derivative range" in err

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


# fresh CLI processes that must import no scipy module at all: their kernels
# need only math and numpy
SCIPY_FREE = {
    "plan-t": (0, ["plan-t", "--alpha", "0.05", "--pi", "0.1", "--snr", "0.01"]),
    "plan-general-normal": (0, [
        "plan-general", "--alpha", "0.05", "--pi", "0.1", "--family", "normal",
        "--effect", "0.3", "--rho", "0.4",
    ]),
    "simulate-normal": (0, [
        "simulate", "--family", "normal", "--effect", "0", "--pi", "0.5",
        "--n", "5", "--m", "5", "--trials", "40", "--z0", "0.4", "--seed", "7",
    ]),
    "optimize-split-normal": (0, ["optimize-split", "--family", "normal"]),
    "ldp-info-uniform": (0, [
        "ldp-info", "--family", "uniform", "--width", "2", "--rho", "0.5", "--u", "0.3",
    ]),
    "usage-error": (2, ["plan-t", "--alpha", "2", "--pi", "0.1", "--snr", "0.1"]),
}
# the other subcommands, which load scipy.special for their kernels
SCIPY_SPECIAL = {
    "plan-f": (0, PLAN_F_ARGS),
    "plan-t-mixture": (0, [
        "plan-t-mixture", "--alpha", "0.05", "--pi", "0.1",
        "--atoms", "1:0.5,2:0.5", "--scale", "0.01",
    ]),
    "plan-score-gamma": (0, [
        "plan-score", "--alpha", "0.05", "--pi", "0.1", "--family", "gamma-score",
        "--effect", "0.5", "--rho", "0.3",
    ]),
}


def _cold_imports(argv):
    """Exit code and the packages a fresh CLI process imports.

    Each module listed by -X importtime counts for its top-level package
    and for its first subpackage: "scipy.special._ufuncs" adds "scipy" and
    "scipy.special".  A subpackage that scipy loads through importlib, as
    `from scipy import special` does, is itself missing from that list,
    but the modules it imports are there.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "pfdr_sizer.cli", *argv],
        capture_output=True, text=True,
    )
    names = set()
    for line in proc.stderr.splitlines():
        if line.startswith("import time:"):
            parts = line.rsplit("|", 1)[1].strip().split(".")
            names.update({parts[0], ".".join(parts[:2])})
    return proc.returncode, names


class TestColdImports:
    @pytest.mark.parametrize("name", sorted(SCIPY_FREE))
    def test_loads_no_scipy(self, name):
        code, argv = SCIPY_FREE[name]
        got, names = _cold_imports(argv)
        assert got == code
        assert "numpy" in names
        assert "scipy" not in names

    @pytest.mark.parametrize("name", sorted(SCIPY_SPECIAL))
    def test_loads_no_optimize_or_integrate(self, name):
        code, argv = SCIPY_SPECIAL[name]
        got, names = _cold_imports(argv)
        assert got == code
        assert "scipy.special" in names
        assert "scipy.optimize" not in names
        assert "scipy.integrate" not in names
