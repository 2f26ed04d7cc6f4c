import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from pfdr_sizer.cli import main, parse_config

PLAN_F_ARGS = [
    "plan-f", "--alpha", "0.05", "--pi", "0.1", "--delta", "1", "--p", "10000",
]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert "no truncation" in report["diagnostics"]["message"]


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
