"""Command line front end.

One subcommand per planning task plus the simulators; parameters come from
flags or a flat ``key = value`` config file, with flags taking precedence.
Reports go to stdout or a file, as JSON (nested) or CSV (dotted keys), with
floats at full precision so runs can be compared bit for bit.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from . import __version__
from .f_test import FEffect, plan_f
from .ldp_engine import (
    FAMILIES,
    SCORE_FAMILIES,
    SHIFT_FAMILIES,
    SplitSpec,
    TailIndex,
    empirical_cgf,
    legendre,
    make_family,
    make_score_model,
    n_star_general,
    n_star_score,
    optimal_split,
    solve_t0,
)
from .mc_verify import (
    DegenerateScenarioError,
    InsufficientHitsError,
    SimScenario,
    ThresholdSchedule,
    simulate_pfdr,
    tail_ratio_mc,
)
from .normal_t import SnrEffect, SnrMixture, plan_t, plan_t_mixture
from .numerics import RootBracketError, SeriesDivergenceError
from .pfdr_core import InvalidRatioError, NotAttainableError, PfdrTarget

__all__ = ["RunConfig", "UsageError", "parse_config", "run", "main", "main_entry"]


class UsageError(ValueError):
    """Bad command line, config file, or parameter values; exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    parameters: dict[str, Any]
    output_format: str = "json"
    output_path: str | None = None
    seed: int = 0
    print_effective: bool = False


@dataclass(frozen=True)
class Param:
    name: str
    kind: type
    required: bool = False
    default: Any = None
    choices: tuple[str, ...] | None = None
    help: str = ""


_TARGET = (
    Param("alpha", float, required=True, help="target pFDR level in (0, 1)"),
    Param("pi", float, required=True, help="prior probability a null is false"),
)

_PARAM_HELP = {"sigma": "standard deviation", "width": "support width"}


def _family_params(names: tuple[str, ...]) -> tuple[Param, ...]:
    """One flag per parameter of the named families, default from the registry."""
    params: dict[str, Param] = {}
    for name in names:
        for key, default in FAMILIES[name].params.items():
            required = f" (required for {name} family)" if default is None else ""
            text = f"{name} {_PARAM_HELP.get(key, key)}{required}"
            params.setdefault(key, Param(key, float, default=default, help=text))
    return tuple(params.values())


_FAMILY_PARAMS = _family_params(SHIFT_FAMILIES)
_EMPIRICAL_PARAMS = (
    Param("sample-file", str, help="text file of observations for family=empirical"),
    Param(
        "t-grid",
        str,
        default="-2,-1,-0.5,-0.1,0.1,0.5,1,2",
        help="comma-separated tilt grid for the empirical cgf",
    ),
    Param("tail-lambda", float, default=0.0, help="tail index for family=empirical"),
)

COMMANDS: dict[str, tuple[Param, ...]] = {
    "plan-t": _TARGET
    + (
        Param("snr", float, required=True, help="signal-to-noise ratio r > 0"),
        Param("n-max", int, default=10_000_000, help="search budget"),
    ),
    "plan-t-mixture": _TARGET
    + (
        Param(
            "atoms",
            str,
            required=True,
            help="mixture atoms as r:w pairs, e.g. 1:0.5,2:0.5",
        ),
        Param("scale", float, default=1.0, help="common scale on all atoms"),
        Param("n-max", int, default=10_000_000, help="search budget"),
    ),
    "plan-f": _TARGET
    + (
        Param("delta", float, required=True, help="noncentrality per observation"),
        Param("p", int, required=True, help="numerator constraint count"),
        Param("n-max", int, default=10_000_000, help="search budget"),
    ),
    "plan-general": _TARGET
    + (
        Param(
            "family",
            str,
            required=True,
            choices=SHIFT_FAMILIES + ("empirical",),
            help="data family",
        ),
        Param("effect", float, required=True, help="mean shift d > 0"),
        Param("rho", float, required=True, help="fraction of sample for the scale"),
    )
    + _FAMILY_PARAMS
    + _EMPIRICAL_PARAMS,
    "plan-score": _TARGET
    + (
        Param(
            "family", str, required=True, choices=SCORE_FAMILIES, help="score model"
        ),
        Param("effect", float, required=True, help="location shift theta > 0"),
        Param("rho", float, required=True, help="fraction of sample for the scale"),
    )
    + _family_params(SCORE_FAMILIES),
    "optimize-split": (
        Param(
            "family", str, required=True, choices=SHIFT_FAMILIES, help="data family"
        ),
    )
    + _FAMILY_PARAMS,
    "simulate": (
        Param(
            "family", str, required=True, choices=tuple(FAMILIES), help="data family"
        ),
        Param(
            "estimand",
            str,
            default="pfdr",
            choices=("pfdr", "tail-ratio"),
            help="what to estimate",
        ),
        Param("effect", float, default=0.0, help="shift applied to false nulls"),
        Param("pi", float, default=0.5, help="prior probability a null is false"),
        Param("n", int, required=True, help="observations for the mean"),
        Param("m", int, required=True, help="pairs for the scale estimate"),
        Param("trials", int, required=True, help="batches (pfdr) or draws (ratio)"),
        Param("z0", float, required=True, help="threshold multiplier"),
        Param(
            "schedule",
            str,
            default="fixed",
            choices=("fixed", "loglog"),
            help="threshold growth in N",
        ),
        Param("t-target", float, help="threshold growth T for estimand=tail-ratio"),
        Param("batch-nulls", int, default=10_000, help="nulls per pfdr batch"),
        Param("min-hits", int, default=100, help="minimum tail hits per side"),
    )
    + _FAMILY_PARAMS,
    "ldp-info": (
        Param(
            "family",
            str,
            required=True,
            choices=tuple(FAMILIES) + ("empirical",),
            help="data family or score model",
        ),
        Param("rho", float, default=0.5, help="fraction of sample for the scale"),
        Param("u", float, help="slope at which to report the Legendre transform"),
    )
    + _FAMILY_PARAMS
    + _EMPIRICAL_PARAMS,
}

# config keys accepted for every command alongside its parameters
_COMMON = (
    Param("format", str, default="json", choices=("json", "csv"), help="output format"),
    Param("output", str, help="write the report here instead of stdout"),
    Param("seed", int, default=0, help="stream seed for simulation commands"),
)


def _flag(name: str) -> str:
    return "--" + name


def _dest(name: str) -> str:
    return name.replace("-", "_")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfdr-sizer",
        description="Sample size planning for a target positive false discovery rate",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, params in COMMANDS.items():
        p = sub.add_parser(command)
        for param in params + _COMMON:
            p.add_argument(
                _flag(param.name),
                dest=_dest(param.name),
                type=param.kind,
                default=None,
                choices=param.choices,
                help=param.help,
            )
        p.add_argument(
            "--config", dest="config", default=None, help="flat key = value file"
        )
        p.add_argument(
            "--print-effective-config",
            dest="print_effective",
            action="store_true",
            help="echo the resolved configuration and exit",
        )
    return parser


def _read_config_file(path: str, allowed: dict[str, Param], command: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    values: dict[str, Any] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        param = allowed.get(key)
        if param is None:
            raise UsageError(
                f"{path}:{lineno}: unknown key {key!r} for command {command!r}"
            )
        try:
            value: Any = param.kind(text)
        except ValueError as exc:
            raise UsageError(
                f"{path}:{lineno}: bad value {text!r} for key {key!r}: {exc}"
            ) from exc
        if param.choices is not None and value not in param.choices:
            raise UsageError(
                f"{path}:{lineno}: value {value!r} for key {key!r} not one of "
                f"{param.choices}"
            )
        values[key] = value
    return values


def parse_config(argv: Sequence[str]) -> RunConfig:
    """Resolve argv (and any config file) into a RunConfig.

    Precedence: built-in defaults, then the config file, then explicit
    flags.  Unknown config keys are a hard error.
    """
    args = _build_parser().parse_args(list(argv))
    command = args.command
    params = COMMANDS[command] + _COMMON
    by_name = {p.name: p for p in params}

    values: dict[str, Any] = {}
    if args.config is not None:
        values.update(_read_config_file(args.config, by_name, command))
    for param in params:
        flag_value = getattr(args, _dest(param.name))
        if flag_value is not None:
            values[param.name] = flag_value
    for param in params:
        if param.name not in values and param.default is not None:
            values[param.name] = param.default
    missing = [p.name for p in params if p.required and p.name not in values]
    if missing:
        raise UsageError(
            f"command {command!r} is missing required parameters: "
            + ", ".join(_flag(name) for name in missing)
        )

    output_format = values.pop("format", "json")
    output_path = values.pop("output", None)
    seed = values.pop("seed", 0)
    return RunConfig(
        command=command,
        parameters=values,
        output_format=output_format,
        output_path=output_path,
        seed=seed,
        print_effective=bool(args.print_effective),
    )


def _render_effective(config: RunConfig) -> str:
    lines = []
    for key in sorted(config.parameters):
        lines.append(f"{key} = {_config_value(config.parameters[key])}")
    lines.append(f"format = {config.output_format}")
    if config.output_path is not None:
        lines.append(f"output = {config.output_path}")
    lines.append(f"seed = {config.seed}")
    return "\n".join(lines)


def _config_value(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# execution


# numerical faults end as exit-1 statuses that carry the message
_FAULT_STATUS = {
    RootBracketError: "root-not-bracketed",
    SeriesDivergenceError: "series-diverged",
    InvalidRatioError: "invalid-ratio",
}


def run(config: RunConfig) -> int:
    """Execute a parsed configuration; returns the process exit code."""
    if config.print_effective:
        print(_render_effective(config))
        return 0
    try:
        outputs, diagnostics = _execute(config)
        status = "ok"
    except NotAttainableError as exc:
        outputs = {"n_exact": None, "n_asymptotic": None}
        diagnostics = {
            "rho_at_n_max": exc.rho_at_n_max,
            "n_max": exc.n_max,
            "q_value": exc.q_value,
        }
        status = "not-attainable"
    except InsufficientHitsError as exc:
        outputs = {"ratio_hat": None}
        diagnostics = {
            "hits_num": exc.hits_num,
            "hits_den": exc.hits_den,
            "trials": exc.trials,
            "min_hits": exc.min_hits,
        }
        status = "insufficient-hits"
    except DegenerateScenarioError as exc:
        outputs = {"pfdr_hat": None}
        diagnostics = {
            "batches": exc.batches,
            "total_nulls": exc.total_nulls,
            "reject_rate_bound": exc.reject_rate_bound,
        }
        status = "degenerate-scenario"
    except tuple(_FAULT_STATUS) as exc:
        outputs, diagnostics = {}, {"message": str(exc)}
        status = _FAULT_STATUS[type(exc)]

    report = {
        "command": config.command,
        "inputs": dict(sorted(config.parameters.items())),
        "outputs": outputs,
        "diagnostics": diagnostics,
        "status": status,
        "tool_version": __version__,
        "seed": config.seed,
    }
    text = _to_json(report) if config.output_format == "json" else _to_csv(report)
    if config.output_path is None:
        print(text)
    else:
        try:
            with open(config.output_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write {config.output_path!r}: {exc}")
    return 0 if status == "ok" else 1


def _execute(config: RunConfig) -> tuple[dict[str, Any], dict[str, Any]]:
    p = config.parameters
    try:
        handler = _HANDLERS[config.command]
        return handler(p, config.seed)
    except ValueError as exc:  # UnsupportedFamilyError included
        raise UsageError(str(exc)) from exc


def _plan_outputs(report) -> tuple[dict[str, Any], dict[str, Any]]:
    outputs = {
        "n_exact": report.n_exact,
        "n_asymptotic": report.n_asymptotic,
        "regime": report.regime,
        "q_value": report.q_value,
    }
    diagnostics: dict[str, Any] = dict(report.diagnostics)
    if report.notes:
        diagnostics["notes"] = list(report.notes)
    return outputs, diagnostics


def _handle_plan_t(p: dict[str, Any], seed: int):
    target = PfdrTarget(p["alpha"], p["pi"])
    return _plan_outputs(plan_t(target, SnrEffect(p["snr"]), n_max=p["n-max"]))


def _parse_atoms(text: str) -> tuple[tuple[float, float], ...]:
    atoms = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        loc, sep, weight = piece.partition(":")
        if not sep:
            raise UsageError(
                f"atom {piece!r} is not of the form location:weight"
            )
        try:
            atoms.append((float(loc), float(weight)))
        except ValueError as exc:
            raise UsageError(f"bad atom {piece!r}: {exc}") from exc
    if not atoms:
        raise UsageError("atoms parameter is empty")
    return tuple(atoms)


def _handle_plan_t_mixture(p: dict[str, Any], seed: int):
    target = PfdrTarget(p["alpha"], p["pi"])
    mixture = SnrMixture(atoms=_parse_atoms(p["atoms"]), scale=p["scale"])
    return _plan_outputs(plan_t_mixture(target, mixture, n_max=p["n-max"]))


def _handle_plan_f(p: dict[str, Any], seed: int):
    target = PfdrTarget(p["alpha"], p["pi"])
    return _plan_outputs(plan_f(target, FEffect(p["delta"], p["p"]), n_max=p["n-max"]))


def _empirical_model(p: dict[str, Any]):
    if p.get("sample-file") is None:
        raise UsageError("family=empirical requires --sample-file")
    try:
        sample = np.loadtxt(p["sample-file"]).ravel()
    except OSError as exc:
        raise UsageError(f"cannot read sample file: {exc}") from exc
    try:
        grid = [float(v) for v in p["t-grid"].split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad t-grid {p['t-grid']!r}: {exc}") from exc
    cgf = empirical_cgf(sample, grid)
    tail = TailIndex(lam=p["tail-lambda"])
    return cgf, tail


def _handle_plan_general(p: dict[str, Any], seed: int):
    target = PfdrTarget(p["alpha"], p["pi"])
    family = p["family"]
    if family == "empirical":
        cgf, tail = _empirical_model(p)
    else:
        cgf, tail = make_family(family, **FAMILIES[family].kwargs(p))
    report = n_star_general(target, cgf, tail, SplitSpec(p["rho"]), p["effect"])
    return _plan_outputs(report)


def _handle_plan_score(p: dict[str, Any], seed: int):
    target = PfdrTarget(p["alpha"], p["pi"])
    family = p["family"]
    model = make_score_model(family, **FAMILIES[family].kwargs(p))
    report = n_star_score(target, model, SplitSpec(p["rho"]), p["effect"])
    return _plan_outputs(report)


def _handle_optimize_split(p: dict[str, Any], seed: int):
    family = p["family"]
    cgf, tail = make_family(family, **FAMILIES[family].kwargs(p))
    opt = optimal_split(cgf, tail)
    outputs = {
        "rho_star": opt.rho_star,
        "objective": opt.objective,
        "boundary": opt.boundary,
    }
    return outputs, {"family": cgf.family_tag, "lambda_tail": tail.lam}


def _handle_simulate(p: dict[str, Any], seed: int):
    family = p["family"]
    schedule = ThresholdSchedule(kind=p["schedule"], z0=p["z0"])
    scenario = SimScenario(
        family=family,
        effect=p["effect"],
        pi=p["pi"],
        n=p["n"],
        m=p["m"],
        schedule=schedule,
        trials=p["trials"],
        seed=seed,
        params=FAMILIES[family].kwargs(p),
    )
    n_total = scenario.n + scenario.m
    diagnostics: dict[str, Any] = {
        "z": schedule.z_at(n_total),
        "n_total": n_total,
    }
    if p["estimand"] == "pfdr":
        res = simulate_pfdr(scenario, batch_nulls=p["batch-nulls"])
        outputs = {
            "pfdr_hat": res.pfdr_hat,
            "stderr": res.stderr,
            "batches": res.batches,
            "batches_with_rejection": res.batches_with_rejection,
            "rejections": res.rejections,
            "false_rejections": res.false_rejections,
            "reject_rate": res.reject_rate,
        }
        return outputs, diagnostics
    if p.get("t-target") is None:
        raise UsageError("estimand=tail-ratio requires --t-target")
    res = tail_ratio_mc(scenario, p["t-target"], min_hits=p["min-hits"])
    diagnostics["d_shift"] = p["t-target"] / n_total
    outputs = {
        "ratio_hat": res.ratio_hat,
        "stderr": res.stderr,
        "hits_num": res.hits_num,
        "hits_den": res.hits_den,
        "hits_joint": res.hits_joint,
        "trials": res.trials,
    }
    return outputs, diagnostics


def _handle_ldp_info(p: dict[str, Any], seed: int):
    family = p["family"]
    k_f_value = None
    if family == "empirical":
        cgf, tail = _empirical_model(p)
    elif family in SCORE_FAMILIES:
        model = make_score_model(family, **FAMILIES[family].kwargs(p))
        cgf, tail = model.cgf, model.tail
        k_f_value = model.k_f
    else:
        cgf, tail = make_family(family, **FAMILIES[family].kwargs(p))
    split = SplitSpec(p["rho"])
    t0 = solve_t0(cgf, tail, split)
    outputs: dict[str, Any] = {
        "t0": t0,
        "rate_factor": (1.0 - split.rho) * t0,
        "lambda_tail": tail.lam,
    }
    if k_f_value is not None:
        outputs["k_f"] = k_f_value
    if p.get("u") is not None:
        rate, eta = legendre(cgf, p["u"])
        outputs["legendre_rate"] = rate
        outputs["legendre_eta"] = eta
    diagnostics = {
        "family": cgf.family_tag,
        "domain_sup": cgf.domain_sup,
        "domain_inf": cgf.domain_inf,
        "rho": split.rho,
    }
    return outputs, diagnostics


_HANDLERS = {
    "plan-t": _handle_plan_t,
    "plan-t-mixture": _handle_plan_t_mixture,
    "plan-f": _handle_plan_f,
    "plan-general": _handle_plan_general,
    "plan-score": _handle_plan_score,
    "optimize-split": _handle_optimize_split,
    "simulate": _handle_simulate,
    "ldp-info": _handle_ldp_info,
}


# ---------------------------------------------------------------------------
# serialization


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


# backslash, quote and the control characters U+0000 to U+001F, which RFC
# 8259 does not allow raw inside a string
_JSON_ESCAPES = {i: f"\\u{i:04x}" for i in range(0x20)}
_JSON_ESCAPES.update({ord("\\"): "\\\\", ord('"'): '\\"'})


def _to_json(obj: Any, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {_to_json(str(key))}: {_to_json(value, indent + 1)}"
            for key, value in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {_to_json(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            # RFC 8259 has no literal for these values, so they travel
            # as strings; the CSV path keeps them as bare text.
            return f'"{_format_float(x)}"'
        return _format_float(x)
    if obj is None:
        return "null"
    return f'"{str(obj).translate(_JSON_ESCAPES)}"'


def _flatten(prefix: str, obj: Any, rows: list[tuple[str, str]]) -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), value, rows)
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            _flatten(f"{prefix}.{i}", value, rows)
    elif isinstance(obj, bool):
        rows.append((prefix, "true" if obj else "false"))
    elif isinstance(obj, (int, np.integer)):
        rows.append((prefix, str(int(obj))))
    elif isinstance(obj, (float, np.floating)):
        rows.append((prefix, _format_float(float(obj))))
    elif obj is None:
        rows.append((prefix, ""))
    else:
        rows.append((prefix, str(obj)))


def _to_csv(report: dict[str, Any]) -> str:
    rows: list[tuple[str, str]] = []
    _flatten("", report, rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("key", "value"))
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


# ---------------------------------------------------------------------------
# entry points


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = parse_config(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return run(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
