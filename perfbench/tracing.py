"""Spans and counters recorded around pfdr_sizer's public functions.

Tracer.install() replaces each traced function by a wrapper in every
pfdr_sizer module that binds it, because modules such as normal_t and f_test
import sum_series by name.  Each call records a span [name, start, end,
parent, op] in memory; counters are taken at the same boundaries (series
terms by wrapping the log-term iterator, root and curve evaluations by
wrapping the callable the function receives).  uninstall() restores the
original bindings.  The wrappers pass arguments and results through
unchanged, so traced results are bit-identical to untraced ones.

layer_metrics() turns spans and counters into the per-layer metrics; a
layer's self time is its span time minus the time covered by its children.
Only the standard library is imported here, so the traced CLI child can
load this module without changing what it measures.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

NAME, START, END, PARENT, OP = range(5)

SERIES = ("numerics.sum_series", "numerics.log_sum_series")
LR_T = ("normal_t.lr_sup_t", "normal_t.log_lr_sup_t")
LR_F = ("f_test.lr_sup_f", "f_test.log_lr_sup_f")
MC = ("mc_verify.tail_ratio_mc", "mc_verify.simulate_pfdr")
MC_FAMILIES = ("normal", "uniform", "gamma", "normal-score", "cauchy-score", "gamma-score")

# (module, function) pairs traced; each is wrapped wherever it is bound
TRACED = (
    ("numerics", "sum_series"),
    ("numerics", "log_sum_series"),
    ("numerics", "find_root_increasing"),
    ("pfdr_core", "min_n_search"),
    ("normal_t", "plan_t"),
    ("normal_t", "plan_t_mixture"),
    ("normal_t", "lr_sup_t"),
    ("normal_t", "log_lr_sup_t"),
    ("normal_t", "lr_sup_t_mixture"),
    ("f_test", "plan_f"),
    ("f_test", "lr_sup_f"),
    ("f_test", "log_lr_sup_f"),
    ("f_test", "m_p"),
    ("ldp_engine", "make_family"),
    ("ldp_engine", "make_score_model"),
    ("ldp_engine", "empirical_cgf"),
    ("ldp_engine", "legendre"),
    ("ldp_engine", "solve_t0"),
    ("ldp_engine", "k_f"),
    ("ldp_engine", "optimal_split"),
    ("ldp_engine", "n_star_general"),
    ("ldp_engine", "n_star_score"),
    ("mc_verify", "tail_ratio_mc"),
    ("mc_verify", "simulate_pfdr"),
    ("mc_verify", "bahadur_rao_tail"),
    ("cli", "parse_config"),
    ("cli", "run"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxes: dict[str, float] = {}
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> float:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        self._stack.pop()
        return span[END] - span[START]

    def parent_name(self, idx: int) -> str | None:
        parent = self.spans[idx][PARENT]
        return self.spans[parent][NAME] if parent >= 0 else None

    def merge(self, other: dict, op: int) -> None:
        """Fold in the spans and counters a traced child process wrote."""
        base = len(self.spans)
        for name, start, end, parent, _ in other["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op])
        self.counts.update(other["counts"])
        for key, value in other["maxes"].items():
            self.maxes[key] = max(self.maxes.get(key, value), value)
        for key, values in other["samples"].items():
            self.samples[key].extend(values)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "maxes": self.maxes,
            "samples": dict(self.samples),
        }

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        pkg = sys.modules["pfdr_sizer"]
        modules = [pkg] + [m for n, m in sorted(sys.modules.items()) if n.startswith("pfdr_sizer.")]
        for mod_name, fn_name in TRACED:
            home = sys.modules.get(f"pfdr_sizer.{mod_name}")
            if home is None:
                continue
            orig = getattr(home, fn_name)
            wrapper = self._wrapper(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                if getattr(mod, fn_name, None) is orig:
                    setattr(mod, fn_name, wrapper)
                    self._patched.append((mod, fn_name, orig))

    def uninstall(self) -> None:
        for mod, fn_name, orig in reversed(self._patched):
            setattr(mod, fn_name, orig)
        self._patched.clear()

    def _wrapper(self, name: str, orig):
        hook = _HOOKS.get(name)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if hook is None:
                idx = self._enter(name)
                try:
                    return orig(*args, **kwargs)
                finally:
                    self._exit(idx)
            return hook(self, name, orig, args, kwargs)

        return traced


# ---------------------------------------------------------------------------
# hooks: counters taken where the work happens


def _counted(fn, tracer: Tracer, key: str):
    def inner(*a):
        tracer.counts[key] += 1
        return fn(*a)

    return inner


def _series_hook(tr: Tracer, name, orig, args, kwargs):
    terms = 0
    source = args[0]

    def counted():
        nonlocal terms
        for value in source:
            terms += 1
            yield value

    idx = tr._enter(name)
    try:
        return orig(counted(), *args[1:], **kwargs)
    finally:
        tr._exit(idx)
        tr.counts["numerics.series_terms"] += terms


def _root_hook(tr: Tracer, name, orig, args, kwargs):
    f = _counted(args[0], tr, "numerics.root_fevals")
    idx = tr._enter(name)
    try:
        return orig(f, *args[1:], **kwargs)
    finally:
        tr._exit(idx)


def _search_hook(tr: Tracer, name, orig, args, kwargs):
    curve = args[0]
    evaluate = curve.eval
    curve.eval = _counted(evaluate, tr, "pfdr_core.curve_evals")
    idx = tr._enter(name)
    try:
        report = orig(*args, **kwargs)
    finally:
        tr._exit(idx)
        curve.eval = evaluate
    if report.diagnostics.get("monotone_checked") == 0.0:
        tr.counts["pfdr_core.linear_scan_fallbacks"] += 1
    return report


def _mixture_hook(tr: Tracer, name, orig, args, kwargs):
    tr.counts["normal_t.mixture_atom_evals"] += len(args[1].atoms)
    idx = tr._enter(name)
    try:
        return orig(*args, **kwargs)
    finally:
        tr._exit(idx)


def _plan_f_hook(tr: Tracer, name, orig, args, kwargs):
    idx = tr._enter(name)
    try:
        return orig(*args, **kwargs)
    finally:
        seconds = tr._exit(idx)
        if args[1].p >= 1000:
            tr.samples["f_test.plan_f_large_p"].append(seconds)


def _empirical_hook(tr: Tracer, name, orig, args, kwargs):
    idx = tr._enter(name)
    try:
        model = orig(*args, **kwargs)
    finally:
        tr._exit(idx)
    key = "ldp_engine.empirical_cgf_evals"
    return dataclasses.replace(
        model,
        lambda_fn=_counted(model.lambda_fn, tr, key),
        lambda_d1=_counted(model.lambda_d1, tr, key),
        lambda_d2=_counted(model.lambda_d2, tr, key),
    )


def _mc_hook(tr: Tracer, name, orig, args, kwargs):
    scenario = args[0]
    idx = tr._enter(name)
    try:
        result = orig(*args, **kwargs)
    finally:
        seconds = tr._exit(idx)
    mc = sys.modules["pfdr_sizer.mc_verify"]
    n, m, fam = scenario.n, scenario.m, scenario.family
    if name == "mc_verify.tail_ratio_mc":
        stats, rows, hits, uniforms = scenario.trials, min(mc._TAIL_BLOCK, scenario.trials), result.hits_den, 0
        shifted = scenario.trials > 0 and args[1] > 0.0
    else:
        nulls = kwargs.get("batch_nulls", args[1] if len(args) > 1 else mc.DEFAULT_BATCH_NULLS)
        stats, rows, hits, uniforms = scenario.trials * nulls, nulls, result.rejections, 1
        shifted = scenario.effect > 0.0
    # gamma-score draws one extra gamma variate per observation under a shift
    per_obs = 2 if fam == "gamma-score" and shifted else 1
    tr.counts["mc_verify.stats"] += stats
    tr.counts[f"mc_verify.stats.{fam}"] += stats
    tr.counts["mc_verify.hits"] += hits
    tr.counts["mc_verify.raw_draws_computed"] += stats * ((n + 2 * m) * per_obs + uniforms)
    tr.samples[f"mc_verify.seconds.{fam}"].append(seconds)
    block = 8 * rows * (n + 2 * m) * per_obs
    tr.maxes["mc_verify.block_bytes_computed"] = max(
        tr.maxes.get("mc_verify.block_bytes_computed", 0), block
    )
    return result


_HOOKS = {
    "numerics.sum_series": _series_hook,
    "numerics.log_sum_series": _series_hook,
    "numerics.find_root_increasing": _root_hook,
    "pfdr_core.min_n_search": _search_hook,
    "normal_t.lr_sup_t_mixture": _mixture_hook,
    "f_test.plan_f": _plan_f_hook,
    "ldp_engine.empirical_cgf": _empirical_hook,
    "mc_verify.tail_ratio_mc": _mc_hook,
    "mc_verify.simulate_pfdr": _mc_hook,
}


# ---------------------------------------------------------------------------
# per-layer metrics


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tr: Tracer, cli_samples: dict[str, list[float]], overhead: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}; a layer the workload never
    reaches reports 0."""
    children = [0.0] * len(tr.spans)
    for span in tr.spans:
        if span[PARENT] >= 0:
            children[span[PARENT]] += span[END] - span[START]
    self_s: defaultdict[str, float] = defaultdict(float)
    durations: defaultdict[str, list[float]] = defaultdict(list)
    calls: Counter = Counter()
    split_evals = 0
    for i, span in enumerate(tr.spans):
        name, dur = span[NAME], span[END] - span[START]
        self_s[name] += dur - children[i]
        durations[name].append(dur)
        calls[name] += 1
        if name == "ldp_engine.solve_t0" and tr.parent_name(i) == "ldp_engine.optimal_split":
            split_evals += 1

    def total(names, table=self_s) -> float:
        return sum(table[n] for n in names)

    c = tr.counts
    series_s = total(SERIES)
    searches = calls["pfdr_core.min_n_search"]
    ldp_names = [n for n in self_s if n.startswith("ldp_engine.")]
    mc_calls = total(MC, calls)
    out = {
        "numerics.series_calls": (total(SERIES, calls), "count"),
        "numerics.series_terms": (c["numerics.series_terms"], "count"),
        "numerics.terms_per_s": (c["numerics.series_terms"] / series_s if series_s else 0.0, "1/s"),
        "numerics.series_self_s": (series_s, "s"),
        "numerics.root_calls": (calls["numerics.find_root_increasing"], "count"),
        "numerics.root_fevals": (c["numerics.root_fevals"], "count"),
        "numerics.root_self_s": (self_s["numerics.find_root_increasing"], "s"),
        "pfdr_core.searches": (searches, "count"),
        "pfdr_core.curve_evals": (c["pfdr_core.curve_evals"], "count"),
        "pfdr_core.evals_per_search": (c["pfdr_core.curve_evals"] / searches if searches else 0.0, "count"),
        "pfdr_core.linear_scan_fallbacks": (c["pfdr_core.linear_scan_fallbacks"], "count"),
        "pfdr_core.search_self_s": (self_s["pfdr_core.min_n_search"], "s"),
        "normal_t.lr_sup_t_calls": (total(LR_T, calls), "count"),
        "normal_t.lr_sup_t_self_s": (total(LR_T + ("normal_t.lr_sup_t_mixture",)), "s"),
        "normal_t.mixture_atom_evals": (c["normal_t.mixture_atom_evals"], "count"),
        "normal_t.plan_t_p50_ms": (1e3 * _median(durations["normal_t.plan_t"]), "ms"),
        "normal_t.plan_t_mixture_p50_ms": (1e3 * _median(durations["normal_t.plan_t_mixture"]), "ms"),
        "f_test.lr_sup_f_calls": (total(LR_F, calls), "count"),
        "f_test.lr_sup_f_self_s": (total(LR_F), "s"),
        "f_test.m_p_calls": (calls["f_test.m_p"], "count"),
        "f_test.plan_f_p50_ms": (1e3 * _median(durations["f_test.plan_f"]), "ms"),
        "f_test.plan_f_large_p_p50_ms": (1e3 * _median(tr.samples["f_test.plan_f_large_p"]), "ms"),
        "ldp_engine.solve_t0_calls": (calls["ldp_engine.solve_t0"], "count"),
        "ldp_engine.legendre_calls": (calls["ldp_engine.legendre"], "count"),
        "ldp_engine.split_objective_evals": (split_evals, "count"),
        "ldp_engine.optimal_split_p50_ms": (1e3 * _median(durations["ldp_engine.optimal_split"]), "ms"),
        "ldp_engine.empirical_cgf_evals": (c["ldp_engine.empirical_cgf_evals"], "count"),
        "ldp_engine.k_f_p50_ms": (1e3 * _median(durations["ldp_engine.k_f"]), "ms"),
        "ldp_engine.self_s": (total(ldp_names), "s"),
        "mc_verify.calls": (mc_calls, "count"),
        "mc_verify.stats": (c["mc_verify.stats"], "count"),
        "mc_verify.self_s": (total(MC), "s"),
    }
    for fam in MC_FAMILIES:
        seconds = sum(tr.samples[f"mc_verify.seconds.{fam}"])
        rate = c[f"mc_verify.stats.{fam}"] / seconds if seconds else 0.0
        out[f"mc_verify.stats_per_s.{fam}"] = (rate, "1/s")
    stats = c["mc_verify.stats"]
    out.update(
        {
            "mc_verify.raw_draws_computed": (c["mc_verify.raw_draws_computed"], "count"),
            "mc_verify.block_bytes_computed": (tr.maxes.get("mc_verify.block_bytes_computed", 0), "B"),
            "mc_verify.hits_per_stat": (c["mc_verify.hits"] / stats if stats else 0.0, "ratio"),
            "cli.interp_start_ms": (_median(cli_samples.get("interp_start_ms", [])), "ms"),
            "cli.import_ms": (_median(cli_samples.get("import_ms", [])), "ms"),
            "cli.parse_ms": (1e3 * _median(durations["cli.parse_config"]), "ms"),
            "cli.run_self_ms": (1e3 * _median(_self_durations(tr, children, "cli.run")), "ms"),
            "cli.exit_nonzero": (sum(cli_samples.get("exit_nonzero", [])), "count"),
            "trace.overhead_ratio": (overhead, "ratio"),
        }
    )
    return out


def _self_durations(tr: Tracer, children: list[float], name: str) -> list[float]:
    return [
        s[END] - s[START] - children[i] for i, s in enumerate(tr.spans) if s[NAME] == name
    ]
