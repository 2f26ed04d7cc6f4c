"""Minimum per-null sample size for a target positive false discovery rate.

In large-scale testing where each null is false with some prior probability,
the positive false discovery rate of any rejection rule is bounded below by
a quantity controlled entirely by the false-null to true-null density ratio
of the test statistic.  This package computes the threshold that ratio must
clear, evaluates the ratio for standard statistics (one-sample t, F, general
and score-based Studentized means), finds the minimum sample size at which
it is cleared, and checks the resulting plans by direct Monte Carlo.

The package needs numpy at run time and never imports scipy.  Importing it
loads neither numpy nor any of its modules: each name below is imported
from its module on first access (PEP 562), and each kernel that uses numpy
imports it when it runs, so the planners that need only math (and a CLI
process that runs one) never pay for loading the rest.
"""

__version__ = "0.1.0"

# each module's public names, in the order __all__ lists them
_EXPORTS = {
    "pfdr_core": (
        "PfdrTarget",
        "PlanReport",
        "LrSupCurve",
        "NotAttainableError",
        "NonMonotoneCurveError",
        "q_threshold",
        "min_pfdr",
        "min_n_search",
    ),
    "normal_t": ("SnrEffect", "SnrMixture", "lr_sup_t", "plan_t", "plan_t_mixture"),
    "f_test": ("FEffect", "lr_sup_f", "m_p", "plan_f"),
    "ldp_engine": (
        "CgfModel",
        "TailIndex",
        "SplitSpec",
        "ScoreModel",
        "make_family",
        "make_score_model",
        "legendre",
        "solve_t0",
        "k_f",
        "optimal_split",
        "n_star_general",
        "n_star_score",
        "pfdr_floor_limit",
        "empirical_cgf",
    ),
    "mc_verify": (
        "SimScenario",
        "ThresholdSchedule",
        "simulate_pfdr",
        "tail_ratio_mc",
        "bahadur_rao_tail",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
