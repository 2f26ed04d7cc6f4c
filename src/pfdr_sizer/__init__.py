"""Minimum per-null sample size for a target positive false discovery rate.

In large-scale testing where each null is false with some prior probability,
the positive false discovery rate of any rejection rule is bounded below by
a quantity controlled entirely by the false-null to true-null density ratio
of the test statistic.  This package computes the threshold that ratio must
clear, evaluates the ratio for standard statistics (one-sample t, F, general
and score-based Studentized means), finds the minimum sample size at which
it is cleared, and checks the resulting plans by direct Monte Carlo.

The package needs numpy at run time and never imports scipy.  Importing it
loads no numpy: each kernel that uses numpy imports it when it runs, so the
planners that need only math (and a CLI process that runs one) never pay
for loading it.
"""

__version__ = "0.1.0"

from .pfdr_core import (
    LrSupCurve,
    NonMonotoneCurveError,
    NotAttainableError,
    PfdrTarget,
    PlanReport,
    min_n_search,
    min_pfdr,
    q_threshold,
)
from .normal_t import SnrEffect, SnrMixture, lr_sup_t, plan_t, plan_t_mixture
from .f_test import FEffect, lr_sup_f, m_p, plan_f
from .ldp_engine import (
    CgfModel,
    ScoreModel,
    SplitSpec,
    TailIndex,
    empirical_cgf,
    k_f,
    legendre,
    make_family,
    make_score_model,
    n_star_general,
    n_star_score,
    optimal_split,
    pfdr_floor_limit,
    solve_t0,
)
from .mc_verify import (
    SimScenario,
    ThresholdSchedule,
    bahadur_rao_tail,
    simulate_pfdr,
    tail_ratio_mc,
)

__all__ = [
    "__version__",
    "PfdrTarget",
    "PlanReport",
    "LrSupCurve",
    "NotAttainableError",
    "NonMonotoneCurveError",
    "q_threshold",
    "min_pfdr",
    "min_n_search",
    "SnrEffect",
    "SnrMixture",
    "lr_sup_t",
    "plan_t",
    "plan_t_mixture",
    "FEffect",
    "lr_sup_f",
    "m_p",
    "plan_f",
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
    "SimScenario",
    "ThresholdSchedule",
    "simulate_pfdr",
    "tail_ratio_mc",
    "bahadur_rao_tail",
]
