"""The statistics a built-in family's hits function decides on, for tests.

Each family's hits function draws its row means and its scale and hands
them to ldp_engine._exact_hits (the normal families) or to
ldp_engine._staged_hits (the raw-draw families, which draw scale pairs only
as the stages ask).  Patching both to capture their arguments recovers the
statistics themselves, so that their laws can be checked.  They are at
unit scale: a family's sigma, width or scale only divides the effect.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from pfdr_sizer import ldp_engine

# the parameter a family's sampler divides the effect by; it draws as at that
# parameter 1
SCALE_PARAM = {
    "normal": "sigma", "uniform": "width", "gamma": "scale", "normal-score": "sigma",
}


def captured_call(family, rng, size, n, m, effect, **params) -> dict:
    """The arguments the family hands to the rejection rule, by name.

    Normal families give xbar0, xbar1 and s; the others xbar0, xbar1, their
    gaps(rows, pairs) draw and shared.  Nothing past the means is drawn.
    """
    seen = {}

    def exact(xbar0, xbar1, s, z, side):
        seen.update(xbar0=xbar0, xbar1=xbar1, s=s)
        return np.zeros(size, bool), np.zeros(size, bool)

    def staged(xbar0, xbar1, gaps, m, z, side, shared):
        seen.update(xbar0=xbar0, xbar1=xbar1, gaps=gaps, shared=shared)
        return np.zeros(size, bool), np.zeros(size, bool)

    with mock.patch.object(ldp_engine, "_exact_hits", exact), mock.patch.object(
        ldp_engine, "_staged_hits", staged
    ):
        ldp_engine.FAMILIES[family].hits(rng, size, n, m, effect, 1.0, None, **params)
    return seen


def statistics(family, rng, size, n, m, effect, **params):
    """(xbar0, s0, xbar1, s1) of size statistics, every scale on all m pairs.

    s1 is s0 itself where the two sides share one scale.
    """
    seen = captured_call(family, rng, size, n, m, effect, **params)
    if "s" in seen:
        s0 = s1 = seen["s"]
    else:
        scales = [
            np.sqrt(np.cumsum(g, axis=0)[-1] / (2 * m))
            for g in seen["gaps"](np.arange(size), m)
        ]
        s0, s1 = scales[0], scales[-1]
    return seen["xbar0"], s0, seen["xbar1"], s1
