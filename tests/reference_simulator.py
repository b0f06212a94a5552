"""The simulator's step written pair by pair and category by category:
the reference that :func:`synpa.engine.sim_step` must match bit for bit
(``test_engine.TestSimulatorOracle``), as ``reference_inversion.py`` is
for the inversion.

Here each pair's prediction goes through :func:`clamped_form` one
category at a time, each app's phase vector is read once for the
prediction and again for its progress, each observation is built anew,
and noise is drawn one scalar at a time.  The package evaluates the same
floats, in the same order, with a plain-float pair kernel
(:func:`synpa.interference.predict_pair`) and one noise draw per quantum.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from synpa.dispatch import CATEGORIES, CategoryTriple
from synpa.engine import AppSimState, isolated_rate
from synpa.interference import CategoryCoefficients, ModelCoefficients
from synpa.matcher import IDLE_NODE


def clamped_form(coeffs: CategoryCoefficients, ci: float, cj: float) -> float:
    """One category's co-run value of a thread at ``ci`` next to one at ``cj``:
    ``alpha + beta * ci + gamma * cj + rho * ci * cj``, clamped at zero."""
    value = coeffs.alpha + coeffs.beta * ci + coeffs.gamma * cj + coeffs.rho * ci * cj
    return value if value > 0.0 else 0.0


def predict_pair(
    model: ModelCoefficients, st_i: CategoryTriple, st_j: CategoryTriple
) -> tuple[tuple[float, float, float, float], tuple[float, float, float, float]]:
    """Both threads' co-run ``(fdc, fe, be, slowdown)``, one clamped form each."""
    vals_i = {}
    vals_j = {}
    for name in CATEGORIES:
        coeffs = model.category(name)
        vals_i[name] = clamped_form(coeffs, st_i.get(name), st_j.get(name))
        vals_j[name] = clamped_form(coeffs, st_j.get(name), st_i.get(name))
    return tuple(
        (vals["fdc"], vals["fe"], vals["be"], vals["fdc"] + vals["fe"] + vals["be"])
        for vals in (vals_i, vals_j)
    )


def sim_step(
    states: Mapping[str, AppSimState],
    pairs: Sequence[tuple[str, str]],
    ground_truth: ModelCoefficients,
    noise_sigma: float,
    rng: np.random.Generator,
    quantum: int,
    cycles_per_quantum: int,
) -> tuple[dict[str, CategoryTriple], dict[str, float], dict[str, float], list[str]]:
    """One quantum, pair by pair in sorted order; a zero slowdown ends in
    ``ZeroDivisionError`` after the pairs before it were committed."""
    observed_by_app, committed_by_app, slowdown_by_app, completed_ids = {}, {}, {}, []
    for a, b in sorted(tuple(sorted(p)) for p in pairs):
        if a == IDLE_NODE or b == IDLE_NODE:
            solo = a if b == IDLE_NODE else b
            runs = ((solo, states[solo].vector, 1.0),)
        else:
            pred_a, pred_b = predict_pair(ground_truth, states[a].vector, states[b].vector)
            runs = ((a, CategoryTriple(fe=pred_a[1], be=pred_a[2], fdc=pred_a[0]), pred_a[3]),
                    (b, CategoryTriple(fe=pred_b[1], be=pred_b[2], fdc=pred_b[0]), pred_b[3]))
        for app_id, base, slowdown in runs:
            observed = {}
            for name in CATEGORIES:
                value = getattr(base, name)
                if noise_sigma > 0.0:
                    value += noise_sigma * rng.standard_normal()
                observed[name] = value if value > 0.0 else 0.0
            state = states[app_id]
            amount = isolated_rate(state.vector, cycles_per_quantum) / slowdown
            committed, completed = state.commit(amount, quantum)
            observed_by_app[app_id] = CategoryTriple(**observed)
            committed_by_app[app_id] = committed
            slowdown_by_app[app_id] = slowdown
            if completed:
                completed_ids.append(app_id)
    return observed_by_app, committed_by_app, slowdown_by_app, completed_ids
