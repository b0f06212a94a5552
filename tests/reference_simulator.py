"""The simulator's step written pair by pair and category by category:
the reference that :func:`synpa.engine.sim_step` must match bit for bit
(``test_engine.TestSimulatorOracle``), as ``reference_inversion.py`` is
for the inversion.

Here each pair's prediction goes through :func:`synpa.interference.forward`
one category at a time, each app's phase vector is read once for the
prediction and again for its progress, each observation is built anew,
and noise is drawn one scalar at a time.  The package evaluates the same
floats, in the same order, with a plain-float pair kernel and one noise
draw per quantum.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from synpa.dispatch import CATEGORIES, CategoryTriple
from synpa.engine import AppSimState, isolated_rate
from synpa.interference import ModelCoefficients, PairPrediction, forward
from synpa.matcher import IDLE_NODE


def predict_pair(
    model: ModelCoefficients, st_i: CategoryTriple, st_j: CategoryTriple
) -> PairPrediction:
    """Both threads' co-run categories and slowdowns, one forward() each."""
    vals_i = {}
    vals_j = {}
    for name in CATEGORIES:
        coeffs = model.category(name)
        vals_i[name] = forward(coeffs, st_i.get(name), st_j.get(name))
        vals_j[name] = forward(coeffs, st_j.get(name), st_i.get(name))
    smt_i = CategoryTriple(**vals_i)
    smt_j = CategoryTriple(**vals_j)
    return PairPrediction(
        smt_i=smt_i,
        smt_j=smt_j,
        slowdown_i=smt_i.fdc + smt_i.fe + smt_i.be,
        slowdown_j=smt_j.fdc + smt_j.fe + smt_j.be,
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
            pred = predict_pair(ground_truth, states[a].vector, states[b].vector)
            runs = ((a, pred.smt_i, pred.slowdown_i), (b, pred.smt_j, pred.slowdown_j))
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
