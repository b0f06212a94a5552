"""The fold term of :func:`synpa.interference.fold_prices` as numpy
expressions: the reference the plain-float fold must match byte for byte
(``test_interference.TestFoldPrices``), as ``reference_inversion.py`` is
for the inversion.

Here the leading category's column is ordered by a stable ``argsort``,
its steps come from ``np.diff`` and two reversed slices, and their running
sum from ``np.cumsum``.  The package sorts the column as a list and sums
the same steps, in the same order, on plain floats.
"""

from __future__ import annotations

import numpy as np

from synpa.interference import ModelCoefficients


def fold_prices(model: ModelCoefficients, st: np.ndarray) -> np.ndarray:
    """Column prices under which each thread's cheapest partner is its fold."""
    alphas, slopes, k, rho = model._fold_terms
    prices = alphas + st @ slopes
    if rho > 0.0 and len(st) > 1:
        order = np.argsort(st[:, k], kind="stable")
        x = st[order, k]
        steps = rho * np.diff(x) * (x[:0:-1] + x[-2::-1])
        q = np.empty(len(x))
        q[order] = np.concatenate(([0.0], np.cumsum(steps)))
        prices += q
    return prices
