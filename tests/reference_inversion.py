"""The per-category inverse solve written step by step: the reference
that :func:`synpa.interference.invert` and
:func:`synpa.interference.invert_category` must match bit for bit
(``test_interference.TestInversionOracle``), as the subset DP in
``test_matcher.py`` is for the matcher.

Each step is its own helper here: the linear seed, the damped Newton
polish, the squared residual and the clip to [0, 1].  The package runs
the same arithmetic, in the same order, as one plain-float kernel.
"""

from __future__ import annotations

import math

from synpa.dispatch import CATEGORIES, CategoryTriple, category_values, unit_vector
from synpa.errors import ModelError
from synpa.interference import (
    CategoryCoefficients,
    InversionResult,
    ModelCoefficients,
)

_EXACT_RESIDUAL_TOL = 1e-8
_LINEAR_RHO_TOL = 1e-12
_SINGULAR_TOL = 1e-12
_OVERFLOW = "inversion overflows: the form's values are beyond float range"


def _residual(coeffs: CategoryCoefficients, x: float, y: float, u: float, v: float) -> float:
    ru = coeffs.alpha + coeffs.beta * x + coeffs.gamma * y + coeffs.rho * x * y - u
    rv = coeffs.alpha + coeffs.beta * y + coeffs.gamma * x + coeffs.rho * x * y - v
    return ru * ru + rv * rv


def _linear_seed(coeffs: CategoryCoefficients, u: float, v: float) -> tuple[float, float]:
    """Solve the system with rho treated as zero.

    Degenerate 2x2 systems (beta == +/-gamma) fall back to the
    symmetric solution; an all-zero form yields (0, 0).
    """
    a, b, g = coeffs.alpha, coeffs.beta, coeffs.gamma
    det = b * b - g * g
    if abs(det) > _SINGULAR_TOL:
        x = (b * (u - a) - g * (v - a)) / det
        y = (b * (v - a) - g * (u - a)) / det
        return x, y
    s = b + g
    if abs(s) > _SINGULAR_TOL:
        mean = 0.5 * (u + v) - a
        return mean / s, mean / s
    return 0.0, 0.0


def _newton_refine(
    coeffs: CategoryCoefficients, x: float, y: float, u: float, v: float
) -> tuple[float, float]:
    """A few damped Newton steps on the 2x2 system; keeps the best iterate."""
    best = (x, y, _residual(coeffs, x, y, u, v))
    for _ in range(12):
        fx = coeffs.alpha + coeffs.beta * x + coeffs.gamma * y + coeffs.rho * x * y - u
        fy = coeffs.alpha + coeffs.beta * y + coeffs.gamma * x + coeffs.rho * x * y - v
        j11 = coeffs.beta + coeffs.rho * y
        j12 = coeffs.gamma + coeffs.rho * x
        j21 = coeffs.gamma + coeffs.rho * y
        j22 = coeffs.beta + coeffs.rho * x
        det = j11 * j22 - j12 * j21
        if abs(det) < _SINGULAR_TOL:
            break
        dx = (fx * j22 - fy * j12) / det
        dy = (fy * j11 - fx * j21) / det
        x, y = x - dx, y - dy
        res = _residual(coeffs, x, y, u, v)
        if res < best[2]:
            best = (x, y, res)
        if res < 1e-28:
            break
    return best[0], best[1]


def _clip_unit(value: float) -> float:
    return min(max(value, 0.0), 1.0)


def invert_category(
    coeffs: CategoryCoefficients, u: float, v: float
) -> tuple[float, float] | None:
    """Recover both threads' isolated values for one category: ``(x, y)`` or None.

    Solves ``u = f(x, y)``, ``v = f(y, x)`` where ``f`` is the forward
    form.  With ``rho == 0`` this is a 2x2 linear solve; otherwise the
    difference of the two equations eliminates one unknown and leaves a
    quadratic, whose root in the unit square (nearest the linear seed on
    ties) is polished by Newton iteration.  The result is that point
    clipped to [0, 1], or None when it is not an exact solution in the
    unit square.
    """
    for name, value in (("u", u), ("v", v)):
        if not math.isfinite(value):
            raise ModelError(f"observed category value {name} must be finite")

    seed = _linear_seed(coeffs, u, v)

    if abs(coeffs.rho) < _LINEAR_RHO_TOL:
        x, y = seed
    else:
        b, g, r = coeffs.beta, coeffs.gamma, coeffs.rho
        if abs(b - g) > _SINGULAR_TOL:
            # y = x - d with d fixed by the difference of the equations.
            d, target = (u - v) / (b - g), u
        else:
            # beta == gamma: the difference carries no information; fall
            # back to the symmetric assumption x == y on the mean equation.
            d, target = 0.0, 0.5 * (u + v)
        qa = r
        qb = b + g - r * d
        qc = coeffs.alpha - g * d - target
        disc = qb * qb - 4.0 * qa * qc
        roots: list[float] = []
        if disc >= 0.0:
            sq = math.sqrt(disc)
            # Numerically stable pair of roots.
            q = -0.5 * (qb + sq) if qb >= 0.0 else -0.5 * (qb - sq)
            if abs(qa) > 0.0:
                roots.append(q / qa)
            if abs(q) > 0.0:
                roots.append(qc / q)
        candidates = [(root, root - d) for root in roots]

        slack = 1e-9
        in_box = [
            c
            for c in candidates
            if -slack <= c[0] <= 1.0 + slack and -slack <= c[1] <= 1.0 + slack
        ]

        def from_seed(c: tuple[float, float]) -> float:
            try:
                return (c[0] - seed[0]) ** 2 + (c[1] - seed[1]) ** 2
            except OverflowError:
                raise ModelError(_OVERFLOW) from None

        # Nearest the linear seed on ties between admissible roots.
        if candidates:
            x, y = _newton_refine(coeffs, *min(in_box or candidates, key=from_seed), u, v)
        else:
            x, y = seed

    residual = _residual(coeffs, x, y, u, v)
    scale = max(1.0, u * u + v * v)
    in_unit = -1e-9 <= x <= 1.0 + 1e-9 and -1e-9 <= y <= 1.0 + 1e-9
    if residual <= _EXACT_RESIDUAL_TOL**2 * scale and in_unit:
        return _clip_unit(x), _clip_unit(y)
    return None


def invert(
    model: ModelCoefficients, smt_ij: CategoryTriple, smt_ji: CategoryTriple
) -> InversionResult:
    """Estimate both threads' isolated vectors from co-run observations.

    ``smt_ij`` holds the observed category values of thread *i* while
    paired with *j*, and ``smt_ji`` the reverse; both must come from the
    same core and quantum.  Each category is solved independently (each
    solution lies in [0, 1]), and the resulting triples are
    renormalized to sum to 1.  When any category has no exact solution,
    the result is ``degraded`` and holds no vectors.
    """
    xs: dict[str, float] = {}
    ys: dict[str, float] = {}
    degraded = False
    for name in CATEGORIES:
        solution = invert_category(model.category(name), smt_ij.get(name), smt_ji.get(name))
        if solution is None:
            degraded = True
        else:
            xs[name], ys[name] = solution
    if degraded:
        return InversionResult(st_i=None, st_j=None, degraded=True)
    return InversionResult(
        st_i=unit_vector(*category_values(CategoryTriple(**xs))),
        st_j=unit_vector(*category_values(CategoryTriple(**ys))),
        degraded=False,
    )
