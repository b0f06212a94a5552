"""Pairwise SMT interference model.

For two threads co-running on one 2-way SMT core, each category value
of thread *i* under co-execution is modeled from the isolated values of
both threads by a per-category bilinear form

    smt = alpha + beta * st_i + gamma * st_j + rho * st_i * st_j

where ``st_i`` is thread *i*'s isolated fraction for that category and
``st_j`` the co-runner's.  Predicted category values are expressed
relative to isolated execution, so their sum across the three
categories is the thread's slowdown (>= 1 in practice).

The *inverse* direction recovers the isolated fractions of both threads
from one quantum's pair of observed co-run category triples by solving
the two-equation bilinear system per category.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np

from .dispatch import CATEGORIES, CategoryTriple, CategoryVector, normalize_triple
from .errors import ModelError

COEFFICIENTS_VERSION = 1

#: Residual below which an inversion counts as an exact solve.
_EXACT_RESIDUAL_TOL = 1e-8
#: |rho| below this is treated as a linear model.
_LINEAR_RHO_TOL = 1e-12
_SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class CategoryCoefficients:
    """Coefficients (alpha, beta, gamma, rho) of one category's form."""

    alpha: float
    beta: float
    gamma: float
    rho: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "rho"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ModelError(f"coefficient {name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ModelCoefficients:
    """One CategoryCoefficients per category, plus provenance."""

    fdc: CategoryCoefficients
    fe: CategoryCoefficients
    be: CategoryCoefficients
    provenance: str = "unspecified"

    def category(self, name: str) -> CategoryCoefficients:
        if name not in CATEGORIES:
            raise ModelError(f"unknown category {name!r}")
        return getattr(self, name)

    def to_json(self) -> str:
        doc = {
            "version": COEFFICIENTS_VERSION,
            "provenance": self.provenance,
            "categories": {
                name: {
                    "alpha": self.category(name).alpha,
                    "beta": self.category(name).beta,
                    "gamma": self.category(name).gamma,
                    "rho": self.category(name).rho,
                }
                for name in CATEGORIES
            },
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ModelCoefficients":
        try:
            doc = json.loads(text)
        except ValueError as exc:  # bad JSON, or an integer of over 4300 digits
            raise ModelError(f"coefficient file is not valid JSON: {exc}") from None
        if not isinstance(doc, dict) or doc.get("version") != COEFFICIENTS_VERSION:
            raise ModelError("coefficient file missing or unsupported version")
        cats = doc.get("categories")
        if not isinstance(cats, dict) or set(cats) != set(CATEGORIES):
            raise ModelError(f"coefficient file must define categories {CATEGORIES}")
        parsed = {}
        for name in CATEGORIES:
            entry = cats[name]
            try:
                parsed[name] = CategoryCoefficients(
                    alpha=float(entry["alpha"]),
                    beta=float(entry["beta"]),
                    gamma=float(entry["gamma"]),
                    rho=float(entry["rho"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ModelError(f"bad coefficients for category {name}: {exc}") from None
        return cls(
            fdc=parsed["fdc"],
            fe=parsed["fe"],
            be=parsed["be"],
            provenance=str(doc.get("provenance", "unspecified")),
        )


#: Default model shipped with the package: trained on a 2-way SMT
#: ARMv8 server part (dispatch width 4) from aligned isolated/paired
#: profiles of a standard CPU benchmark suite.
REFERENCE_COEFFICIENTS = ModelCoefficients(
    fdc=CategoryCoefficients(alpha=0.0072, beta=0.9060, gamma=0.0044, rho=0.0314),
    fe=CategoryCoefficients(alpha=0.2376, beta=1.4111, gamma=0.0, rho=0.0),
    be=CategoryCoefficients(alpha=0.2069, beta=0.3431, gamma=1.4391, rho=0.0),
    provenance="builtin-reference",
)


def forward(coeffs: CategoryCoefficients, ci: float, cj: float) -> float:
    """Predict one co-run category value from two isolated values.

    The result is clamped at zero; it is deliberately not clamped from
    above, since values above 1 carry the slowdown information.
    """
    value = coeffs.alpha + coeffs.beta * ci + coeffs.gamma * cj + coeffs.rho * ci * cj
    return value if value > 0.0 else 0.0


@dataclass(frozen=True)
class PairPrediction:
    """Predicted co-run behavior of an (i, j) thread pair."""

    smt_i: CategoryTriple
    smt_j: CategoryTriple
    slowdown_i: float
    slowdown_j: float


def predict_pair(
    model: ModelCoefficients, st_i: CategoryTriple, st_j: CategoryTriple
) -> PairPrediction:
    """Predict both threads' co-run categories and slowdowns."""
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


_category_values = attrgetter(*CATEGORIES)


def _category_matrix(vectors: Sequence[CategoryTriple]) -> np.ndarray:
    """``[i, k]``: category ``CATEGORIES[k]`` of ``vectors[i]``."""
    return np.array([_category_values(v) for v in vectors], dtype=float).reshape(
        len(vectors), len(CATEGORIES)
    )


def pair_weight_matrix(
    model: ModelCoefficients, vectors: Sequence[CategoryTriple]
) -> np.ndarray:
    """Predicted combined slowdown of every pair of threads, as a matrix.

    Entry ``[i, j]`` (``i != j``) equals ``slowdown_i + slowdown_j`` of
    ``predict_pair(model, vectors[i], vectors[j])`` bit for bit: each
    float64 operation is the scalar path's, in the same order.  The
    diagonal is zero.
    """
    return _pair_weights(model, _category_matrix(vectors))


def _pair_weights(model: ModelCoefficients, st: np.ndarray) -> np.ndarray:
    """:func:`pair_weight_matrix` of the vectors whose category matrix is ``st``."""

    def co_run(k: int, name: str) -> np.ndarray:
        """``[i, j]``: forward() of category ``name`` for ``i`` next to ``j``."""
        c = model.category(name)
        ci, cj = st[:, k, None], st[None, :, k]
        value = c.alpha + c.beta * ci + c.gamma * cj + c.rho * ci * cj
        return np.where(value > 0.0, value, 0.0)

    with np.errstate(over="ignore", invalid="ignore"):
        fdc, fe, be = (co_run(k, name) for k, name in enumerate(CATEGORIES))
        slowdown = fdc + fe + be  # thread i's slowdown next to thread j
        if not np.isfinite(slowdown).all():
            raise ModelError("predicted slowdown is not finite")
        weights = slowdown + slowdown.T
    np.fill_diagonal(weights, 0.0)
    return weights


def fold_prices(
    model: ModelCoefficients, vectors: Sequence[CategoryTriple]
) -> np.ndarray:
    """Column prices under which each thread's cheapest partner is its fold.

    Without the clamp at zero, the weight of a pair is ``a_i + a_j +
    sum_c 2 * rho_c * x_ic * x_jc`` with the additive part ``a_j =
    sum_c alpha_c + (beta_c + gamma_c) * x_jc``.  The price of thread
    ``j`` is ``a_j + q_j``, where ``q`` prices the fold along the
    category ``k`` with the largest positive ``rho`` (0 if there is
    none): with that category's values sorted ascending, ``q_(0) = 0``
    and ``q_(l+1) = q_(l) + rho_k * (x_(l+1) - x_(l)) * (x_(n-1-l) +
    x_(n-2-l))``.  Then ``2 * rho_k * x_(m) * x_(l) - q_(l)`` steps by
    ``rho_k * (x_(l+1) - x_(l)) * (2 * x_(m) - x_(n-1-l) - x_(n-2-l))``:
    it falls while ``l < n - 1 - m`` and rises after, so under the pair
    term of that category alone the reduced cost ``w_ij - p_j`` of the
    thread at sorted position ``m`` is least at its fold partner, the
    thread at position ``n - 1 - m``, and strictly so when that
    category's values are distinct.  The matcher certifies the fold from
    these prices or starts its exact solve from them
    (:func:`synpa.matcher.min_weight_perfect_matching`); they never
    change its result.
    """
    return _fold_prices(model, _category_matrix(vectors))


def _fold_prices(model: ModelCoefficients, st: np.ndarray) -> np.ndarray:
    """:func:`fold_prices` of the vectors whose category matrix is ``st``."""
    coeffs = [model.category(name) for name in CATEGORIES]
    slopes = np.array([c.beta + c.gamma for c in coeffs])
    prices = sum(c.alpha for c in coeffs) + st @ slopes
    rho = np.array([c.rho for c in coeffs])
    k = int(np.argmax(rho))
    if rho[k] > 0.0 and len(st) > 1:
        order = np.argsort(st[:, k], kind="stable")
        x = st[order, k]
        steps = rho[k] * np.diff(x) * (x[:0:-1] + x[-2::-1])
        q = np.empty(len(x))
        q[order] = np.concatenate(([0.0], np.cumsum(steps)))
        prices += q
    return prices


@dataclass(frozen=True)
class CategorySolution:
    """Per-category inverse solve: isolated values for both threads."""

    x: float  # st value of thread i
    y: float  # st value of thread j
    exact: bool  # residual at solution below tolerance


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


def _edge_minimum(c1: float, d1: float, c2: float, d2: float) -> float:
    """Minimiser over [0, 1] of ``(c1 + d1 t)^2 + (c2 + d2 t)^2``."""
    denom = d1 * d1 + d2 * d2
    if denom == 0.0:
        return 0.0
    return _clip_unit(-(c1 * d1 + c2 * d2) / denom)


def _box_minimum(
    coeffs: CategoryCoefficients, u: float, v: float, roots: list[tuple[float, float]]
) -> tuple[float, float]:
    """Exact minimiser of the squared residual over the unit square.

    With ``det J = (beta - gamma) * (beta + gamma + rho * (x + y))``, an
    interior stationary point off the singular line ``x + y = s`` (``s =
    -(beta + gamma) / rho``) has an invertible Jacobian and is therefore
    an exact root.  With ``beta == gamma`` the difference of the two
    residuals is constant and their bilinear sum is extremal on the
    boundary; with ``rho == 0`` and ``beta == -gamma`` both residuals
    depend on ``x - y`` only.  The minimum is thus among the solver's
    ``roots`` (clipped to the square), the four edge minima (both
    residuals are linear along an edge), and the stationary points of
    the quartic residual along the singular line.  Ties keep the first
    candidate in that order.
    """
    a, b, g, r = coeffs.alpha, coeffs.beta, coeffs.gamma, coeffs.rho
    candidates = [(_clip_unit(x), _clip_unit(y)) for x, y in roots]
    for fixed in (0.0, 1.0):
        # x == fixed: ru = (a + b x - u) + (g + r x) y, rv = (a + g x - v) + (b + r x) y.
        y = _edge_minimum(a + b * fixed - u, g + r * fixed, a + g * fixed - v, b + r * fixed)
        candidates.append((fixed, y))
    for fixed in (0.0, 1.0):
        x = _edge_minimum(a + g * fixed - u, b + r * fixed, a + b * fixed - v, g + r * fixed)
        candidates.append((x, fixed))
    if r != 0.0 and b != g:
        s = -(b + g) / r
        lo, hi = max(0.0, s - 1.0), min(1.0, s)
        if lo < hi:
            # On x = t, y = s - t: ru = p - 2 g t - r t^2, rv = q - 2 b t - r t^2,
            # and dR/dt / 4 is the cubic below.
            p = a + g * s - u
            q = a + b * s - v
            cubic = [2.0 * r * r, 3.0 * r * (b + g), 2.0 * (b * b + g * g) - r * (p + q),
                     -(g * p + b * q)]
            for t in np.roots(cubic).real:
                t = min(max(float(t), lo), hi)
                candidates.append((t, _clip_unit(s - t)))
    return min(candidates, key=lambda c: _residual(coeffs, c[0], c[1], u, v))


def invert_category(
    coeffs: CategoryCoefficients, u: float, v: float
) -> CategorySolution:
    """Recover both threads' isolated values for one category.

    Solves ``u = f(x, y)``, ``v = f(y, x)`` where ``f`` is the forward
    form.  With ``rho == 0`` this is a 2x2 linear solve; otherwise the
    difference of the two equations eliminates one unknown and leaves a
    quadratic, whose root in the unit square (nearest the linear seed on
    ties) is polished by Newton iteration.  When no consistent solution
    exists in the unit square, the result is the least-squares fit
    constrained to the square, computed in closed form, and ``exact`` is
    False.  ``x`` and ``y`` always lie in [0, 1].
    """
    for name, value in (("u", u), ("v", v)):
        if not math.isfinite(value):
            raise ModelError(f"observed category value {name} must be finite")

    seed = _linear_seed(coeffs, u, v)
    polished: list[tuple[float, float]] = []

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
        polished = [_newton_refine(coeffs, cx, cy, u, v) for cx, cy in in_box]

        def from_seed(c: tuple[float, float]) -> float:
            return (c[0] - seed[0]) ** 2 + (c[1] - seed[1]) ** 2

        # Nearest the linear seed on ties between admissible roots.
        if in_box:
            _, (x, y) = min(zip(in_box, polished), key=lambda cp: from_seed(cp[0]))
        elif candidates:
            x, y = _newton_refine(coeffs, *min(candidates, key=from_seed), u, v)
        else:
            x, y = seed

    residual = _residual(coeffs, x, y, u, v)
    scale = max(1.0, u * u + v * v)
    in_unit = -1e-9 <= x <= 1.0 + 1e-9 and -1e-9 <= y <= 1.0 + 1e-9
    if residual <= _EXACT_RESIDUAL_TOL**2 * scale and in_unit:
        return CategorySolution(x=_clip_unit(x), y=_clip_unit(y), exact=True)

    lx, ly = _box_minimum(coeffs, u, v, [(x, y)] + polished)
    lres = _residual(coeffs, lx, ly, u, v)
    exact = lres <= _EXACT_RESIDUAL_TOL**2 * scale
    return CategorySolution(x=lx, y=ly, exact=exact)


@dataclass(frozen=True)
class InversionResult:
    """Estimated isolated vectors for a co-running pair."""

    st_i: CategoryVector
    st_j: CategoryVector
    degraded: bool  # at least one category fell back to least squares


def invert(
    model: ModelCoefficients, smt_ij: CategoryTriple, smt_ji: CategoryTriple
) -> InversionResult:
    """Estimate both threads' isolated vectors from co-run observations.

    ``smt_ij`` holds the observed category values of thread *i* while
    paired with *j*, and ``smt_ji`` the reverse; both must come from the
    same core and quantum.  Each category is solved independently (each
    solution lies in [0, 1]), and the resulting triples are
    renormalized to sum to 1.  ``degraded`` is set when any category had
    no consistent solution and used the least-squares fallback; callers
    should prefer an earlier good estimate in that case.
    """
    xs: dict[str, float] = {}
    ys: dict[str, float] = {}
    degraded = False
    for name in CATEGORIES:
        sol = invert_category(model.category(name), smt_ij.get(name), smt_ji.get(name))
        xs[name] = sol.x
        ys[name] = sol.y
        degraded = degraded or not sol.exact
    return InversionResult(
        st_i=normalize_triple(CategoryTriple(**xs)),
        st_j=normalize_triple(CategoryTriple(**ys)),
        degraded=degraded,
    )
