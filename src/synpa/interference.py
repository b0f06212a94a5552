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
the two-equation bilinear system per category: one plain-float kernel,
:func:`invert_category`, which :func:`invert` runs on each category.

The forward direction has one pair kernel, :func:`predict_pair`, on
plain floats (the simulator's), and one roster pass: a broadcast over
the estimates' category matrix (:func:`category_matrix`) gives every
thread's slowdown next to every other (:func:`co_run_slowdowns`), and
agrees with the pair kernel bit for bit.  The engine builds both matrices
once per quantum; the decision's pair weights
(:func:`synpa.matcher.build_graph`), its fold prices
(:func:`fold_prices`) and replay's logged slowdowns all come from them.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dispatch import CATEGORIES, CategoryTriple, CategoryVector, category_values, unit_vector
from .errors import Fail, ModelError, failing, json_document, json_number, json_object, json_string

COEFFICIENTS_VERSION = 1

#: Residual below which an inversion counts as an exact solve.
_EXACT_RESIDUAL_TOL = 1e-8
#: |rho| below this is treated as a linear model.
_LINEAR_RHO_TOL = 1e-12
_SINGULAR_TOL = 1e-12
_EXACT_RESIDUAL_TOL_SQ = _EXACT_RESIDUAL_TOL**2
#: Slack around the unit square when testing whether a root lies in it.
_SLACK = 1e-9
_UNIT_SLACK = 1.0 + _SLACK
#: The error of a form so large that its solve leaves float range.
_OVERFLOW = "inversion overflows: the form's values are beyond float range"
#: Largest coefficient magnitude; fitted ones are O(1), at most 1.44 in the reference model.
MAX_COEFFICIENT = 1e6


#: The coefficients of one category's form, in order.
_FORM_FIELDS = ("alpha", "beta", "gamma", "rho")


@dataclass(frozen=True)
class CategoryCoefficients:
    """Coefficients (alpha, beta, gamma, rho) of one category's form."""

    alpha: float
    beta: float
    gamma: float
    rho: float

    def __post_init__(self) -> None:
        for name in _FORM_FIELDS:
            _bounded(getattr(self, name), f"coefficient {name}", ModelError)


def _bounded(value: float, field: str, error: Fail) -> float:
    """``value`` if it is within +/-:data:`MAX_COEFFICIENT`; else ``error`` naming ``field``."""
    if not abs(value) <= MAX_COEFFICIENT:  # NaN too
        raise error(f"{field} must be within +/-{MAX_COEFFICIENT:g}, got {value!r}")
    return value


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

    @functools.cached_property
    def _forms(self) -> tuple[tuple[float, float, float, float], ...]:
        """Each category's ``(alpha, beta, gamma, rho)``, in :data:`CATEGORIES` order."""
        return tuple(dataclasses.astuple(getattr(self, name)) for name in CATEGORIES)

    @functools.cached_property
    def _form_arrays(self) -> tuple[np.ndarray, ...]:
        """:attr:`_forms` as alpha, beta, gamma and rho arrays over the
        categories, each shaped ``(3, 1, 1)`` to broadcast over pairs."""
        return tuple(np.array(self._forms).T.reshape(4, len(CATEGORIES), 1, 1))

    @functools.cached_property
    def _fold_terms(self) -> tuple[float, np.ndarray, int, float]:
        """What :func:`fold_prices` reads: the alpha sum, ``beta + gamma`` per
        category, and the category ``k`` of the largest ``rho`` (first on ties) with its ``rho``."""
        alphas, slopes, rho = zip(*((a, b + g, r) for a, b, g, r in self._forms))
        k = int(np.argmax(rho))
        return sum(alphas), np.array(slopes), k, rho[k]

    @functools.cached_property
    def max_slowdown(self) -> float:
        """A finite bound on every predicted slowdown of category values in [0, 1]: per category, the
        largest clamped form value at the unit square's corners (a bilinear form's extremes), plus
        ``2**-49`` of its coefficient magnitudes, over twice the rounding of float forms (``7 * 2**-53``)."""
        return sum(max(0.0, a, a + b, a + g, a + b + g + r) + 2.0**-49 * (abs(a) + abs(b) + abs(g) + abs(r))
                   for a, b, g, r in self._forms)

    def as_dict(self) -> dict:
        """The coefficient file's document."""
        return {
            "version": COEFFICIENTS_VERSION,
            "provenance": self.provenance,
            "categories": {name: dataclasses.asdict(self.category(name)) for name in CATEGORIES},
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ModelCoefficients":
        error = failing(ModelError, "bad coefficient file")
        doc = json_document(text, error, version=COEFFICIENTS_VERSION)
        cats = json_object(doc.get("categories"), "categories", error, keys=CATEGORIES)
        parsed = {}
        for name in CATEGORIES:
            entry = json_object(cats[name], name, error)
            parsed[name] = CategoryCoefficients(**{
                key: _bounded(json_number(entry.get(key), f"{name}.{key}", error), f"{name}.{key}", error)
                for key in _FORM_FIELDS
            })
        return cls(
            **parsed,
            provenance=json_string(doc.get("provenance", "unspecified"), "provenance", error),
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


def predict_pair(
    model: ModelCoefficients, st_i: CategoryTriple, st_j: CategoryTriple
) -> tuple[tuple[float, float, float, float], tuple[float, float, float, float]]:
    """Both threads' co-run ``(fdc, fe, be, slowdown)`` on plain floats: each
    category's form, clamped at zero but not above 1 (values above 1 carry the
    slowdown), and their sum ``fdc + fe + be``.  The simulator's pair kernel."""
    fdc, fe, be = model._forms
    fdc_i, fdc_j = _both_ways(fdc, st_i.fdc, st_j.fdc)
    fe_i, fe_j = _both_ways(fe, st_i.fe, st_j.fe)
    be_i, be_j = _both_ways(be, st_i.be, st_j.be)
    return (fdc_i, fe_i, be_i, fdc_i + fe_i + be_i), (fdc_j, fe_j, be_j, fdc_j + fe_j + be_j)


def _both_ways(form: tuple[float, float, float, float], ci: float, cj: float) -> tuple[float, float]:
    """One category's clamped form of ``(ci, cj)`` and of ``(cj, ci)``."""
    a, b, g, r = form
    vi = a + b * ci + g * cj + r * ci * cj
    vj = a + b * cj + g * ci + r * cj * ci
    return vi if vi > 0.0 else 0.0, vj if vj > 0.0 else 0.0


def category_matrix(vectors: Sequence[CategoryTriple]) -> np.ndarray:
    """``[i, k]``: category ``CATEGORIES[k]`` of ``vectors[i]``."""
    return np.array([category_values(v) for v in vectors], dtype=float).reshape(
        len(vectors), len(CATEGORIES)
    )


def co_run_slowdowns(model: ModelCoefficients, st: np.ndarray) -> np.ndarray:
    """Predicted slowdown of every thread next to every other, as a matrix.

    ``st`` is the :func:`category_matrix` of the threads' vectors.
    Entry ``[i, j]`` (``i != j``) is the slowdown of ``vectors[i]``
    next to ``vectors[j]``, and equals the slowdown of ``vectors[i]`` in
    ``predict_pair(model, vectors[i], vectors[j])`` bit for bit: each
    float64 operation is the pair kernel's, in the same order.  The
    diagonal holds each thread next to a copy of itself.  One broadcast
    pass: ``value[k, i, j]`` is the clamped form of category ``k`` for
    ``i`` next to ``j``.  With every coefficient within
    :data:`MAX_COEFFICIENT`, no term overflows: each entry is at most the
    model's finite ``max_slowdown``.
    """
    a, b, g, r = model._form_arrays
    x = np.ascontiguousarray(st.T)  # [k, i]: contiguous rows broadcast fastest
    ci, cj = x[:, :, None], x[:, None, :]
    value = a + b * ci + g * cj + r * ci * cj
    value = np.where(value > 0.0, value, 0.0)
    return value[0] + value[1] + value[2]


def fold_prices(model: ModelCoefficients, st: np.ndarray) -> np.ndarray:
    """Column prices under which each thread's cheapest partner is its fold.

    ``st`` is the :func:`category_matrix` of the threads' vectors, with
    entries ``x_jc``.  Without the clamp at zero, the weight of a pair
    is ``a_i + a_j + sum_c 2 * rho_c * x_ic * x_jc`` with the additive
    part ``a_j = sum_c alpha_c + (beta_c + gamma_c) * x_jc``.  The price of thread
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
    change its result.  The fold term runs on plain floats: a stable sort
    of the column, then a running sum of the steps in rank order.
    """
    alphas, slopes, k, rho = model._fold_terms
    prices = alphas + st @ slopes
    if rho > 0.0 and len(st) > 1:
        column = st[:, k].tolist()
        order = sorted(range(len(column)), key=column.__getitem__)
        x = [column[i] for i in order]
        steps = [rho * (hi - lo) * (a + b) for lo, hi, a, b in zip(x, x[1:], x[:0:-1], x[-2::-1])]
        q = [0.0] * len(x)
        for i, value in zip(order[1:], itertools.accumulate(steps)):
            q[i] = value
        prices += q
    return prices


def invert_category(
    coeffs: CategoryCoefficients, u: float, v: float
) -> tuple[float, float] | None:
    """Recover both threads' isolated values for one category.

    Solves ``u = f(x, y)``, ``v = f(y, x)`` where ``f`` is the forward
    form, on plain floats, and returns the solution ``(x, y)`` clipped
    to [0, 1], or None when no exact solution lies in the unit square.

    The steps, in order:

    * the linear seed, the system solved with ``rho`` taken as zero
      (``beta == +/-gamma`` falls back to the symmetric solution and the
      all-zero form to (0, 0));
    * the roots of the quadratic left by the difference of the two
      equations: of those in the unit square, or else of all of them,
      the one nearest the seed, the first on ties, polished by up to 12
      damped Newton steps that keep the best iterate;
    * the check of that point, or of the seed where the form is linear
      or the quadratic has no real root: it is exact when it lies in the
      square up to ``_SLACK`` and its squared residual is at most
      ``_EXACT_RESIDUAL_TOL**2 * max(1, u**2 + v**2)``.

    ``tests/reference_inversion.py`` keeps these steps as separate
    helpers: the reference this kernel matches bit for bit.
    """
    a, b, g, r = coeffs.alpha, coeffs.beta, coeffs.gamma, coeffs.rho
    if not math.isfinite(u):
        raise ModelError("observed category value u must be finite")
    if not math.isfinite(v):
        raise ModelError("observed category value v must be finite")

    det = b * b - g * g
    if abs(det) > _SINGULAR_TOL:
        sx = (b * (u - a) - g * (v - a)) / det
        sy = (b * (v - a) - g * (u - a)) / det
    elif abs(b + g) > _SINGULAR_TOL:
        sx = sy = (0.5 * (u + v) - a) / (b + g)
    else:
        sx = sy = 0.0

    x, y = sx, sy
    if abs(r) >= _LINEAR_RHO_TOL:
        if abs(b - g) > _SINGULAR_TOL:
            # y = x - d with d fixed by the difference of the equations.
            d, target = (u - v) / (b - g), u
        else:
            # beta == gamma: the difference carries no information; fall
            # back to the symmetric assumption x == y on the mean equation.
            d, target = 0.0, 0.5 * (u + v)
        qb = b + g - r * d
        qc = a - g * d - target
        disc = qb * qb - 4.0 * r * qc
        if disc >= 0.0:
            sq = math.sqrt(disc)
            # Numerically stable pair of roots (r != 0 here).
            q = -0.5 * (qb + sq) if qb >= 0.0 else -0.5 * (qb - sq)
            roots = (q / r, qc / q) if abs(q) > 0.0 else (q / r,)
            starts = []  # the roots in the square
            for root in roots:
                if -_SLACK <= root <= _UNIT_SLACK and -_SLACK <= root - d <= _UNIT_SLACK:
                    starts.append((root, root - d))
            # The start nearest the seed, the first on ties: of the roots in
            # the square, or else of all of them.  A lone root in the square
            # needs its distance only to raise where it overflows.
            pick = 0
            if len(starts) != 1 or abs(sx) > 1e150 or abs(sy) > 1e150:
                starts = starts or [(root, root - d) for root in roots]
                pick = _nearest_seed(starts, sx, sy)
            x, y = px, py = starts[pick]
            fx = a + b * px + g * py + r * px * py - u
            fy = a + b * py + g * px + r * px * py - v
            best = fx * fx + fy * fy
            for _ in range(12):
                j11 = b + r * py
                j12 = g + r * px
                j21 = g + r * py
                j22 = b + r * px
                jdet = j11 * j22 - j12 * j21
                if abs(jdet) < _SINGULAR_TOL:
                    break
                dx = (fx * j22 - fy * j12) / jdet
                dy = (fy * j11 - fx * j21) / jdet
                px, py = px - dx, py - dy
                fx = a + b * px + g * py + r * px * py - u
                fy = a + b * py + g * px + r * px * py - v
                res = fx * fx + fy * fy
                if res < best:
                    x, y, best = px, py, res
                if res < 1e-28:
                    break

    ru = a + b * x + g * y + r * x * y - u
    rv = a + b * y + g * x + r * x * y - v
    scale = u * u + v * v
    if (ru * ru + rv * rv <= _EXACT_RESIDUAL_TOL_SQ * (scale if scale > 1.0 else 1.0)
            and -_SLACK <= x <= _UNIT_SLACK and -_SLACK <= y <= _UNIT_SLACK):
        return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x, 0.0 if y < 0.0 else 1.0 if y > 1.0 else y
    return None


def _nearest_seed(points: Sequence[tuple[float, float]], sx: float, sy: float) -> int:
    """Index of the point nearest the seed ``(sx, sy)``, the first on ties."""
    try:
        distance = [(px - sx) ** 2 + (py - sy) ** 2 for px, py in points]
    except OverflowError:  # a root too far off for floats
        raise ModelError(_OVERFLOW) from None
    return distance.index(min(distance))


@dataclass(frozen=True)
class InversionResult:
    """Estimated isolated vectors for a co-running pair.

    ``degraded`` means that some category had no exact solution in the
    unit square; the result then holds no vectors.
    """

    st_i: CategoryVector | None
    st_j: CategoryVector | None
    degraded: bool


_DEGRADED = InversionResult(st_i=None, st_j=None, degraded=True)


def invert(
    model: ModelCoefficients, smt_ij: CategoryTriple, smt_ji: CategoryTriple
) -> InversionResult:
    """Estimate both threads' isolated vectors from co-run observations.

    ``smt_ij`` holds the observed category values of thread *i* while
    paired with *j*, and ``smt_ji`` the reverse; both must come from the
    same core and quantum.  Each category is solved independently (each
    solution lies in [0, 1]), and the resulting triples are
    renormalized to sum to 1.  All three categories are solved, so a
    non-finite observation or an overflowing root in any of them is a
    :class:`ModelError`; when any category has no exact solution, the
    result is ``degraded`` and holds no vectors, and callers keep an
    earlier good estimate.
    """
    fdc = invert_category(model.fdc, smt_ij.fdc, smt_ji.fdc)
    fe = invert_category(model.fe, smt_ij.fe, smt_ji.fe)
    be = invert_category(model.be, smt_ij.be, smt_ji.be)
    if fdc is None or fe is None or be is None:
        return _DEGRADED
    return InversionResult(
        st_i=unit_vector(fdc[0], fe[0], be[0]),
        st_j=unit_vector(fdc[1], fe[1], be[1]),
        degraded=False,
    )
