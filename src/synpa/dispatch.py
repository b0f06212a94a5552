"""Per-thread behavior characterization from dispatch-stage counters.

Each cycle of a thread's execution is attributed to exactly one of
three categories:

* ``fe`` — cycles lost to front-end stalls (no micro-ops available),
* ``be`` — cycles lost to back-end stalls, including *revealed* stalls
  (dispatch cycles that could not run at full width because the
  back end was not draining fast enough),
* ``fdc`` — full-dispatch cycles, the fraction actually doing work.

The three categories always partition the measured cycles exactly.  To
keep that identity immune to rounding, the breakdown is carried
in integer *slot units* of ``1/dispatch_width`` cycle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .counters import RawCounterSample
from .errors import DegenerateSampleError, ModelError

#: Canonical category iteration order used throughout the package.
CATEGORIES = ("fdc", "fe", "be")

#: Classification thresholds on isolated-execution category fractions.
BACKEND_BOUND_THRESHOLD = 0.65
FRONTEND_BOUND_THRESHOLD = 0.35


class AppClass(enum.Enum):
    """Coarse behavior class of an application."""

    BACKEND_BOUND = "backend"
    FRONTEND_BOUND = "frontend"
    OTHER = "other"


@dataclass(frozen=True)
class CategoryTriple:
    """A raw (fe, be, fdc) triple; entries are nonnegative, any scale.

    Predicted paired-execution categories live here: their sum is the
    slowdown relative to isolated execution, so it normally exceeds 1.
    """

    fe: float
    be: float
    fdc: float

    def __post_init__(self) -> None:
        for name in CATEGORIES:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ModelError(f"category {name} must be finite, got {value!r}")
            if value < 0:
                raise ModelError(f"category {name} must be >= 0, got {value!r}")

    def get(self, category: str) -> float:
        if category not in CATEGORIES:
            raise ModelError(f"unknown category {category!r}")
        return getattr(self, category)

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in CATEGORIES}

    @property
    def total(self) -> float:
        return self.fdc + self.fe + self.be


_VECTOR_SUM_TOL = 1e-9


@dataclass(frozen=True)
class CategoryVector(CategoryTriple):
    """A normalized category triple: entries in [0, 1] summing to 1."""

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in CATEGORIES:
            value = getattr(self, name)
            if value > 1.0 + _VECTOR_SUM_TOL:
                raise ModelError(f"category {name} must be <= 1, got {value!r}")
        total = self.fe + self.be + self.fdc
        if abs(total - 1.0) > _VECTOR_SUM_TOL:
            raise ModelError(f"category fractions must sum to 1, got {total!r}")


#: Neutral prior used when no estimate is available.
UNIFORM_VECTOR = CategoryVector(fe=1.0 / 3.0, be=1.0 / 3.0, fdc=1.0 / 3.0)


@dataclass(frozen=True)
class CategoryBreakdown:
    """Exact three-way cycle attribution for one counter sample.

    Unit fields are integers in slot units (``1/dispatch_width`` cycle),
    so ``fe_units + be_units + fdc_units == total_cycles * dispatch_width``
    holds exactly.  ``clamped`` is set when the raw counters were
    inconsistent (stalls exceeding total cycles, or more speculative
    instructions than dispatch slots) and had to be clipped.
    """

    total_cycles: int
    dispatch_width: int
    fe_units: int
    be_units: int
    fdc_units: int
    reveal_units: int
    clamped: bool = False

    @property
    def total_units(self) -> int:
        return self.total_cycles * self.dispatch_width


def characterize(sample: RawCounterSample, dispatch_width: int) -> CategoryBreakdown:
    """Attribute a sample's cycles to the three dispatch categories.

    Dispatch cycles are whatever is left after the measured front-end
    and back-end stalls; of those, ``inst_spec / dispatch_width`` cycles
    count as full dispatch and the remainder is *revealed* back-end
    pressure.  Inconsistent counters are clamped in a fixed order
    (front-end stalls first, then back-end, then full dispatch) so the
    partition identity survives, and the result is flagged.
    """
    if not isinstance(dispatch_width, int) or dispatch_width < 1:
        raise ModelError(f"dispatch_width must be an integer >= 1, got {dispatch_width!r}")
    if sample.cpu_cycles <= 0:
        raise DegenerateSampleError(
            f"thread {sample.thread_id!r} quantum {sample.quantum_index}: "
            "cpu_cycles must be positive to characterize a sample"
        )

    w = dispatch_width
    total_u = sample.cpu_cycles * w
    clamped = False

    fe_u = sample.stall_frontend * w
    if fe_u > total_u:
        fe_u = total_u
        clamped = True

    be_measured_u = sample.stall_backend * w
    if be_measured_u > total_u - fe_u:
        be_measured_u = total_u - fe_u
        clamped = True

    dispatch_u = total_u - fe_u - be_measured_u  # >= 0 by construction
    fdc_u = sample.inst_spec  # inst_spec is already in slot units
    if fdc_u > dispatch_u:
        fdc_u = dispatch_u
        clamped = True
    reveal_u = dispatch_u - fdc_u

    return CategoryBreakdown(
        total_cycles=sample.cpu_cycles,
        dispatch_width=w,
        fe_units=fe_u,
        be_units=be_measured_u + reveal_u,
        fdc_units=fdc_u,
        reveal_units=reveal_u,
        clamped=clamped,
    )


def normalize(breakdown: CategoryBreakdown) -> CategoryVector:
    """Convert a breakdown to fractions of total cycles."""
    total = breakdown.total_units
    return CategoryVector(
        fe=breakdown.fe_units / total,
        be=breakdown.be_units / total,
        fdc=breakdown.fdc_units / total,
    )


def normalize_triple(triple: CategoryTriple) -> CategoryVector:
    """Scale a triple to fractions of its total; uniform if the total is ~0."""
    total = triple.total
    if total <= 1e-12:
        return UNIFORM_VECTOR
    return CategoryVector(fe=triple.fe / total, be=triple.be / total, fdc=triple.fdc / total)


def classify(vector: CategoryTriple) -> AppClass:
    """Classify behavior from an isolated-execution category vector.

    Back-end dominance is tested first: a thread above both thresholds
    is backend-bound.
    """
    if vector.be > BACKEND_BOUND_THRESHOLD:
        return AppClass.BACKEND_BOUND
    if vector.fe > FRONTEND_BOUND_THRESHOLD:
        return AppClass.FRONTEND_BOUND
    return AppClass.OTHER
