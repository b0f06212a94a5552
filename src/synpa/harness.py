"""Workload generation and evaluation metrics.

Workloads are drawn from a roster of synthetic apps by
classification-based recipes.  Metrics summarize engine runs:
turnaround time (slowest first launch), fairness (1 - sigma/mu of
individual speedups), committed-IPC geometric mean, and a repeated-runs
aggregator that discards outliers until the turnaround times are stable.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .dispatch import AppClass, CategoryTriple, CategoryVector, classify
from .engine import CYCLES_PER_MS, MAX_QUANTA, Phase, ScheduleLog, SyntheticApp, isolated_rate
from .errors import ConfigError, WorkloadError, read_text

WORKLOAD_VERSION = 1

RECIPES = ("backend", "frontend", "mixed")

#: Largest workload :func:`gen_workload` selects: 64 threads on 32 cores.
MAX_WORKLOAD_SIZE = 64


# ---------------------------------------------------------------------------
# Synthetic app construction


def classify_app(app: SyntheticApp) -> AppClass:
    """Class of a synthetic app from its time-weighted mean behavior.

    Phases are weighted by isolated residence time (budget over rate,
    i.e. proportional to instructions / fdc).
    """
    weights = [p.instructions / p.vector.fdc for p in app.phases]
    total = sum(weights)
    mean = {
        name: sum(w * p.vector.get(name) for w, p in zip(weights, app.phases)) / total
        for name in ("fe", "be", "fdc")
    }
    return classify(CategoryTriple(**mean))


def _vector(rng: np.random.Generator, fe_range, be_range) -> CategoryVector:
    """Sample a normalized vector with fe/be in the given ranges."""
    for _ in range(200):
        fe = float(rng.uniform(*fe_range))
        be = float(rng.uniform(*be_range))
        fdc = 1.0 - fe - be
        if fdc >= 0.05:
            return CategoryVector(fe=fe, be=be, fdc=fdc)
    raise WorkloadError(f"cannot sample a vector with fe in {fe_range}, be in {be_range}")


#: Per-family phase recipes: (fe_range, be_range, duration_quanta_range)
#: alternating between a dominant phase and a relief phase.  Durations
#: are isolated-execution quanta.
_FAMILY_PHASES = {
    "backend": (
        ((0.03, 0.08), (0.78, 0.90), (8.0, 13.0)),  # dominant: memory-bound crawl
        ((0.04, 0.10), (0.14, 0.26), (3.0, 5.0)),  # relief: cache-friendly stretch
    ),
    "frontend": (
        ((0.38, 0.48), (0.10, 0.20), (5.0, 9.0)),  # dominant: fetch-starved
        ((0.18, 0.28), (0.06, 0.14), (4.0, 8.0)),  # relief
    ),
    "other": (
        ((0.12, 0.26), (0.30, 0.48), (6.0, 12.0)),
        ((0.08, 0.20), (0.20, 0.38), (4.0, 9.0)),
    ),
}

_FAMILY_PREFIX = {"backend": "b", "frontend": "f", "other": "o"}

#: Apps per family in the roster of :func:`make_synthetic_roster`.
_ROSTER_COUNTS = (("backend", 10), ("frontend", 8), ("other", 10))

_FAMILY_CLASS = {
    "backend": AppClass.BACKEND_BOUND,
    "frontend": AppClass.FRONTEND_BOUND,
    "other": AppClass.OTHER,
}


def _check_seed(seed: int) -> None:
    """Reject a seed numpy cannot seed a generator with."""
    if seed < 0:
        raise WorkloadError(f"seed must be >= 0, got {seed}")


def make_synthetic_app(
    app_id: str,
    family: str,
    rng: np.random.Generator,
    iso_quanta: float = 60.0,
    cycles_per_quantum: int = 100 * CYCLES_PER_MS,
) -> SyntheticApp:
    """Generate one synthetic app of the given family.

    The app alternates dominant and relief phases, two of each (jittered
    per app), and its per-launch target is sized so one isolated launch
    lasts about ``iso_quanta`` quanta, at most the engine's
    ``MAX_QUANTA`` run limit (a longer launch could never finish).
    Raises if the sampled app fails to classify as its family (ranges
    are chosen so it practically cannot).
    """
    if family not in _FAMILY_PHASES:
        raise WorkloadError(f"unknown app family {family!r}; choose from {sorted(_FAMILY_PHASES)}")
    if not 0.0 < iso_quanta <= MAX_QUANTA:
        raise WorkloadError(
            f"iso_quanta must be > 0 and at most the {MAX_QUANTA}-quantum run limit, "
            f"got {iso_quanta}"
        )
    dominant, relief = _FAMILY_PHASES[family]
    for _ in range(50):
        phases = []
        for _ in range(2):
            for fe_range, be_range, dur_range in (dominant, relief):
                vector = _vector(rng, fe_range, be_range)
                duration = float(rng.uniform(*dur_range))
                rate = isolated_rate(vector, cycles_per_quantum)
                phases.append(Phase(vector=vector, instructions=max(1, int(round(duration * rate)))))
        target = _target_for_quanta(phases, iso_quanta, cycles_per_quantum)
        app = SyntheticApp(app_id=app_id, phases=tuple(phases), target_instructions=target)
        if classify_app(app) == _FAMILY_CLASS[family]:
            return app
    raise WorkloadError(f"could not generate a {family!r} app that classifies as such")


def _target_for_quanta(
    phases: Sequence[Phase],
    iso_quanta: float,
    cycles_per_quantum: int,
) -> int:
    """Instruction target whose isolated duration is ~iso_quanta."""
    remaining = iso_quanta
    total = 0.0
    for phase in itertools.cycle(phases):
        rate = isolated_rate(phase.vector, cycles_per_quantum)
        duration = phase.instructions / rate
        if duration >= remaining:
            total += remaining * rate
            return max(1, int(round(total)))
        total += phase.instructions
        remaining -= duration


def make_synthetic_roster(
    seed: int,
    iso_quanta: float = 60.0,
    cycles_per_quantum: int = 100 * CYCLES_PER_MS,
) -> list[SyntheticApp]:
    """A deterministic bank of 10 backend, 8 frontend and 10 other apps."""
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    roster: list[SyntheticApp] = []
    for family, count in _ROSTER_COUNTS:
        for i in range(count):
            roster.append(
                make_synthetic_app(
                    f"{_FAMILY_PREFIX[family]}{i:02d}",
                    family,
                    rng,
                    iso_quanta=iso_quanta,
                    cycles_per_quantum=cycles_per_quantum,
                )
            )
    return roster


def extra_synthetic_app(
    seed: int,
    app_class: AppClass,
    index: int,
    iso_quanta: float = 60.0,
    cycles_per_quantum: int = 100 * CYCLES_PER_MS,
) -> SyntheticApp:
    """App ``index`` of a class, past the roster of ``seed``.

    Pass it as :func:`gen_workload`'s ``grow`` (with ``seed`` and the
    roster's other settings bound) to reach sizes the default roster of
    :func:`make_synthetic_roster` cannot fill.  Each app comes from its
    own stream, seeded by ``(seed, class, index)``, so it is the same
    however many are drawn, and the default roster never changes.
    """
    family = app_class.value
    _check_seed(seed)
    rng = np.random.default_rng([seed, list(_FAMILY_PREFIX).index(family), index])
    return make_synthetic_app(
        f"{_FAMILY_PREFIX[family]}{index:02d}",
        family,
        rng,
        iso_quanta=iso_quanta,
        cycles_per_quantum=cycles_per_quantum,
    )


# ---------------------------------------------------------------------------
# Workload selection


@dataclass(frozen=True)
class WorkloadSpec:
    """A named, reproducible selection of apps."""

    name: str
    recipe: str
    seed: int
    apps: tuple[SyntheticApp, ...]
    classes: dict[str, AppClass]

    def to_json(self) -> str:
        doc = {
            "version": WORKLOAD_VERSION,
            "name": self.name,
            "recipe": self.recipe,
            "seed": self.seed,
            "apps": [
                {**app.to_dict(), "class": self.classes[app.app_id].value}
                for app in self.apps
            ],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "WorkloadSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise WorkloadError(f"workload file is not valid JSON: {exc}") from None
        if not isinstance(doc, dict) or doc.get("version") != WORKLOAD_VERSION:
            raise WorkloadError("workload file missing or unsupported version")
        try:
            apps = tuple(SyntheticApp.from_dict(entry) for entry in doc["apps"])
            classes = {
                str(entry["app_id"]): AppClass(entry["class"]) for entry in doc["apps"]
            }
            return cls(
                name=str(doc["name"]),
                recipe=str(doc["recipe"]),
                seed=int(doc["seed"]),
                apps=apps,
                classes=classes,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise WorkloadError(f"bad workload file: {exc}") from None


def gen_workload(
    recipe: str,
    roster: Sequence[SyntheticApp],
    seed: int,
    size: int = 8,
    grow: Callable[[AppClass, int], SyntheticApp] | None = None,
) -> WorkloadSpec:
    """Select a workload of ``size`` apps from a classified roster.

    Recipes: ``backend`` picks 5 or 6 backend-bound apps (seeded coin,
    forced to 5 when only 5 exist) plus unclassified ("other") apps for
    the rest; ``frontend`` does the same for frontend-bound; ``mixed``
    picks half backend- and half frontend-bound, the odd one out
    backend-bound.  A class the roster holds too few apps of is topped
    up with ``grow(app_class, index)`` for the next indices, if given
    (see :func:`extra_synthetic_app`); a class with enough apps is left
    as it is, so growing never changes a workload the roster can fill.
    Raises :class:`WorkloadError` when the roster cannot satisfy the
    recipe or ``size`` is outside 2 to :data:`MAX_WORKLOAD_SIZE`.
    """
    if recipe not in RECIPES:
        raise WorkloadError(f"unknown recipe {recipe!r}; choose from {RECIPES}")
    if not 2 <= size <= MAX_WORKLOAD_SIZE:
        raise WorkloadError(
            f"workload size must be between 2 and {MAX_WORKLOAD_SIZE}, got {size}"
        )
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    groups: dict[AppClass, list[SyntheticApp]] = {c: [] for c in AppClass}
    for app in roster:
        groups[classify_app(app)].append(app)
    for members in groups.values():
        members.sort(key=lambda a: a.app_id)

    if recipe == "mixed":
        need = {AppClass.BACKEND_BOUND: (size + 1) // 2, AppClass.FRONTEND_BOUND: size // 2}
    else:
        dominant = (
            AppClass.BACKEND_BOUND if recipe == "backend" else AppClass.FRONTEND_BOUND
        )
        k = int(rng.integers(5, 7))  # 5 or 6 dominant apps
        k = min(k, size, len(groups[dominant]))  # forced when only 5 exist
        if k < min(5, size):
            raise WorkloadError(
                f"recipe {recipe!r} needs at least {min(5, size)} "
                f"{dominant.value} apps, roster has {len(groups[dominant])}"
            )
        need = {dominant: k, AppClass.OTHER: size - k}

    chosen: list[SyntheticApp] = []
    for app_class in sorted(need, key=lambda c: c.value):
        count = need[app_class]
        members = groups[app_class]
        if grow is not None:
            members += [grow(app_class, i) for i in range(len(members), count)]
        if len(members) < count:
            raise WorkloadError(
                f"recipe {recipe!r} needs {count} {app_class.value} apps, "
                f"roster has {len(members)}"
            )
        picks = rng.choice(len(members), size=count, replace=False)
        chosen.extend(members[i] for i in sorted(picks))

    chosen.sort(key=lambda a: a.app_id)
    return WorkloadSpec(
        name=f"{recipe}-s{seed}",
        recipe=recipe,
        seed=seed,
        apps=tuple(chosen),
        classes={a.app_id: classify_app(a) for a in chosen},
    )


# ---------------------------------------------------------------------------
# Metrics


def load_log_summary(path: str) -> ScheduleLog:
    """Load the header and summary of a run log written by the engine.

    Per-quantum records are not rehydrated (``records`` comes back
    empty); the result carries everything :func:`compute_metrics` needs.
    """
    lines = [line for line in read_text(path).splitlines() if line.strip()]
    if len(lines) < 2:
        raise ConfigError(f"{path}: not a run log (too short)")
    try:
        header = json.loads(lines[0])
        summary_doc = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not a run log: {exc}") from None
    if not isinstance(header, dict) or header.get("kind") != "schedule-log":
        raise ConfigError(f"{path}: not a run log (bad header)")
    summary = summary_doc.get("summary") if isinstance(summary_doc, dict) else None
    if not isinstance(summary, dict):
        raise ConfigError(f"{path}: run log has no summary line")
    try:
        return ScheduleLog(
            policy=str(header["policy"]),
            seed=int(header["seed"]),
            quantum_ms=float(header["quantum_ms"]),
            dispatch_width=int(header["dispatch_width"]),
            cycles_per_quantum=int(header["cycles_per_quantum"]),
            noise_sigma=float(header["noise_sigma"]),
            apps=tuple(str(a) for a in header["apps"]),
            records=(),
            first_completion={
                str(k): int(v) for k, v in summary["first_completion"].items()
            },
            relaunches={str(k): int(v) for k, v in summary["relaunches"].items()},
            iso_quanta={str(k): float(v) for k, v in summary["iso_quanta"].items()},
            instructions={
                str(k): float(v) for k, v in summary["instructions"].items()
            },
            total_quanta=int(summary["total_quanta"]),
            mode=str(header["mode"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad run log: {exc}") from None


def turnaround_time(log: ScheduleLog) -> int:
    """Quanta until the slowest app finished its first launch."""
    if not log.first_completion:
        raise ConfigError("log has no completion information")
    missing = sorted(a for a, q in log.first_completion.items() if q is None or q < 1)
    if missing:
        raise ConfigError(f"apps never completed: {missing}")
    return max(log.first_completion.values())


def fairness(speedups: Iterable[float]) -> float:
    """1 - sigma/mu (population sigma) of individual speedups."""
    values = list(speedups)
    if not values:
        raise ConfigError("fairness needs at least one speedup")
    if any(v <= 0 for v in values):
        raise ConfigError("speedups must be positive")
    mean = statistics.fmean(values)
    return 1.0 - statistics.pstdev(values, mu=mean) / mean


def ipc_geomean(values: Iterable[float]) -> float:
    """Geometric mean of IPCs; 0.0 if any IPC is 0."""
    vals = list(values)
    if not vals:
        raise ConfigError("ipc_geomean needs at least one value")
    if any(v < 0 for v in vals):
        raise ConfigError("IPC values must be nonnegative")
    if any(v == 0 for v in vals):
        return 0.0
    return math.prod(vals) ** (1.0 / len(vals))


@dataclass(frozen=True)
class MetricsReport:
    """Summary metrics of one engine run."""

    policy: str
    seed: int
    turnaround_quanta: int
    turnaround_ms: float
    fairness: float | None  # None when no isolated baseline exists (replay)
    ipc_geomean: float
    zero_ipc: bool
    speedups: dict[str, float]
    ipc: dict[str, float]

    def to_json(self) -> str:
        doc = {
            "kind": "metrics",
            "policy": self.policy,
            "seed": self.seed,
            "turnaround_quanta": self.turnaround_quanta,
            "turnaround_ms": self.turnaround_ms,
            "fairness": self.fairness,
            "ipc_geomean": self.ipc_geomean,
            "zero_ipc": self.zero_ipc,
            "speedups": self.speedups,
            "ipc": self.ipc,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def compute_metrics(log: ScheduleLog) -> MetricsReport:
    """Metrics for one run.

    Speedups (and hence fairness) need the ground-truth isolated
    durations, which only simulation logs carry; replay logs yield
    turnaround and IPC only.
    """
    tt = turnaround_time(log)
    ipc = {
        a: log.instructions[a] / (log.first_completion[a] * log.cycles_per_quantum)
        for a in log.apps
    }
    zero = any(v == 0 for v in ipc.values())
    speedups: dict[str, float] = {}
    fair: float | None = None
    if log.iso_quanta:
        speedups = {
            a: log.iso_quanta[a] / log.first_completion[a] for a in log.apps
        }
        fair = fairness(speedups.values())
    return MetricsReport(
        policy=log.policy,
        seed=log.seed,
        turnaround_quanta=tt,
        turnaround_ms=tt * log.quantum_ms,
        fairness=fair,
        ipc_geomean=ipc_geomean(ipc.values()),
        zero_ipc=zero,
        speedups=speedups,
        ipc=ipc,
    )


@dataclass(frozen=True)
class AggregateReport:
    """Repeated-runs aggregation with outlier discard."""

    n_runs: int
    n_retained: int
    discarded: tuple[int, ...]  # indices into the input run list
    cv_threshold: float
    tt_cv: float
    cv_met: bool
    turnaround_quanta_mean: float
    turnaround_ms_mean: float
    fairness_mean: float | None
    ipc_geomean_mean: float

    def to_json(self) -> str:
        doc = {
            "kind": "aggregate",
            "n_runs": self.n_runs,
            "n_retained": self.n_retained,
            "discarded": list(self.discarded),
            "cv_threshold": self.cv_threshold,
            "tt_cv": self.tt_cv,
            "cv_met": self.cv_met,
            "turnaround_quanta_mean": self.turnaround_quanta_mean,
            "turnaround_ms_mean": self.turnaround_ms_mean,
            "fairness_mean": self.fairness_mean,
            "ipc_geomean_mean": self.ipc_geomean_mean,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


CSV_COLUMNS = (
    "policy",
    "seed",
    "turnaround_quanta",
    "turnaround_ms",
    "fairness",
    "ipc_geomean",
    "zero_ipc",
)


def metrics_csv(reports: Sequence[MetricsReport]) -> str:
    """Flat CSV of run metrics, one row per run."""
    lines = [",".join(CSV_COLUMNS)]
    for r in reports:
        fair = "" if r.fairness is None else repr(r.fairness)
        lines.append(
            f"{r.policy},{r.seed},{r.turnaround_quanta},{r.turnaround_ms!r},"
            f"{fair},{r.ipc_geomean!r},{int(r.zero_ipc)}"
        )
    return "\n".join(lines) + "\n"


def _cv(values: Sequence[float]) -> float:
    mean = statistics.fmean(values)
    if mean == 0:
        raise ConfigError("turnaround times must be positive")
    return statistics.pstdev(values, mu=mean) / mean


def check_cv_threshold(cv_threshold: float) -> None:
    """Reject a stability threshold that the outlier filter cannot use."""
    if not (math.isfinite(cv_threshold) and cv_threshold > 0):
        raise ConfigError(f"cv_threshold must be finite and positive, got {cv_threshold}")


def aggregate_runs(
    reports: Sequence[MetricsReport], cv_threshold: float = 0.05
) -> AggregateReport:
    """Aggregate repeated runs, discarding turnaround outliers.

    While the coefficient of variation of the retained turnaround times
    exceeds the threshold and more than two runs remain, the run
    farthest from the mean is discarded (first such index on ties).
    """
    if len(reports) < 2:
        raise ConfigError("aggregate_runs needs at least two reports")
    check_cv_threshold(cv_threshold)
    retained = list(range(len(reports)))
    discarded: list[int] = []
    while True:
        tts = [float(reports[i].turnaround_quanta) for i in retained]
        cv = _cv(tts)
        if cv <= cv_threshold or len(retained) <= 2:
            break
        mean = statistics.fmean(tts)
        worst = max(range(len(retained)), key=lambda k: (abs(tts[k] - mean), -k))
        discarded.append(retained.pop(worst))

    kept = [reports[i] for i in retained]
    fairness_values = [r.fairness for r in kept if r.fairness is not None]
    return AggregateReport(
        n_runs=len(reports),
        n_retained=len(kept),
        discarded=tuple(sorted(discarded)),
        cv_threshold=cv_threshold,
        tt_cv=cv,
        cv_met=cv <= cv_threshold,
        turnaround_quanta_mean=statistics.fmean(
            [r.turnaround_quanta for r in kept]
        ),
        turnaround_ms_mean=statistics.fmean([r.turnaround_ms for r in kept]),
        fairness_mean=(
            statistics.fmean(fairness_values) if fairness_values else None
        ),
        ipc_geomean_mean=statistics.fmean([r.ipc_geomean for r in kept]),
    )
