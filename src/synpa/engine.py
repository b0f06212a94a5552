"""Closed-loop allocation engine and SMT co-execution simulator.

Each scheduling quantum the engine:

1. observes every present thread under the pairs in effect,
2. keeps the pairs whose threads are all present and pairs the rest,
3. estimates every thread's isolated behavior by inverting the
   interference model on each pair's observations,
4. predicts the combined slowdown of every possible pair from those
   estimates, and
5. solves a minimum-weight perfect matching to pick the next quantum's
   thread-to-core assignment.

One loop (:func:`run`) does this for simulation and replay alike; only
the observation source differs.  Observations come either from a
synthetic workload simulator (closed loop: the chosen assignment
determines progress) or from a recorded trace (open loop: decisions
are logged against fixed observations).

The simulator models one kind of 2-way SMT core, defined once here: it
dispatches :data:`DISPATCH_WIDTH` operations per cycle at
:data:`CYCLES_PER_MS` cycles per millisecond.  The simulator advances
each app through a cyclic sequence of phases.  An app's isolated
progress rate (:func:`isolated_rate`) is ``fdc * DISPATCH_WIDTH *
cycles_per_quantum`` instructions per quantum; co-running divides that
by the pair's model-predicted slowdown.  Completed apps are relaunched
immediately so SMT pressure stays constant, and a run ends once every
app has finished its first launch.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .counters import RawCounterSample, TraceHeader, open_trace
from .dispatch import (
    CATEGORIES,
    CategoryTriple,
    CategoryVector,
    UNIFORM_VECTOR,
    characterize,
    normalize,
    normalize_triple,
)
from .errors import ConfigError, TraceError, WorkloadError
from .interference import (
    ModelCoefficients,
    REFERENCE_COEFFICIENTS,
    fold_prices,
    invert,
    pair_weight_matrix,
    predict_pair,
)
# Decisions take the pair-weight matrix, so ``build_graph`` is unused here;
# the benchmark's tracer still resolves it from this module by name.
from .matcher import (  # noqa: F401
    DP_MAX_NODES,
    IDLE_NODE,
    build_graph,
    graph_from_matrix,
    min_weight_perfect_matching,
)

#: Nominal simulated clock: cycles per millisecond (1 GHz).
CYCLES_PER_MS = 1_000_000

#: Dispatch slots per cycle of the simulated core.
DISPATCH_WIDTH = 4

POLICIES = ("synpa", "random", "static")

#: Longest run, in quanta, the engine will schedule.
MAX_QUANTA = 1_000_000

#: Weight a stale estimate keeps per quantum of age (see ``_EstimateStore``).
ESTIMATE_DECAY = 0.5

LOG_VERSION = 1


def cycles_per_quantum(quantum_ms: float) -> int:
    """Simulated cycles in a quantum of ``quantum_ms`` milliseconds.

    Raises :class:`ConfigError` unless the quantum is finite and at
    least one cycle long.
    """
    cycles = quantum_ms * CYCLES_PER_MS
    if not (math.isfinite(cycles) and round(cycles) >= 1):
        raise ConfigError(f"quantum_ms must be finite and at least one cycle, got {quantum_ms}")
    return round(cycles)


def isolated_rate(vector: CategoryVector, cycles_per_quantum: int) -> float:
    """Instructions per quantum of a thread running alone with ``vector``."""
    return vector.fdc * DISPATCH_WIDTH * cycles_per_quantum


# ---------------------------------------------------------------------------
# Synthetic workloads


@dataclass(frozen=True)
class Phase:
    """A stretch of ground-truth isolated behavior."""

    vector: CategoryVector
    instructions: int

    def __post_init__(self) -> None:
        if self.instructions < 1:
            raise WorkloadError("phase instruction budget must be >= 1")
        if self.vector.fdc <= 0.0:
            raise WorkloadError(
                "phase fdc fraction must be positive (an app that never "
                "dispatches makes no progress)"
            )


@dataclass(frozen=True)
class SyntheticApp:
    """A simulated app: cyclic phases plus a per-launch instruction target."""

    app_id: str
    phases: tuple[Phase, ...]
    target_instructions: int

    def __post_init__(self) -> None:
        if not self.phases:
            raise WorkloadError(f"app {self.app_id!r} needs at least one phase")
        if self.target_instructions < 1:
            raise WorkloadError(f"app {self.app_id!r} target must be >= 1")
        if self.app_id == IDLE_NODE:
            raise WorkloadError(f"app id {IDLE_NODE!r} is reserved")

    def isolated_quanta(self, cycles_per_quantum: int) -> float:
        """Ground-truth isolated duration of one launch, in quanta."""
        remaining = float(self.target_instructions)
        quanta = 0.0
        for phase in itertools.cycle(self.phases):
            rate = isolated_rate(phase.vector, cycles_per_quantum)
            take = min(remaining, phase.instructions)
            quanta += take / rate
            remaining -= take
            if remaining <= 0.0:
                return quanta

    def to_dict(self) -> dict:
        return {
            "app_id": self.app_id,
            "target_instructions": self.target_instructions,
            "phases": [
                {
                    "instructions": p.instructions,
                    "vector": p.vector.as_dict(),
                }
                for p in self.phases
            ],
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "SyntheticApp":
        try:
            phases = tuple(
                Phase(
                    vector=CategoryVector(**{k: float(v) for k, v in p["vector"].items()}),
                    instructions=int(p["instructions"]),
                )
                for p in doc["phases"]
            )
            return cls(
                app_id=str(doc["app_id"]),
                phases=phases,
                target_instructions=int(doc["target_instructions"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise WorkloadError(f"bad synthetic app definition: {exc}") from None


@dataclass(frozen=True)
class SimWorkload:
    """The simulator side of a run: apps, ground truth, noise, quantum length."""

    apps: tuple[SyntheticApp, ...]
    ground_truth: ModelCoefficients = REFERENCE_COEFFICIENTS
    noise_sigma: float = 0.0
    quantum_ms: float = 100.0

    def __post_init__(self) -> None:
        ids = [a.app_id for a in self.apps]
        if len(set(ids)) != len(ids):
            raise WorkloadError("duplicate app ids in workload")
        if not self.apps:
            raise WorkloadError("workload must contain at least one app")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise WorkloadError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        cycles_per_quantum(self.quantum_ms)


@dataclass
class AppSimState:
    """Mutable per-app progress within a simulation."""

    app: SyntheticApp
    phase_index: int = 0
    into_phase: float = 0.0
    done: float = 0.0
    launches: int = 1
    first_completion: int | None = None

    @property
    def vector(self) -> CategoryVector:
        return self.app.phases[self.phase_index].vector

    def _advance_phases(self, committed: float) -> None:
        remaining = committed
        while remaining > 1e-9:
            budget = self.app.phases[self.phase_index].instructions
            left = budget - self.into_phase
            if remaining < left - 1e-9:
                self.into_phase += remaining
                return
            remaining -= left
            self.phase_index = (self.phase_index + 1) % len(self.app.phases)
            self.into_phase = 0.0

    def commit(self, amount: float, quantum: int) -> tuple[float, bool]:
        """Record progress; returns (clipped amount, completed this launch)."""
        remaining = self.app.target_instructions - self.done
        completed = amount >= remaining
        if completed:
            amount = remaining
        self._advance_phases(amount)
        if completed:
            if self.first_completion is None:
                self.first_completion = quantum
            # Relaunch a fresh instance to keep SMT pressure constant.
            self.launches += 1
            self.phase_index = 0
            self.into_phase = 0.0
            self.done = 0.0
        else:
            self.done += amount
        return amount, completed


@dataclass(frozen=True)
class StepResult:
    """One thread's outcome for one quantum, simulated or replayed."""

    observed: CategoryTriple
    slowdown: float
    committed: float
    completed: bool


def sim_step(
    states: Mapping[str, AppSimState],
    pairs: Sequence[tuple[str, str]],
    ground_truth: ModelCoefficients,
    noise_sigma: float,
    rng: np.random.Generator,
    quantum: int,
    cycles_per_quantum: int,
) -> dict[str, StepResult]:
    """Advance every app by one quantum under the given assignment.

    Observed category values are the ground-truth forward predictions
    plus optional Gaussian noise (clamped at zero); progress always uses
    the noiseless slowdown.  An app paired with the idle node runs at
    isolated speed.  States are mutated in place (progress, phase
    advance, relaunch-on-completion).
    """
    results: dict[str, StepResult] = {}
    for a, b in sorted(tuple(sorted(p)) for p in pairs):
        if a == IDLE_NODE or b == IDLE_NODE:
            solo = a if b == IDLE_NODE else b
            st = states[solo].vector
            base = {name: st.get(name) for name in CATEGORIES}
            _emit(results, states, solo, base, 1.0, noise_sigma, rng, quantum,
                  cycles_per_quantum)
            continue
        pred = predict_pair(ground_truth, states[a].vector, states[b].vector)
        _emit(results, states, a, pred.smt_i.as_dict(), pred.slowdown_i,
              noise_sigma, rng, quantum, cycles_per_quantum)
        _emit(results, states, b, pred.smt_j.as_dict(), pred.slowdown_j,
              noise_sigma, rng, quantum, cycles_per_quantum)
    return results


def _emit(
    results: dict[str, StepResult],
    states: Mapping[str, AppSimState],
    app_id: str,
    base: Mapping[str, float],
    slowdown: float,
    noise_sigma: float,
    rng: np.random.Generator,
    quantum: int,
    cycles_per_quantum: int,
) -> None:
    observed = {}
    for name in CATEGORIES:
        value = base[name]
        if noise_sigma > 0.0:
            value += noise_sigma * rng.standard_normal()
        observed[name] = value if value > 0.0 else 0.0
    state = states[app_id]
    amount = isolated_rate(state.vector, cycles_per_quantum) / slowdown
    committed, completed = state.commit(amount, quantum)
    results[app_id] = StepResult(
        observed=CategoryTriple(**observed),
        slowdown=slowdown,
        committed=committed,
        completed=completed,
    )


# ---------------------------------------------------------------------------
# Engine configuration and log


@dataclass(frozen=True)
class EngineConfig:
    """Everything one engine run needs.

    Exactly one of ``workload`` (closed-loop simulation) or
    ``trace_path`` (open-loop replay) must be set.  A trace's header
    gives its quantum length and dispatch width.
    """

    coefficients: ModelCoefficients = REFERENCE_COEFFICIENTS
    policy: str = "synpa"
    seed: int = 0
    workload: SimWorkload | None = None
    trace_path: str | None = None

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}; choose from {POLICIES}")
        if (self.workload is None) == (self.trace_path is None):
            raise ConfigError("set exactly one of workload or trace_path")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class QuantumRecord:
    """What happened during one quantum."""

    quantum: int
    pairs: tuple[tuple[str, str], ...]  # pairs in effect
    observed: dict[str, CategoryTriple]
    estimates: dict[str, CategoryVector]  # fresh ST estimates after this quantum
    degraded: dict[str, bool]  # apps whose inversion fell back this quantum
    committed: dict[str, float]
    slowdown: dict[str, float]  # ground truth in simulation; model estimate in replay
    migrations: int  # pairs not in the previous record


@dataclass(frozen=True)
class ScheduleLog:
    """Full record of one engine run."""

    policy: str
    seed: int
    quantum_ms: float
    dispatch_width: int
    cycles_per_quantum: int
    noise_sigma: float
    apps: tuple[str, ...]
    records: tuple[QuantumRecord, ...]
    first_completion: dict[str, int]
    relaunches: dict[str, int]
    iso_quanta: dict[str, float]  # ground-truth isolated durations (sim only)
    instructions: dict[str, float]  # work counted toward each app's first completion
    total_quanta: int
    mode: str = "simulate"  # "simulate" | "replay"

    def to_jsonl(self) -> str:
        header = {
            "kind": "schedule-log",
            "version": LOG_VERSION,
            "mode": self.mode,
            "policy": self.policy,
            "seed": self.seed,
            "quantum_ms": self.quantum_ms,
            "dispatch_width": self.dispatch_width,
            "cycles_per_quantum": self.cycles_per_quantum,
            "noise_sigma": self.noise_sigma,
            "apps": list(self.apps),
        }
        records = (
            {
                "quantum": r.quantum,
                "pairs": [list(p) for p in r.pairs],
                "observed": {k: v.as_dict() for k, v in r.observed.items()},
                "estimates": {k: v.as_dict() for k, v in r.estimates.items()},
                "degraded": r.degraded,
                "committed": r.committed,
                "slowdown": r.slowdown,
                "migrations": r.migrations,
            }
            for r in self.records
        )
        summary = {
            "first_completion": self.first_completion,
            "relaunches": self.relaunches,
            "iso_quanta": self.iso_quanta,
            "instructions": self.instructions,
            "total_quanta": self.total_quanta,
        }
        # sort_keys orders every level, so the dicts go in as they are.
        docs = [header, *records, {"summary": summary}]
        return "".join(json.dumps(doc, sort_keys=True) + "\n" for doc in docs)


# ---------------------------------------------------------------------------
# Policies


def _pair_in_order(order: Sequence[str]) -> list[tuple[str, str]]:
    """Pair consecutive threads, padding an odd count with the idle node."""
    if len(order) % 2 == 1:
        order = [*order, IDLE_NODE]
    return [tuple(sorted(order[k : k + 2])) for k in range(0, len(order), 2)]


def initial_assignment(
    policy: str, app_ids: Sequence[str], rng: np.random.Generator
) -> tuple[tuple[str, str], ...]:
    """Bootstrap assignment before any measurements exist.

    ``synpa`` and ``random`` start from a seeded random matching (the
    model has nothing to go on yet); ``static`` pairs the roster in
    order and keeps that forever.
    """
    if policy in ("synpa", "random"):
        app_ids = [app_ids[i] for i in rng.permutation(len(app_ids))]
    return tuple(sorted(_pair_in_order(app_ids)))


class _EstimateStore:
    """Last-good isolated-behavior estimates with staleness aging.

    A degraded inversion leaves the previous estimate in place; when
    consumed, an estimate that is ``age`` quanta stale is blended toward
    the uniform prior with weight ``ESTIMATE_DECAY ** age``, so stale
    information gradually stops driving pairing decisions.
    """

    def __init__(self) -> None:
        self._vectors: dict[str, CategoryVector] = {}
        self._ages: dict[str, int] = {}

    def update(self, app_id: str, vector: CategoryVector) -> None:
        self._vectors[app_id] = vector
        self._ages[app_id] = 0

    def mark_stale(self, app_id: str) -> None:
        if app_id in self._ages:
            self._ages[app_id] += 1

    def forget(self, app_id: str) -> None:
        self._vectors.pop(app_id, None)
        self._ages.pop(app_id, None)

    def effective(self, app_id: str) -> CategoryVector:
        vector = self._vectors.get(app_id)
        if vector is None:
            return UNIFORM_VECTOR
        age = self._ages.get(app_id, 0)
        if age == 0:
            return vector
        w = ESTIMATE_DECAY**age
        return CategoryVector(
            fe=w * vector.fe + (1.0 - w) * UNIFORM_VECTOR.fe,
            be=w * vector.be + (1.0 - w) * UNIFORM_VECTOR.be,
            fdc=w * vector.fdc + (1.0 - w) * UNIFORM_VECTOR.fdc,
        )


def _decide_synpa(
    app_ids: Sequence[str],
    estimates: _EstimateStore,
    model: ModelCoefficients,
) -> tuple[tuple[str, str], ...]:
    ordered = sorted(app_ids)
    vectors = [estimates.effective(a) for a in ordered]
    graph = graph_from_matrix(ordered, pair_weight_matrix(model, vectors))
    if len(graph.nodes) <= DP_MAX_NODES:
        return min_weight_perfect_matching(graph)
    # Start the blossom's assignment solve from the model's fold.  The
    # idle node's edges weigh the same for every thread, so any finite
    # price fits it; all prices are exact, they only change the speed.
    price = dict(zip(ordered, fold_prices(model, vectors).tolist()))
    prices = [price.get(a, 0.0) for a in graph.nodes]
    return min_weight_perfect_matching(graph, prices)


def _update_estimates(
    pairs: Sequence[tuple[str, str]],
    results: Mapping[str, StepResult],
    estimates: _EstimateStore,
    model: ModelCoefficients,
) -> tuple[dict[str, CategoryVector], dict[str, bool]]:
    """Invert each pair's observations into fresh ST estimates."""
    fresh: dict[str, CategoryVector] = {}
    degraded: dict[str, bool] = {}
    for a, b in sorted(tuple(sorted(p)) for p in pairs):
        if a == IDLE_NODE or b == IDLE_NODE:
            solo = a if b == IDLE_NODE else b
            vec = normalize_triple(results[solo].observed)
            estimates.update(solo, vec)
            fresh[solo] = vec
            degraded[solo] = False
            continue
        inv = invert(model, results[a].observed, results[b].observed)
        if inv.degraded:
            estimates.mark_stale(a)
            estimates.mark_stale(b)
            degraded[a] = degraded[b] = True
            fresh[a] = estimates.effective(a)
            fresh[b] = estimates.effective(b)
        else:
            estimates.update(a, inv.st_i)
            estimates.update(b, inv.st_j)
            fresh[a] = inv.st_i
            fresh[b] = inv.st_j
            degraded[a] = degraded[b] = False
    return fresh, degraded


# ---------------------------------------------------------------------------
# Run loop


def run(config: EngineConfig) -> ScheduleLog:
    """Run the engine to completion and return the schedule log.

    Simulation and replay share this loop.  Only the observation source
    and the log's summary fields depend on the mode: the simulator runs
    the assignment it is given (closed loop) and ends once every app has
    finished its first launch, while replay reads the trace's counters
    whatever the assignment (open loop) and ends with the trace.
    """
    rng = np.random.default_rng(config.seed)
    workload = config.workload
    if workload is not None:
        quantum_ms, dispatch_width = workload.quantum_ms, DISPATCH_WIDTH
        cycles = cycles_per_quantum(quantum_ms)
        app_ids = tuple(a.app_id for a in workload.apps)
        states = {a.app_id: AppSimState(app=a) for a in workload.apps}

        def observe(
            quantum: int, pairs: Sequence[tuple[str, str]]
        ) -> dict[str, StepResult] | None:
            if all(s.first_completion is not None for s in states.values()):
                return None
            return sim_step(states, pairs, workload.ground_truth, workload.noise_sigma,
                            rng, quantum, cycles)

    else:
        header, trace_quanta = open_trace(config.trace_path)
        quantum_ms, dispatch_width = header.quantum_ms, header.dispatch_width
        try:
            cycles = cycles_per_quantum(quantum_ms)
        except ConfigError as exc:
            raise TraceError(str(exc), line=1) from None
        if IDLE_NODE in header.threads:
            raise TraceError(f"threads must not include the reserved id {IDLE_NODE!r}", line=1)
        sampled = {s.thread_id for samples in trace_quanta for s in samples}
        silent = [a for a in header.threads if a not in sampled]
        if silent:
            raise TraceError(f"threads with no sample rows: {silent}", line=1)
        app_ids = header.threads
        remaining = iter(trace_quanta)

        def observe(
            quantum: int, pairs: Sequence[tuple[str, str]]
        ) -> dict[str, StepResult] | None:
            samples = next(remaining, None)
            if samples is None:
                return None
            return {
                s.thread_id: StepResult(
                    observed=normalize(characterize(s, dispatch_width)),
                    slowdown=1.0,  # unknown in a trace; the log uses the model's
                    committed=float(s.inst_spec),
                    completed=False,
                )
                for s in samples
            }

    estimates = _EstimateStore()
    pairs = initial_assignment(config.policy, app_ids, rng)
    records: list[QuantumRecord] = []
    for quantum in itertools.count(1):
        results = observe(quantum, pairs)
        if results is None:
            break
        if quantum > MAX_QUANTA:
            raise ConfigError(f"run exceeded MAX_QUANTA={MAX_QUANTA}")
        present = sorted(results)
        pairs = _pair_present(pairs, present)

        if config.policy == "synpa":
            fresh, degraded = _update_estimates(
                pairs, results, estimates, config.coefficients
            )
            # A completed app was replaced by a fresh instance: its history
            # no longer describes what is running now.
            for app_id in present:
                if results[app_id].completed:
                    estimates.forget(app_id)
        else:
            fresh, degraded = {}, {}

        if workload is not None:
            slowdown = {a: results[a].slowdown for a in present}
        else:
            slowdown = _model_slowdowns(pairs, estimates, config.coefficients)
        records.append(
            QuantumRecord(
                quantum=quantum,
                pairs=pairs,
                observed={a: results[a].observed for a in present},
                estimates=fresh,
                degraded=degraded,
                committed={a: results[a].committed for a in present},
                slowdown=slowdown,
                migrations=len(set(pairs) - set(records[-1].pairs if records else ())),
            )
        )
        if config.policy == "synpa":
            pairs = _decide_synpa(present, estimates, config.coefficients)

    if workload is not None:
        summary = dict(
            mode="simulate",
            noise_sigma=workload.noise_sigma,
            first_completion={a: states[a].first_completion for a in app_ids},
            # Completed relaunches: every launch but the first and the one
            # still running when the run ended.
            relaunches={a: states[a].launches - 2 for a in app_ids},
            iso_quanta={a.app_id: a.isolated_quanta(cycles) for a in workload.apps},
            instructions={a.app_id: float(a.target_instructions) for a in workload.apps},
        )
    else:
        # A thread is done the last quantum it appears in the trace.
        last_seen = {a: 0 for a in app_ids}
        for record in records:
            for thread in record.observed:
                last_seen[thread] = record.quantum
        summary = dict(
            mode="replay",
            noise_sigma=0.0,
            first_completion=last_seen,
            relaunches={a: 0 for a in app_ids},
            iso_quanta={},
            instructions={
                a: sum((r.committed.get(a, 0.0) for r in records), 0.0) for a in app_ids
            },
        )
    return ScheduleLog(
        policy=config.policy,
        seed=config.seed,
        quantum_ms=quantum_ms,
        dispatch_width=dispatch_width,
        cycles_per_quantum=cycles,
        apps=app_ids,
        records=tuple(records),
        total_quanta=len(records),
        **summary,
    )


def _pair_present(
    pairs: Sequence[tuple[str, str]], present: Sequence[str]
) -> tuple[tuple[str, str], ...]:
    """Keep the pairs whose threads are all present; pair the rest in order.

    The rest are arrivals, partners of departed threads and a thread
    that sat with the idle node.
    """
    alive = set(present)
    kept = [p for p in pairs if p[0] in alive and p[1] in alive]
    paired = {m for p in kept for m in p}
    rest = [a for a in present if a not in paired]
    return tuple(sorted(kept + _pair_in_order(rest)))


def _model_slowdowns(
    pairs: Sequence[tuple[str, str]],
    estimates: _EstimateStore,
    model: ModelCoefficients,
) -> dict[str, float]:
    out: dict[str, float] = {}
    for a, b in pairs:
        if a == IDLE_NODE or b == IDLE_NODE:
            solo = a if b == IDLE_NODE else b
            out[solo] = 1.0
            continue
        pred = predict_pair(model, estimates.effective(a), estimates.effective(b))
        out[a] = pred.slowdown_i
        out[b] = pred.slowdown_j
    return out


# ---------------------------------------------------------------------------
# Trace export


def trace_from_log(log: ScheduleLog) -> tuple[TraceHeader, list[RawCounterSample]]:
    """Synthesize a counter trace reproducing a simulation log's observations.

    Each app-quantum becomes a counter row whose characterized,
    normalized breakdown approximates the logged observation (up to
    integer rounding of the counters).
    """
    header = TraceHeader(
        dispatch_width=log.dispatch_width,
        quantum_ms=log.quantum_ms,
        threads=tuple(log.apps),
    )
    cycles = log.cycles_per_quantum
    samples: list[RawCounterSample] = []
    for record in log.records:
        for app in sorted(record.observed):
            triple = record.observed[app]
            total = triple.total
            if total <= 0.0:
                fe_frac, be_frac, fdc_frac = 0.0, 0.0, 0.0
            else:
                fe_frac = triple.fe / total
                be_frac = triple.be / total
                fdc_frac = triple.fdc / total
            fe_cycles = int(round(cycles * fe_frac))
            be_cycles = int(round(cycles * be_frac))
            fe_cycles = min(fe_cycles, cycles)
            be_cycles = min(be_cycles, cycles - fe_cycles)
            inst = int(round(cycles * fdc_frac * log.dispatch_width))
            inst = min(inst, (cycles - fe_cycles - be_cycles) * log.dispatch_width)
            samples.append(
                RawCounterSample(
                    quantum_index=record.quantum - 1,
                    thread_id=app,
                    cpu_cycles=cycles,
                    inst_spec=inst,
                    stall_frontend=fe_cycles,
                    stall_backend=be_cycles,
                )
            )
    return header, samples
