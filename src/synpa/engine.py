"""Closed-loop allocation engine and SMT co-execution simulator.

Each scheduling quantum the engine:

1. observes every present thread under the pairs in effect,
2. keeps the pairs whose threads are all present and pairs the rest,
3. estimates every thread's isolated behavior by inverting the
   interference model on each pair's observations,
4. predicts every thread's slowdown next to every other from those
   estimates, once, as one matrix over one category matrix of them
   (replay logs the model slowdowns of the pairs in effect from it, and
   the decision weighs and prices pairs from both), and
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
each app through a cyclic sequence of phases: an app's progress is one
instruction count, and its phase is read from a table of phase end
offsets (:meth:`SyntheticApp.phase_at`).  An app's isolated
progress rate (:func:`isolated_rate`) is ``fdc * DISPATCH_WIDTH *
cycles_per_quantum`` instructions per quantum; co-running divides that
by the pair's model-predicted slowdown.  Completed apps are relaunched
immediately so SMT pressure stays constant, and a run ends once every
app has finished its first launch.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .counters import RawCounterSample, TraceHeader, open_trace, sample_from_fractions
from .dispatch import (
    CATEGORIES,
    CategoryTriple,
    CategoryVector,
    UNIFORM_VECTOR,
    category_values,
    characterize,
    normalize,
    unit_vector,
)
from .errors import (
    ConfigError, Fail, ModelError, TraceError, WorkloadError, failing, json_list, json_number,
    json_object, json_string, whole_number,
)
from .interference import (
    REFERENCE_COEFFICIENTS, ModelCoefficients, category_matrix, co_run_slowdowns, invert, predict_pair,
)
from .matcher import IDLE_NODE, build_graph, min_weight_perfect_matching

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

#: A run log's header fields besides ``kind``, ``version`` and ``apps``,
#: and its summary's per-app maps besides ``total_quanta``, each with the
#: reader of its JSON values (see :func:`synpa.harness.load_log_summary`).
LOG_HEADER = {
    "mode": json_string, "policy": json_string, "seed": whole_number, "quantum_ms": json_number,
    "dispatch_width": whole_number, "cycles_per_quantum": whole_number,
    "noise_sigma": json_number,
}
LOG_SUMMARY = {
    "first_completion": whole_number, "relaunches": whole_number,
    "iso_quanta": json_number, "instructions": json_number,
}


def cycles_per_quantum(quantum_ms: float, error: Fail = ConfigError) -> int:
    """Simulated cycles in a quantum of ``quantum_ms`` milliseconds.

    Raises ``error`` (the reading format's, a :class:`ConfigError` by
    default) unless the quantum is finite and at least one cycle long.
    """
    cycles = quantum_ms * CYCLES_PER_MS
    if not (math.isfinite(cycles) and round(cycles) >= 1):
        raise error(f"quantum_ms must be finite and at least one cycle, got {quantum_ms}")
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

    @functools.cached_property
    def phase_ends(self) -> tuple[int, ...]:
        """Each phase's end offset within one cycle of the phases."""
        return tuple(itertools.accumulate(p.instructions for p in self.phases))

    def phase_at(self, done: float) -> Phase:
        """The phase a launch is in after ``done`` instructions."""
        ends = self.phase_ends
        if done >= ends[-1]:  # only then: a float cannot divide by a total beyond float range
            done %= ends[-1]
        return self.phases[bisect.bisect_right(ends, done)]

    def isolated_quanta(self, cycles_per_quantum: int) -> float:
        """Ground-truth isolated duration of one launch, in quanta.

        Each phase runs once per whole cycle of the phases in the
        target, then the target's rest runs in phase order.  Raises
        :class:`OverflowError` when a phase's share of the target is
        beyond float range.
        """
        whole, rest = divmod(self.target_instructions, self.phase_ends[-1])
        quanta = 0.0
        for p in self.phases:
            take = min(rest, p.instructions)
            quanta += (whole * p.instructions + take) / isolated_rate(p.vector, cycles_per_quantum)
            rest -= take
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
    def from_dict(cls, doc: object) -> "SyntheticApp":
        """The app of one entry of a workload file's ``apps``.  A value the
        app, a phase (numbered from 1) or its vector refuses is the format's
        error, naming the app and the phase."""
        error = failing(WorkloadError, "bad synthetic app definition")
        doc = json_object(doc, "app", error)
        app_id = json_string(doc.get("app_id"), "app_id", error)
        phases = []
        for n, p in enumerate(json_list(doc.get("phases"), "phases", error), start=1):
            p = json_object(p, "phase", error)
            vector = json_object(p.get("vector"), "vector", error, keys=CATEGORIES)
            values = {k: json_number(v, k, error) for k, v in vector.items()}
            instructions = whole_number(p.get("instructions"), "instructions", error)
            try:
                phases.append(Phase(vector=CategoryVector(**values), instructions=instructions))
            except (ModelError, WorkloadError) as exc:
                raise error(f"app {app_id!r} phase {n}: {exc}") from None
        target = whole_number(doc.get("target_instructions"), "target_instructions", error)
        try:
            return cls(app_id=app_id, phases=tuple(phases), target_instructions=target)
        except WorkloadError as exc:  # its messages name the app
            raise error(str(exc)) from None


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
        cycles = cycles_per_quantum(self.quantum_ms)
        slowdown = max(1.0, self.ground_truth.max_slowdown)  # the slowest any app runs
        for app in self.apps:
            try:
                quanta = app.isolated_quanta(cycles) * slowdown
            except OverflowError:  # instruction counts beyond any float
                quanta = math.inf
            if quanta > MAX_QUANTA:
                raise WorkloadError(f"app {app.app_id!r} cannot finish within the {MAX_QUANTA}-quantum run limit")


@dataclass
class AppSimState:
    """Mutable per-app progress within a simulation.

    ``done`` counts the instructions of the running launch; its phase is
    read from the app's phase table, so a relaunch resets ``done`` alone.
    """

    app: SyntheticApp
    done: float = 0.0
    launches: int = 1
    first_completion: int | None = None

    @property
    def vector(self) -> CategoryVector:
        return self.app.phase_at(self.done).vector

    def commit(self, amount: float, quantum: int) -> tuple[float, bool]:
        """Record progress; returns (clipped amount, completed this launch)."""
        remaining = self.app.target_instructions - self.done
        completed = amount >= remaining
        if completed:
            amount = remaining
            if self.first_completion is None:
                self.first_completion = quantum
            # Relaunch a fresh instance to keep SMT pressure constant.
            self.launches += 1
            self.done = 0.0
        else:
            self.done += amount
        return amount, completed


def sim_step(
    states: Mapping[str, AppSimState],
    pairs: Sequence[tuple[str, str]],
    ground_truth: ModelCoefficients,
    noise_sigma: float,
    rng: np.random.Generator,
    quantum: int,
    cycles_per_quantum: int,
) -> tuple[dict[str, CategoryTriple], dict[str, float], dict[str, float], list[str]]:
    """Advance every app by one quantum under the given assignment.

    ``pairs`` is a sorted tuple of sorted pairs, as :func:`_pair_present`
    and :func:`~synpa.matcher.min_weight_perfect_matching` return it, and
    is walked as given: noise is drawn and progress committed per pair in
    that order, the lower id first.  Returns the quantum's observed
    triples, committed instructions and ground-truth slowdowns, each a
    map by app id in that order, and the ids that finished a launch.
    Observed category values are the ground truth's forward predictions
    (:func:`~synpa.interference.predict_pair`, on plain floats) plus
    optional Gaussian noise, clamped at zero, one triple per app; progress
    always uses the noiseless slowdown.  An app paired with the idle node
    runs at isolated speed.  States are mutated in place (progress and
    relaunch-on-completion).  A zero predicted slowdown (an infinitely
    fast app; ``max_slowdown`` rules out only infinite ones) raises
    :class:`ModelError` before any state changes.
    """
    runs = []  # (app id, noise-free fdc, fe and be, slowdown, isolated vector)
    for a, b in pairs:
        if a == IDLE_NODE or b == IDLE_NODE:
            solo = a if b == IDLE_NODE else b
            vector = states[solo].vector
            runs.append((solo, *category_values(vector), 1.0, vector))
            continue
        va, vb = states[a].vector, states[b].vector
        pa, pb = predict_pair(ground_truth, va, vb)
        if pa[3] == 0.0 or pb[3] == 0.0:
            raise ModelError(f"ground truth predicts a zero slowdown for the pair ({a}, {b})")
        runs += ((a, *pa, va), (b, *pb, vb))
    if noise_sigma > 0.0:
        noise = rng.standard_normal(3 * len(runs)).tolist()
    observed, committed, slowdowns, completed = {}, {}, {}, []
    for k, (app_id, fdc, fe, be, slowdown, vector) in enumerate(runs):
        if noise_sigma > 0.0:
            fdc += noise_sigma * noise[3 * k]
            fe += noise_sigma * noise[3 * k + 1]
            be += noise_sigma * noise[3 * k + 2]
        observed[app_id] = CategoryTriple(fe if fe > 0.0 else 0.0, be if be > 0.0 else 0.0, fdc if fdc > 0.0 else 0.0)
        amount = isolated_rate(vector, cycles_per_quantum) / slowdown
        committed[app_id], done = states[app_id].commit(amount, quantum)
        slowdowns[app_id] = slowdown
        if done:
            completed.append(app_id)
    return observed, committed, slowdowns, completed


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
    degraded: dict[str, bool]  # apps whose inversion had no exact solution this quantum
    committed: dict[str, float]
    slowdown: dict[str, float]  # ground truth in simulation; the model's in replay
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
        """The log as JSON lines: its header, one line per record (see
        :func:`_record_lines`) and its summary, each as
        ``json.dumps(sort_keys=True)`` writes it."""
        header = {
            "kind": "schedule-log",
            "version": LOG_VERSION,
            "apps": list(self.apps),
            **{key: getattr(self, key) for key in LOG_HEADER},
        }
        summary = {key: getattr(self, key) for key in (*LOG_SUMMARY, "total_quanta")}
        return "".join((
            json.dumps(header, sort_keys=True), "\n",
            *_record_lines(self.records),
            json.dumps({"summary": summary}, sort_keys=True), "\n",
        ))


#: A triple's JSON text, in ``sort_keys`` order, with its floats left as conversions.
_TRIPLE = '{"be": %r, "fdc": %r, "fe": %r}'
_JSON_BOOL = {True: "true", False: "false"}


def _record_lines(records: Iterable[QuantumRecord]) -> Iterator[str]:
    """Each record's line, byte-identical to ``json.dumps(sort_keys=True)``
    of its fields, with a triple as its ``as_dict()`` and a pair as a list.

    One template per roster holds the line's text in ``sort_keys`` order,
    each app id encoded once by ``json.dumps``, with the values left as
    conversions: ``%r`` per float, ``%d`` for ``quantum`` and
    ``migrations``, ``%s`` per degraded flag and for the pairs list.  The
    template is rebuilt only when a record's key sets change (in replay, as
    a thread arrives or leaves), so a record costs one flat value list and
    one formatting: its float reprs.  ``%r`` writes what JSON writes only
    for a finite Python float (under numpy 2 a ``numpy.float64`` reads
    ``np.float64(...)``), so every record value must be one, as the run
    loop makes them.
    """
    encode = functools.cache(json.dumps)  # an app id's JSON string, encoded once

    def fields(ids: Sequence[str], value: str) -> str:
        return "{" + ", ".join(encode(a).replace("%", "%%") + ": " + value for a in ids) + "}"

    last = template = None
    for r in records:
        maps = (r.committed, r.degraded, r.estimates, r.observed, r.slowdown)
        if last is None or any(m.keys() != n.keys() for m, n in zip(maps, last)):
            committed, degraded, estimates, observed, slowdown = map(sorted, maps)
            template = (
                f'{{"committed": {fields(committed, "%r")}, "degraded": {fields(degraded, "%s")}, '
                f'"estimates": {fields(estimates, _TRIPLE)}, "migrations": %d, '
                f'"observed": {fields(observed, _TRIPLE)}, "pairs": %s, "quantum": %d, '
                f'"slowdown": {fields(slowdown, "%r")}}}\n'
            )
        last = maps
        values = [r.committed[a] for a in committed]
        values += [_JSON_BOOL[r.degraded[a]] for a in degraded]
        for a in estimates:
            t = r.estimates[a]
            values += (t.be, t.fdc, t.fe)
        values.append(r.migrations)
        for a in observed:
            t = r.observed[a]
            values += (t.be, t.fdc, t.fe)
        values.append("[" + ", ".join("[" + ", ".join(map(encode, p)) + "]" for p in r.pairs) + "]")
        values.append(r.quantum)
        values += [r.slowdown[a] for a in slowdown]
        yield template % tuple(values)


# ---------------------------------------------------------------------------
# Policies


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
    return _pair_present((), app_ids)


class _EstimateStore:
    """Last-good isolated-behavior estimates with staleness aging.

    A degraded inversion leaves the previous estimate in place and ages
    it: an estimate that is ``age`` quanta stale is blended toward the
    uniform prior with weight ``ESTIMATE_DECAY ** age``, so stale
    information gradually stops driving pairing decisions.  Each entry
    holds the last good estimate, its age and the blend in effect.
    """

    def __init__(self) -> None:
        self._entries: dict[str, tuple[CategoryVector, int, CategoryVector]] = {}

    def update(self, app_id: str, vector: CategoryVector) -> None:
        self._entries[app_id] = (vector, 0, vector)

    def mark_stale(self, app_id: str) -> None:
        if app_id not in self._entries:
            return
        vector, age, _ = self._entries[app_id]
        age += 1
        w = ESTIMATE_DECAY**age
        decayed = CategoryVector(
            fe=w * vector.fe + (1.0 - w) * UNIFORM_VECTOR.fe,
            be=w * vector.be + (1.0 - w) * UNIFORM_VECTOR.be,
            fdc=w * vector.fdc + (1.0 - w) * UNIFORM_VECTOR.fdc,
        )
        self._entries[app_id] = (vector, age, decayed)

    def forget(self, app_id: str) -> None:
        self._entries.pop(app_id, None)

    def effective(self, app_id: str) -> CategoryVector:
        entry = self._entries.get(app_id)
        return UNIFORM_VECTOR if entry is None else entry[2]


def _update_estimates(
    pairs: Sequence[tuple[str, str]],
    observed: Mapping[str, CategoryTriple],
    estimates: _EstimateStore,
    model: ModelCoefficients,
) -> tuple[dict[str, CategoryVector], dict[str, bool]]:
    """Invert each pair's observations into fresh ST estimates.

    ``pairs`` is a sorted tuple of sorted pairs, as :func:`_pair_present`
    returns it, and is walked as given.
    """
    fresh: dict[str, CategoryVector] = {}
    degraded: dict[str, bool] = {}
    for a, b in pairs:
        if a == IDLE_NODE or b == IDLE_NODE:
            solo = a if b == IDLE_NODE else b
            vec = unit_vector(*category_values(observed[solo]))
            estimates.update(solo, vec)
            fresh[solo] = vec
            degraded[solo] = False
            continue
        inv = invert(model, observed[a], observed[b])
        for app, vec in ((a, inv.st_i), (b, inv.st_j)):
            if inv.degraded:  # keep the last good estimate, aged
                estimates.mark_stale(app)
            else:
                estimates.update(app, vec)
            fresh[app], degraded[app] = estimates.effective(app), inv.degraded
    return fresh, degraded


# ---------------------------------------------------------------------------
# Run loop


def run(config: EngineConfig) -> ScheduleLog:
    """Run the engine to completion and return the schedule log.

    Simulation and replay share this loop.  Only the observation source
    and the log's summary fields depend on the mode: the simulator runs
    the assignment it is given (closed loop) and ends once every app has
    finished its first launch, while replay reads the trace's counters
    whatever the assignment (open loop) and ends with the trace.  Each
    observation hands the loop the pairs in effect and the sorted ids
    present: the simulator runs every app every quantum, so its pairs
    are the ones it was given, while replay keeps those whose threads
    the quantum's rows hold (:func:`_pair_present`).  The pairs in
    effect are always one sorted tuple of sorted pairs, which the step,
    the inversion and the log walk as given.
    """
    rng = np.random.default_rng(config.seed)
    workload = config.workload
    if workload is not None:
        quantum_ms, dispatch_width = workload.quantum_ms, DISPATCH_WIDTH
        cycles = cycles_per_quantum(quantum_ms)
        app_ids = tuple(a.app_id for a in workload.apps)
        states = {a.app_id: AppSimState(app=a) for a in workload.apps}
        roster = tuple(sorted(app_ids))  # every app is present every quantum

        # Each quantum's observation is the pairs in effect, the sorted ids
        # present, sim_step's maps and completed ids, or None at the end;
        # replay has no ground-truth slowdowns (None).
        def observe(quantum: int, pairs: tuple[tuple[str, str], ...]) -> tuple | None:
            if all(s.first_completion is not None for s in states.values()):
                return None
            return pairs, roster, *sim_step(states, pairs, workload.ground_truth,
                                            workload.noise_sigma, rng, quantum, cycles)

    else:
        header, trace_quanta = open_trace(config.trace_path)
        if len(trace_quanta) > MAX_QUANTA:
            raise TraceError(
                f"trace holds {len(trace_quanta)} quanta, more than the "
                f"{MAX_QUANTA}-quantum run limit"
            )
        quantum_ms, dispatch_width = header.quantum_ms, header.dispatch_width
        cycles = cycles_per_quantum(quantum_ms, functools.partial(TraceError, line=1))
        if IDLE_NODE in header.threads:
            raise TraceError(f"threads must not include the reserved id {IDLE_NODE!r}", line=1)
        app_ids = header.threads
        remaining = iter(trace_quanta)
        # The summary as running values: a thread is done the last quantum
        # it appears in the trace, and its instructions are its rows' sum.
        last_seen = dict.fromkeys(app_ids, 0)
        instructions = dict.fromkeys(app_ids, 0.0)

        def observe(quantum: int, pairs: tuple[tuple[str, str], ...]) -> tuple | None:
            samples = next(remaining, None)
            if samples is None:
                return None
            present = [s.thread_id for s in samples]  # the parser orders rows by thread
            observed, committed = {}, {}
            for s in samples:
                thread = s.thread_id
                observed[thread] = normalize(characterize(s, dispatch_width))
                committed[thread] = float(s.inst_spec)
                last_seen[thread] = quantum
                instructions[thread] += committed[thread]
            return _pair_present(pairs, present), present, observed, committed, None, ()

    estimates = _EstimateStore()
    pairs = initial_assignment(config.policy, app_ids, rng)
    records: list[QuantumRecord] = []
    for quantum in itertools.count(1):
        step = observe(quantum, pairs)
        if step is None:
            break
        if quantum > MAX_QUANTA:
            raise ConfigError(f"run exceeded MAX_QUANTA={MAX_QUANTA}")
        pairs, present, observed, committed, slowdown, completed = step

        if config.policy == "synpa":
            fresh, degraded = _update_estimates(pairs, observed, estimates, config.coefficients)
            # A completed app was replaced by a fresh instance: its history
            # no longer describes what is running now.
            for app_id in completed:
                estimates.forget(app_id)
        else:
            fresh, degraded = {}, {}

        if config.policy == "synpa" or slowdown is None:
            # The model's view of this quantum, evaluated once: replay logs
            # its slowdowns and the decision weighs and prices its pairs with it.
            st = category_matrix([estimates.effective(a) for a in present])
            co_run = co_run_slowdowns(config.coefficients, st)
        if slowdown is None:
            slowdown = _model_slowdowns(pairs, present, co_run)
        records.append(QuantumRecord(
            quantum=quantum,
            pairs=pairs,
            observed=observed,
            estimates=fresh,
            degraded=degraded,
            committed=committed,
            slowdown=slowdown,
            migrations=len(set(pairs) - set(records[-1].pairs if records else ())),
        ))
        if config.policy == "synpa":  # ``present`` is sorted, as build_graph needs
            graph = build_graph(config.coefficients, present, st, co_run)
            pairs = min_weight_perfect_matching(graph)

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
        summary = dict(
            mode="replay",
            noise_sigma=0.0,
            first_completion=last_seen,
            relaunches={a: 0 for a in app_ids},
            iso_quanta={},
            instructions=instructions,
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
    that sat with the idle node.  Consecutive threads of the rest form a
    pair; an odd count pads the last one with the idle node.
    """
    alive = set(present)
    kept = [p for p in pairs if p[0] in alive and p[1] in alive]
    paired = {m for p in kept for m in p}
    rest = [a for a in present if a not in paired]
    if len(rest) % 2 == 1:
        rest.append(IDLE_NODE)
    kept += [tuple(sorted(rest[k : k + 2])) for k in range(0, len(rest), 2)]
    return tuple(sorted(kept))


def _model_slowdowns(
    pairs: Sequence[tuple[str, str]], present: Sequence[str], co_run: np.ndarray
) -> dict[str, float]:
    """Each thread's slowdown under the pairs in effect, read off the
    co-run slowdown matrix of the ``present`` threads; 1.0 next to the
    idle node."""
    index = {a: i for i, a in enumerate(present)}
    rows = co_run.tolist()
    out: dict[str, float] = {}
    for a, b in pairs:
        if a == IDLE_NODE or b == IDLE_NODE:
            solo = a if b == IDLE_NODE else b
            out[solo] = 1.0
            continue
        i, j = index[a], index[b]
        out[a] = rows[i][j]
        out[b] = rows[j][i]
    return out


# ---------------------------------------------------------------------------
# Trace export


def trace_from_log(log: ScheduleLog) -> tuple[TraceHeader, list[RawCounterSample]]:
    """A counter trace of a simulation log's observations: each
    app-quantum is the :func:`~synpa.counters.sample_from_fractions` row
    of its observation's fractions, all 0 for an all-zero observation."""
    header = TraceHeader(log.dispatch_width, log.quantum_ms, tuple(log.apps))
    samples: list[RawCounterSample] = []
    for record in log.records:
        for app in sorted(record.observed):
            triple = record.observed[app]
            total = triple.total
            if total <= 0.0:
                fe = be = fdc = 0.0
            else:
                fe, be, fdc = triple.fe / total, triple.be / total, triple.fdc / total
            samples.append(sample_from_fractions(
                record.quantum - 1, app, fe=fe, be=be, fdc=fdc,
                cycles=log.cycles_per_quantum, dispatch_width=log.dispatch_width,
            ))
    return header, samples
