"""Seeded input generators for the synpa benchmark.

The generators write the repository's versioned file formats directly
(workload JSON v1, counter trace v1) with the standard library only.
They deliberately call no synpa code and no numpy random stream, so a
change to synpa's own generators, simulator or trace export, or a numpy
upgrade, cannot change what the benchmark feeds the program.

Importing this module loads nothing heavier than ``hashlib``, ``json``
and ``random``: the set-up probe times the ``synpa`` import separately.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

DISPATCH_WIDTH = 4
QUANTUM_MS = 100.0
CYCLES_PER_QUANTUM = 100_000_000  # 100 ms at the simulator's nominal 1 GHz

#: Class thresholds of synpa's ``classify`` on time-weighted mean fractions.
_BACKEND_THRESHOLD = 0.65
_FRONTEND_THRESHOLD = 0.35

#: Phase recipes per family: (fe range, be range, isolated quanta range)
#: for the dominant phase, then the relief phase.  The ranges are chosen
#: so the time-weighted mean classifies as the family whatever is drawn.
_FAMILIES = {
    "backend": (
        ((0.03, 0.08), (0.80, 0.90), (9.0, 12.0)),
        ((0.05, 0.10), (0.30, 0.40), (2.0, 3.0)),
    ),
    "frontend": (
        ((0.40, 0.50), (0.08, 0.18), (6.0, 9.0)),
        ((0.30, 0.36), (0.05, 0.12), (2.0, 4.0)),
    ),
}

#: Dirichlet concentration over (fe, be, fdc) for replayed thread phases.
_DIRICHLET_ALPHA = (2.0, 2.0, 2.0)


@dataclass(frozen=True)
class WorkloadPlan:
    """What one benchmark workload generates and runs.

    ``files`` inputs are generated from the benchmark seed; input ``k``
    is run with engine seed ``k``.  One operation per input forms a
    *pass*.  Many short, unlike inputs keep both the timing and the
    schedule-quality means steady from one benchmark seed to the next.
    """

    kind: str  # "simulate" | "replay"
    threads: int
    files: int
    length: float  # isolated quanta per app launch (simulate) or trace quanta (replay)
    noise_sigma: float = 0.0


WORKLOADS = {
    "sim-mixed8-noisy": WorkloadPlan("simulate", 8, 16, 60.0, 0.02),
    "sim-mixed16": WorkloadPlan("simulate", 16, 8, 16.0),
    "replay-dirichlet16": WorkloadPlan("replay", 16, 6, 30),
}

#: The same workloads shrunk for the smoke test: same thread counts and
#: code paths, one short input per pass.
SMALL_WORKLOADS = {
    name: WorkloadPlan(p.kind, p.threads, 1, 10.0 if p.kind == "simulate" else 8,
                       p.noise_sigma)
    for name, p in WORKLOADS.items()
}


def plan_for(workload: str, small: bool = False) -> WorkloadPlan:
    table = SMALL_WORKLOADS if small else WORKLOADS
    if workload not in table:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(table)}")
    return table[workload]


def input_seed(bench_seed: int, index: int) -> int:
    """Seed of the ``index``-th input file of a run with ``bench_seed``."""
    return bench_seed * 1000 + index


def _vector(rng: random.Random, fe_range, be_range) -> dict[str, float]:
    fe = rng.uniform(*fe_range)
    be = rng.uniform(*be_range)
    return {"fe": fe, "be": be, "fdc": 1.0 - fe - be}


def _rate(vector: dict[str, float]) -> float:
    """Isolated instructions per quantum of a phase."""
    return vector["fdc"] * DISPATCH_WIDTH * CYCLES_PER_QUANTUM


def _target(phases: list[dict], iso_quanta: float) -> int:
    """Instruction target whose isolated duration is ``iso_quanta``."""
    remaining = iso_quanta
    total = 0.0
    k = 0
    while True:
        phase = phases[k % len(phases)]
        rate = _rate(phase["vector"])
        duration = phase["instructions"] / rate
        if duration >= remaining:
            return max(1, int(round(total + remaining * rate)))
        total += phase["instructions"]
        remaining -= duration
        k += 1


def _app_class(phases: list[dict]) -> str:
    weights = [p["instructions"] / _rate(p["vector"]) for p in phases]
    total = sum(weights)
    mean = {
        name: sum(w * p["vector"][name] for w, p in zip(weights, phases)) / total
        for name in ("fe", "be")
    }
    if mean["be"] > _BACKEND_THRESHOLD:
        return "backend"
    if mean["fe"] > _FRONTEND_THRESHOLD:
        return "frontend"
    return "other"


def _sim_app(app_id: str, family: str, rng: random.Random, iso_quanta: float) -> dict:
    dominant, relief = _FAMILIES[family]
    phases = []
    for _ in range(2):
        for fe_range, be_range, quanta_range in (dominant, relief):
            vector = _vector(rng, fe_range, be_range)
            quanta = rng.uniform(*quanta_range)
            phases.append(
                {"instructions": max(1, int(round(quanta * _rate(vector)))), "vector": vector}
            )
    cls = _app_class(phases)
    if cls != family:
        raise ValueError(f"generated {family} app {app_id} classifies as {cls}")
    return {
        "app_id": app_id,
        "class": cls,
        "phases": phases,
        "target_instructions": _target(phases, iso_quanta),
    }


def sim_workload_text(seed: int, n_apps: int, iso_quanta: float) -> str:
    """Workload JSON v1: half backend-bound, half frontend-bound apps."""
    rng = random.Random(seed)
    apps = [
        _sim_app(f"{family[0]}{k:02d}", family, rng, iso_quanta)
        for family in ("backend", "frontend")
        for k in range(n_apps // 2)
    ]
    doc = {
        "version": 1,
        "name": f"bench-mixed{n_apps}-s{seed}",
        "recipe": "mixed",
        "seed": seed,
        "apps": apps,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _dirichlet(rng: random.Random) -> tuple[float, float, float]:
    draws = [rng.gammavariate(a, 1.0) for a in _DIRICHLET_ALPHA]
    total = sum(draws)
    return draws[0] / total, draws[1] / total, draws[2] / total


def trace_text(seed: int, n_threads: int, n_quanta: int) -> str:
    """Counter trace v1 of ``n_threads`` threads over ``n_quanta`` quanta.

    Each thread cycles through eight short phases (2 to 8 quanta) whose
    (fe, be, fdc) fractions are Dirichlet draws; each quantum jitters them
    and converts them to integer counters.  Many short phases make the
    per-quantum cost of replay the same from one seed to the next.  A fifth of the back-end share is left as dispatch
    slack (revealed stalls), and about one row in fifty over-reports
    ``inst_spec`` so characterization has to clamp it, as real counters
    sometimes do.
    """
    rng = random.Random(seed)
    threads = [f"t{k:02d}" for k in range(n_threads)]
    phases = {
        t: [(_dirichlet(rng), rng.randint(2, 8)) for _ in range(8)] for t in threads
    }
    header = {
        "dispatch_width": DISPATCH_WIDTH,
        "quantum_ms": QUANTUM_MS,
        "threads": threads,
        "version": 1,
    }
    lines = [
        json.dumps(header, sort_keys=True),
        "quantum,thread,cpu_cycles,inst_spec,stall_frontend,stall_backend",
    ]
    position = {t: [0, 0] for t in threads}  # phase index, quanta into phase
    for q in range(n_quanta):
        for t in threads:
            where = position[t]
            (fe, be, fdc), length = phases[t][where[0]]
            where[1] += 1
            if where[1] >= length:
                where[0] = (where[0] + 1) % len(phases[t])
                where[1] = 0
            jitter = [max(1e-3, x * (1.0 + rng.gauss(0.0, 0.03))) for x in (fe, be, fdc)]
            total = sum(jitter)
            fe, be, fdc = (x / total for x in jitter)
            cycles = CYCLES_PER_QUANTUM - rng.randrange(0, 500_000)
            stall_fe = int(fe * cycles)
            stall_be = int(0.8 * be * cycles)
            slots = (cycles - stall_fe - stall_be) * DISPATCH_WIDTH
            inst = int(fdc * cycles * DISPATCH_WIDTH)
            if rng.random() < 0.02:
                inst = slots + rng.randrange(1, 1000)
            lines.append(f"{q},{t},{cycles},{inst},{stall_fe},{stall_be}")
    return "\n".join(lines) + "\n"


def input_names(workload: str, small: bool = False) -> list[str]:
    """File names of a workload's inputs, in run order."""
    plan = plan_for(workload, small)
    ext = "workload.json" if plan.kind == "simulate" else "trace"
    return [f"input{k}.{ext}" for k in range(plan.files)]


def write_inputs(workload: str, bench_seed: int, out_dir: str, small: bool = False) -> list[dict]:
    """Write every input of one workload run; return their seeds and sha256."""
    plan = plan_for(workload, small)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for k, name in enumerate(input_names(workload, small)):
        seed = input_seed(bench_seed, k)
        if plan.kind == "simulate":
            text = sim_workload_text(seed, plan.threads, plan.length)
        else:
            text = trace_text(seed, plan.threads, int(plan.length))
        data = text.encode("utf-8")
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(data)
        written.append({"file": name, "seed": seed, "sha256": hashlib.sha256(data).hexdigest()})
    return written
