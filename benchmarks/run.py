#!/usr/bin/env python3
"""synpa benchmark: wall time per scheduled quantum and schedule quality.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  Each timed operation is one ``synpa
simulate`` or ``synpa replay`` command run in-process through
``synpa.cli.main``: one caller, one operation at a time, closed loop.
The inputs are generated from ``--seed`` by ``benchmarks/inputs.py``.

Every operation's output is checked (exit code, loadable log, a perfect
matching per quantum, replay length, byte-identical logs on repeats);
a failed check counts in ``failed`` and makes ``correct`` false.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
operation untraced and then traced, and reports the per-layer metrics
from the traced runs; the spans of the first traced pass are written to
``.bench_out/results``.  The last line of standard output is the JSON
result; the line before it is a JSON report with quartiles, failures,
inputs and the environment.  ``--workload all`` runs every workload in
its own process and prints one table.  The exit code is 0 only if every
check passed.
"""

from __future__ import annotations

import os

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:  # before anything imports numpy
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import tracing  # noqa: E402

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: ``host_probe``'s fastest time, in ms, that defines the reference host
#: speed; about what it takes on the 2-vCPU Intel Xeon host the benchmark
#: was written on.  Host times are reported at that speed (see ``measure``).
REFERENCE_PROBE_MS = 8.0
IDLE_NODE = "__idle__"

#: Per-layer self time per scheduled quantum: metric -> source spans.  A
#: metric is not measured when its first span's function is gone.
LAYER_TIMES = {
    "matcher.build_graph_ms": ("matcher.build_graph",),
    "interference.invert_ms": ("interference.invert",),
    "interference.predict_ms": ("interference.predict_pair",),
    "engine.sim_step_ms": ("engine.sim_step",),
    "engine.self_ms": ("engine.run",),
    "engine.log_ms": ("engine.to_jsonl",),
    "counters.parse_ms": ("counters.open_trace", "counters.read_counter_file"),
    "dispatch.characterize_ms": ("dispatch.characterize", "dispatch.normalize"),
    "harness.metrics_ms": ("harness.compute_metrics",),
    "cli.self_ms": (tracing.ROOT_SPAN,),
}
#: Call counts of one traced pass: metric -> span.
LAYER_CALLS = {
    "matcher.calls": "matcher.solve",
    "interference.invert_calls": "interference.invert",
    "interference.predict_calls": "interference.predict_pair",
    "dispatch.samples": "dispatch.characterize",
}
#: Counts taken from arguments and results at a span boundary: metric -> span.
BOUNDARY_COUNTS = {
    "matcher.nodes": "matcher.solve",
    "interference.degraded": "interference.invert",
    "dispatch.clamped": "dispatch.characterize",
    "counters.rows": "counters.read_counter_file",
    "engine.log_bytes": "engine.to_jsonl",
}

PER_LAYER = {
    "matcher.solve_ms": "ms",
    "matcher.solve_ms_p90": "ms",
    **{name: "ms/quantum" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_CALLS},
    **{name: "count" for name in BOUNDARY_COUNTS},
    "engine.log_bytes": "bytes",
    "engine.quanta": "count",
    "engine.migrations": "count",
    "interference.degraded_rate": "ratio",
    "setup.import_ms": "ms",
    "setup.inputs_ms": "ms",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a failed check)."""


class CheckFailed(Exception):
    """An operation's output failed a check."""


# ---------------------------------------------------------------------------
# Operations


@dataclass(frozen=True)
class Op:
    key: str
    argv: tuple[str, ...]
    log: str
    expected_quanta: int | None  # replay: the trace's quanta


def build_ops(workload: str, work: str, input_dir: str, small: bool) -> list[Op]:
    plan = inputs.plan_for(workload, small)
    os.makedirs(os.path.join(work, "logs"), exist_ok=True)
    ops = []
    for seed, name in enumerate(inputs.input_names(workload, small)):
        path = os.path.join(input_dir, name)
        log = os.path.join(work, "logs", name + ".jsonl")
        if plan.kind == "simulate":
            argv = ["simulate", "--workload", path, "--policy", "synpa"]
            if plan.noise_sigma:
                argv += ["--noise-sigma", repr(plan.noise_sigma)]
            expected = None
        else:
            argv = ["replay", "--trace", path, "--policy", "synpa"]
            expected = int(plan.length)
        argv += ["--seed", str(seed), "--out", log]
        ops.append(Op(name, tuple(argv), log, expected))
    return ops


def check_pairs(record: dict) -> None:
    """The quantum's pairs are a perfect matching of the threads present."""
    present = set(record["observed"])
    members = [m for pair in record["pairs"] for m in pair]
    if any(len(pair) != 2 or pair[0] == pair[1] for pair in record["pairs"]):
        raise CheckFailed(f"quantum {record['quantum']}: malformed pair in {record['pairs']}")
    real = [m for m in members if m != IDLE_NODE]
    if len(set(real)) != len(real) or set(real) != present:
        raise CheckFailed(
            f"quantum {record['quantum']}: pairs {record['pairs']} do not cover "
            f"the {len(present)} threads present exactly once"
        )
    if members.count(IDLE_NODE) != len(present) % 2:
        raise CheckFailed(f"quantum {record['quantum']}: wrong use of {IDLE_NODE!r}")


def _model_fairness(records: list[dict]) -> float:
    """1 - sigma/mu of per-thread speedups implied by the logged slowdowns.

    Replay has no isolated baseline, so its schedule quality is read from
    the allocator's own model slowdowns of the pairs it ran.
    """
    slowdowns: dict[str, list[float]] = {}
    for record in records:
        for thread, value in record["slowdown"].items():
            slowdowns.setdefault(thread, []).append(value)
    speedups = [1.0 / statistics.fmean(v) for _, v in sorted(slowdowns.items())]
    mean = statistics.fmean(speedups)
    return 1.0 - statistics.pstdev(speedups, mu=mean) / mean


def check_log(op: Op, harness, synpa_error: type[Exception]) -> dict:
    """Check one operation's log and read its quality and counts."""
    try:
        with open(op.log, "rb") as fh:
            data = fh.read()
        summary = harness.load_log_summary(op.log)
        metrics = harness.compute_metrics(summary)
        records = [json.loads(line) for line in data.decode("utf-8").splitlines()[1:-1]]
        for record in records:
            check_pairs(record)
    except (OSError, ValueError, KeyError, TypeError, synpa_error) as exc:
        raise CheckFailed(f"log does not load: {exc!r}") from None
    quanta = len(records)
    if quanta < 1 or summary.total_quanta != quanta:
        raise CheckFailed(f"log has {quanta} records but total_quanta={summary.total_quanta}")
    if op.expected_quanta is not None and quanta != op.expected_quanta:
        raise CheckFailed(f"replay scheduled {quanta} quanta, trace has {op.expected_quanta}")
    inverted = degraded = 0
    for record in records:
        for a, b in record["pairs"]:
            if IDLE_NODE not in (a, b):
                inverted += 2
                degraded += record["degraded"].get(a, False) + record["degraded"].get(b, False)
    fairness = metrics.fairness if metrics.fairness is not None else _model_fairness(records)
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "quanta": quanta,
        "turnaround_quanta": metrics.turnaround_quanta,
        "fairness": fairness,
        "migrations": sum(r["migrations"] for r in records),
        "inverted": inverted,
        "degraded": degraded,
    }


class Runner:
    """Runs operations, checks them and keeps every outcome."""

    def __init__(self, cli, harness, synpa_error: type[Exception]):
        self.cli = cli
        self.harness = harness
        self.synpa_error = synpa_error
        self.first: dict[str, dict] = {}  # op key -> outcome of its first run
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, op: Op, tracer: tracing.Tracer | None = None) -> tuple[float, dict | None]:
        """Returns (wall seconds, outcome), outcome None on failure."""
        self.attempted += 1
        sink = io.StringIO()
        problem = None
        span = tracer.span(tracing.ROOT_SPAN) if tracer else nullcontext()
        start = perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink), span:
                code = self.cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the benchmark keeps running and reports it
            code = None
            problem = "raised:\n" + traceback.format_exc()
        wall = perf_counter() - start
        if problem is None and code != 0:
            problem = f"exit code {code}: {sink.getvalue().strip()[-500:]}"
        outcome = None
        if problem is None:
            try:
                outcome = check_log(op, self.harness, self.synpa_error)
                reference = self.first.setdefault(op.key, outcome)
                if outcome["sha256"] != reference["sha256"]:
                    raise CheckFailed("log differs from the first run with the same inputs and seed")
            except CheckFailed as exc:
                problem = str(exc)
                outcome = None
        if problem is not None:
            self.failures.append(f"{op.key} ({' '.join(op.argv[:1])}): {problem}")
        return wall, outcome


# ---------------------------------------------------------------------------
# Measurement


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"p25": values[0], "median": values[0], "p75": values[0], "n": 1}
    q = statistics.quantiles(values, n=4)
    return {"p25": q[0], "median": statistics.median(values), "p75": q[2], "n": len(values)}


def _p90(values: list[float]) -> float:
    return values[0] if len(values) == 1 else statistics.quantiles(values, n=10)[8]


def per_quantum(walls: dict[str, list[float]], quanta: dict[str, int], scale: float) -> float:
    """Milliseconds per scheduled quantum of one pass over the operations.

    Each operation is deterministic, so its repeats do the same work and
    differ only by interference from outside the process, which only
    ever adds time.  Each operation therefore counts with its fastest
    repeat, and a pass over unlike inputs weighs each of them the same in
    every run.  ``scale`` converts to the reference host speed.
    """
    total = sum(min(samples) for samples in walls.values())
    return total * 1e3 * scale / sum(quanta[key] for key in walls)


def host_probe() -> float:
    """Seconds for a fixed task made of many small numpy operations.

    It resembles the small-array work of synpa's operations (most of all
    the bounded least-squares fallback) but runs no synpa code, so no
    change to synpa can change its time; only the host can.  The
    collector is off while it runs, so the benchmark's own heap does not
    count either.
    """
    gc.disable()
    try:
        start = perf_counter()
        x = numpy.array([0.3, 0.4])
        lo, hi = numpy.zeros(2), numpy.ones(2)
        jacobian = numpy.array([[1.0, 0.1], [0.2, 1.0]])
        for _ in range(1500):
            y = numpy.clip(x * 0.9 + 0.01, lo, hi)
            x = jacobian @ (y / (1.0 + float(numpy.dot(y, y))))
        return perf_counter() - start
    finally:
        gc.enable()


def measure(runner: Runner, ops: list[Op], seconds: float, trace: bool) -> dict:
    """Run passes over ``ops`` until ``seconds`` have passed.

    One untimed run of the first operation comes first, so lazy set-up
    and caches do not count.  Untraced runs need two full passes so every
    log is compared with a repeat; traced runs run each operation
    untraced and then traced, so one pass already repeats each.  Counts
    come from the first pass, whose spans are also kept for writing out.

    Each pass pins the process to the next CPU it may use, so every
    operation's fastest repeat is taken over the CPUs: on a shared host
    one CPU is often slowed for minutes by work on its sibling.  The
    work is still one thread, one operation at a time.

    ``host_probe`` runs before every operation.  The whole host also
    slows by a quarter or more for minutes at a time; the fastest probe
    slows with much of it, so host times are scaled by
    ``REFERENCE_PROBE_MS`` over the run's fastest probe.
    """
    tracer = tracing.Tracer() if trace else None
    got = {
        "plain": defaultdict(list),  # op key -> wall seconds, untraced
        "traced": defaultdict(list),  # op key -> wall seconds, traced
        "layers": defaultdict(lambda: defaultdict(list)),  # layer -> op key -> self seconds
        "solve_ms": [],  # per call
        "counts": {name: 0 for name in (*LAYER_CALLS, *BOUNDARY_COUNTS)},
        "spans": [],
        "probe": [],
        "missing": tracer.missing if tracer else [],
    }
    runner.run(ops[0])
    min_passes = 1 if trace else 2
    deadline = perf_counter() + seconds
    passes = 0
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    try:
        while passes < min_passes or perf_counter() < deadline:
            os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
            for op in ops:
                got["probe"].append(host_probe())
                wall, outcome = runner.run(op)
                if outcome:
                    got["plain"][op.key].append(wall)
                if tracer is not None:
                    tracer.reset()
                    with tracer.installed():
                        wall, outcome = runner.run(op, tracer)
                    if outcome:
                        _add_traced(got, op.key, wall, tracer, first_pass=passes == 0)
                if passes >= min_passes and perf_counter() >= deadline:
                    break
            passes += 1
    finally:
        os.sched_setaffinity(0, allowed)
    got["passes"] = passes
    return got


def _add_traced(got: dict, key: str, wall: float, tracer: tracing.Tracer, first_pass: bool) -> None:
    got["traced"][key].append(wall)
    self_s, calls, solves = tracing.summarize(tracer.spans)
    for name, sources in (*LAYER_TIMES.items(), ("matcher.solve", ("matcher.solve",))):
        got["layers"][name][key].append(sum(self_s.get(s, 0.0) for s in sources))
    got["solve_ms"].extend(s * 1e3 for s in solves)
    if first_pass:
        counts = got["counts"]
        for name, span in LAYER_CALLS.items():
            counts[name] += calls.get(span, 0)
        for name in BOUNDARY_COUNTS:
            n = tracer.counts.get(name, 0)
            counts[name] = max(counts[name], n) if name == "matcher.nodes" else counts[name] + n
        got["spans"].append((key, tracer.spans))


def run_setup(workload: str, seed: int, work: str, small: bool) -> dict:
    """Median fresh-interpreter set-up over ``SETUP_REPEATS`` probes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    probe = os.path.join(HERE, "setup_probe.py")
    runs = []
    for k in range(1 if small else SETUP_REPEATS):
        out_dir = os.path.join(work, f"setup{k}")
        proc = subprocess.run(
            [sys.executable, probe, "--workload", workload, "--seed", str(seed),
             "--out", out_dir] + (["--small"] if small else []),
            capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr.strip()}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    if any(r["inputs"] != runs[0]["inputs"] for r in runs):
        raise BenchError("input generation is not deterministic across set-ups")
    return {
        "setup_s": statistics.median((r["import_ms"] + r["inputs_ms"]) / 1e3 for r in runs),
        "import_ms": statistics.median(r["import_ms"] for r in runs),
        "inputs_ms": statistics.median(r["inputs_ms"] for r in runs),
        "inputs": runs[0]["inputs"],
        "input_dir": os.path.join(work, "setup0"),
    }


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy", "networkx"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    sha = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
            status = subprocess.run(["git", "--no-optional-locks", "-C", ROOT, "status",
                                     "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True, timeout=30, check=True)
            dirty = bool(status.stdout.strip())
        except (OSError, subprocess.SubprocessError):
            sha = dirty = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "git_sha": sha,
        "git_dirty": dirty,
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    work = os.path.join(OUT, f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}")
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    try:
        setup = run_setup(args.workload, args.seed, work, args.small)
        sys.path.insert(0, SRC)
        import synpa.cli
        import synpa.errors
        import synpa.harness

        ops = build_ops(args.workload, work, setup["input_dir"], args.small)
        runner = Runner(synpa.cli, synpa.harness, synpa.errors.SynpaError)
        got = measure(runner, ops, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    firsts = [runner.first[op.key] for op in ops if op.key in runner.first]
    scale = REFERENCE_PROBE_MS / (min(got["probe"]) * 1e3)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "passes": got["passes"],
        "host_probe_ms": min(got["probe"]) * 1e3,
        "host_scale": scale,
        "attempted": runner.attempted,
        "failed": failed,
        "error_rate": failed / runner.attempted,
        "failures": runner.failures,
        "inputs": setup["inputs"],
        "environment": environment(),
    }
    metrics: dict[str, dict] = {}
    quanta = {op.key: runner.first[op.key]["quanta"] for op in ops if op.key in runner.first}
    if len(got["plain"]) != len(ops) or (args.trace and len(got["traced"]) != len(ops)):
        correct = False  # some operation never succeeded
    else:
        correct = failed == 0
        report["ms_per_quantum_unscaled"] = per_quantum(got["plain"], quanta, 1.0)
        report["ms_per_quantum_per_op"] = _quartiles(
            [w * 1e3 / quanta[k] for k, walls in got["plain"].items() for w in walls])
        report["turnaround_quanta_per_op"] = [f["turnaround_quanta"] for f in firsts]
        if not args.trace:
            metrics = {
                "ms_per_quantum": _metric(per_quantum(got["plain"], quanta, scale), "ms"),
                "setup_s": _metric(setup["setup_s"], "s"),
                "peak_rss_mb": _metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "turnaround_quanta": _metric(
                    statistics.fmean(f["turnaround_quanta"] for f in firsts), "quanta"),
                "fairness": _metric(statistics.fmean(f["fairness"] for f in firsts), "ratio"),
            }
        else:
            metrics, extra = layer_metrics(got, setup, firsts, quanta, scale)
            report.update(extra)
            write_spans(os.path.join(results, f"{args.workload}-s{args.seed}.spans.jsonl"),
                        got["spans"])
    result = {"correct": correct, "attempted": runner.attempted, "failed": failed,
              "metrics": metrics}
    report["result"] = result
    with open(os.path.join(results, f"{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print_table(args.workload, metrics, report)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


def layer_metrics(got: dict, setup: dict, firsts: list[dict], quanta: dict,
                  scale: float) -> tuple[dict, dict]:
    missing = set(got["missing"])
    values: dict[str, float] = dict(got["counts"])
    not_measured = [name for name, span in (*LAYER_CALLS.items(), *BOUNDARY_COUNTS.items())
                    if span in missing]
    solves = got["solve_ms"]
    if solves:
        values["matcher.solve_ms"] = statistics.median(solves) * scale
        values["matcher.solve_ms_p90"] = _p90(solves) * scale
    else:
        not_measured += ["matcher.solve_ms", "matcher.solve_ms_p90"]
        values["matcher.solve_ms"] = values["matcher.solve_ms_p90"] = 0.0
    layer_ms = {name: per_quantum(walls, quanta, scale) for name, walls in got["layers"].items()}
    for name, spans in LAYER_TIMES.items():
        if spans[0] in missing:
            not_measured.append(name)
        values[name] = layer_ms[name]
    inverted = sum(f["inverted"] for f in firsts)
    values["engine.quanta"] = sum(f["quanta"] for f in firsts)
    values["engine.migrations"] = sum(f["migrations"] for f in firsts)
    values["interference.degraded_rate"] = (
        sum(f["degraded"] for f in firsts) / inverted if inverted else 0.0)
    values["setup.import_ms"] = setup["import_ms"]
    values["setup.inputs_ms"] = setup["inputs_ms"]
    plain = per_quantum(got["plain"], quanta, scale)
    traced = per_quantum(got["traced"], quanta, scale)
    values["trace.overhead_pct"] = (traced - plain) / plain * 100.0
    shares = {name: ms / traced for name, ms in layer_ms.items()}
    extra = {
        "ms_per_quantum": {"untraced": plain, "traced": traced},
        "self_time_share": shares,
        "largest_self_time": max(shares, key=shares.get),
        "not_measured": sorted(not_measured),
    }
    return {name: _metric(values[name], PER_LAYER[name]) for name in PER_LAYER}, extra


def write_spans(path: str, ops_spans: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, spans in ops_spans:
            for sid, parent, name, start, end in spans:
                fh.write(json.dumps({"op": key, "id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def print_table(workload: str, metrics: dict, report: dict) -> None:
    print(f"workload {workload}: {report['attempted']} operations, "
          f"{report['failed']} failed (error_rate {report['error_rate']:.4f} ratio)")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    if "ms_per_quantum_per_op" in report:
        q = report["ms_per_quantum_per_op"]
        print(f"  ms per quantum of single runs: p25 {q['p25']:.4f}, median "
              f"{q['median']:.4f}, p75 {q['p75']:.4f} ms over {q['n']} operations")
    if "largest_self_time" in report:
        shares = report["self_time_share"]
        top = sorted(shares, key=shares.get, reverse=True)[:4]
        print("  largest self-time shares: " + ", ".join(f"{n} {shares[n]:.1%}" for n in top))
    if report.get("not_measured"):
        print(f"  not measured: {', '.join(report['not_measured'])}")


# ---------------------------------------------------------------------------
# Entry points


def run_all(args) -> int:
    """Every workload in its own process; one table; non-zero on any failure."""
    ok = True
    results = {}
    for name in inputs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)] + (["--small"] if args.small else []),
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
            report = json.loads(lines[-2])["report"]
        except (IndexError, ValueError, KeyError):
            print(f"workload {name}: no result (exit code {proc.returncode})")
            ok = False
            continue
        print("\n".join(lines[:-2]))
        ok = ok and proc.returncode == 0 and result["correct"]
        results[name] = {**result, "error_rate": report["error_rate"]}
    print(json.dumps({"correct": ok, "workloads": results}, sort_keys=True))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(inputs.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="smallest inputs and a single set-up (smoke test)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "synpa", "cli.py")):
        print(f"error: synpa sources not found under {SRC}; run from a synpa checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
