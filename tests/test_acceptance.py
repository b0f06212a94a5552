"""Acceptance gate: nine end-to-end criteria with stated tolerances.

Each test prints one ``[PASS]``/``[FAIL]`` line (visible with ``-s`` or
in captured output).  Expected values come from independent arithmetic:
hand-computed model evaluations, exact integer brute force for
matchings, and closed-loop runs checked against exhaustive enumeration.
"""

import functools
import itertools
import json
import random
import time

import numpy as np
import pytest

from synpa import (
    CATEGORIES,
    CYCLES_PER_MS,
    CategoryTriple,
    CategoryVector,
    EngineConfig,
    Phase,
    RawCounterSample,
    REFERENCE_COEFFICIENTS,
    SimWorkload,
    SyntheticApp,
    characterize,
    evaluate,
    fit,
    forward,
    graph_from_matrix,
    invert_category,
    min_weight_perfect_matching,
    normalize,
    predict_pair,
    run,
)
from synpa.cli import main as cli_main
from synpa.harness import compute_metrics, gen_workload, make_synthetic_roster
from synpa.trainer import AlignedSample
from synpa.harness import aggregate_runs, fairness, ipc_geomean
from synpa.harness import MetricsReport

from conftest import write_profile_corpus, CORPUS_APPS, CORPUS_PAIRS

QUANTUM_CYCLES = 100 * CYCLES_PER_MS


def criterion(number, title):
    """Print one pass/fail line per criterion around the test body."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"[FAIL] criterion {number}: {title} -- {exc!r}")
                raise
            suffix = f" ({detail})" if detail else ""
            print(f"[PASS] criterion {number}: {title}{suffix}")

        return inner

    return wrap


def perfect_matchings(items):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for i, partner in enumerate(rest):
        for tail in perfect_matchings(rest[:i] + rest[i + 1 :]):
            yield ((first, partner),) + tail


def affine(coeffs, ci, cj):
    return coeffs.alpha + coeffs.beta * ci + coeffs.gamma * cj + coeffs.rho * ci * cj


def reference_samples(n, seed, sigma):
    """Aligned samples drawn from the reference model.

    Vector parts are kept >= 0.3 before normalization so every clean
    observation sits several sigma above zero; the nonnegativity clamp
    is then a no-op in all but a vanishing fraction of draws.
    """
    rng = random.Random(seed)
    noise = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        sts = []
        for _ in range(2):
            parts = [rng.uniform(0.3, 1.0) for _ in range(3)]
            total = sum(parts)
            sts.append(
                CategoryVector(
                    fe=parts[0] / total, be=parts[1] / total, fdc=parts[2] / total
                )
            )
        st_i, st_j = sts
        vals_ij, vals_ji = {}, {}
        for name in CATEGORIES:
            coeffs = REFERENCE_COEFFICIENTS.category(name)
            vals_ij[name] = max(
                0.0,
                affine(coeffs, st_i.get(name), st_j.get(name))
                + sigma * noise.standard_normal(),
            )
            vals_ji[name] = max(
                0.0,
                affine(coeffs, st_j.get(name), st_i.get(name))
                + sigma * noise.standard_normal(),
            )
        out.append(
            AlignedSample(
                st_i=st_i,
                st_j=st_j,
                smt_ij=CategoryTriple(**vals_ij),
                smt_ji=CategoryTriple(**vals_ji),
                slowdown_i=sum(vals_ij.values()),
                slowdown_j=sum(vals_ji.values()),
            )
        )
    return out


@criterion(1, "characterization partitions cycles exactly")
def test_criterion_1_characterization_identities():
    rng = random.Random(1001)
    start = time.perf_counter()
    for i in range(10_000):
        width = rng.choice((2, 4, 8))
        cycles = rng.randrange(1, 10**7)
        # deliberately allow inconsistent counters to exercise clamping
        sample = RawCounterSample(
            quantum_index=i,
            thread_id="t",
            cpu_cycles=cycles,
            inst_spec=rng.randrange(0, cycles * width * 2),
            stall_frontend=rng.randrange(0, cycles * 2),
            stall_backend=rng.randrange(0, cycles * 2),
        )
        breakdown = characterize(sample, width)
        assert (
            breakdown.fe_units + breakdown.be_units + breakdown.fdc_units
            == cycles * width
        )
        vector = normalize(breakdown)
        assert abs(vector.fe + vector.be + vector.fdc - 1.0) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    return f"10000 samples in {elapsed:.2f}s"


@criterion(2, "forward model reproduces hand-computed values")
def test_criterion_2_forward_ground_truth():
    # frontend: 0.2376 + 1.4111 * 0.3 = 0.66093
    got = forward(REFERENCE_COEFFICIENTS.fe, 0.3, 0.7)
    assert abs(got - 0.66093) < 1e-12
    # backend: 0.2069 + 0.3431*0.2 + 1.4391*0.4 = 0.85116
    assert abs(forward(REFERENCE_COEFFICIENTS.be, 0.2, 0.4) - 0.85116) < 1e-12
    # full dispatch: 0.0072 + 0.9060*0.5 + 0.0044*0.5 + 0.0314*0.25 = 0.47025
    assert abs(forward(REFERENCE_COEFFICIENTS.fdc, 0.5, 0.5) - 0.47025) < 1e-12
    return "fe(0.3)=0.66093 within 1e-12"


@criterion(3, "inversion round-trips a 100x100 grid per category")
def test_criterion_3_inversion_round_trip():
    grid = np.linspace(0.01, 0.99, 100)
    start = time.perf_counter()
    worst = 0.0
    for name in CATEGORIES:
        coeffs = REFERENCE_COEFFICIENTS.category(name)
        for ci in grid:
            for cj in grid:
                u = forward(coeffs, ci, cj)
                v = forward(coeffs, cj, ci)
                solution = invert_category(coeffs, u, v)
                worst = max(worst, abs(solution.x - ci), abs(solution.y - cj))
        assert worst < 1e-6, f"category {name}: error {worst:.3g}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    return f"max error {worst:.2e} in {elapsed:.2f}s"


@criterion(4, "trainer recovers coefficients; noisy MSE tracks sigma^2")
def test_criterion_4_coefficient_recovery():
    clean = reference_samples(10_000, 20260816, sigma=0.0)
    report = fit(clean, seed=1)
    worst = 0.0
    for name in CATEGORIES:
        got = report.coefficients.category(name)
        want = REFERENCE_COEFFICIENTS.category(name)
        for field in ("alpha", "beta", "gamma", "rho"):
            worst = max(worst, abs(getattr(got, field) - getattr(want, field)))
    assert worst < 1e-6
    assert all(v < 1e-12 for v in report.mse.values()), report.mse

    sigma = 0.05
    noisy = reference_samples(10_000, 20260817, sigma=sigma)
    noisy_report = fit(noisy, seed=2)
    for name, mse in noisy_report.mse.items():
        assert 0.8 * sigma**2 <= mse <= 1.2 * sigma**2, (name, mse)
    return f"12 coefficients within {worst:.1e}; noisy MSE in [0.8,1.2]*sigma^2"


@criterion(5, "matcher equals exact brute force on random graphs")
def test_criterion_5_matching_optimality():
    start = time.perf_counter()
    checked = 0
    for n in (4, 6, 8, 10):
        nodes = tuple(f"t{i:02d}" for i in range(n))
        all_matchings = list(perfect_matchings(nodes))
        for case in range(1000):
            rng = random.Random(10_000 * n + case)
            weights = {}
            matrix = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    # dyadic weights are exact in binary floating point,
                    # so the integer oracle below is error-free
                    w = rng.randrange(64, 4096) / 64.0
                    weights[(nodes[i], nodes[j])] = matrix[i, j] = matrix[j, i] = w
            int_weights = {k: round(v * 64) for k, v in weights.items()}
            best = min(
                (sum(int_weights[p] for p in m), tuple(sorted(m)))
                for m in all_matchings
            )
            got = min_weight_perfect_matching(graph_from_matrix(nodes, matrix))
            assert got == best[1], (n, case)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"
    return f"{checked} graphs in {elapsed:.2f}s"


@criterion(6, "closed loop tracks the brute-force optimum at sigma=0")
def test_criterion_6_closed_loop_consistency():
    vectors = {
        "app0": CategoryVector(fe=0.08, be=0.10, fdc=0.82),
        "app1": CategoryVector(fe=0.30, be=0.60, fdc=0.10),
        "app2": CategoryVector(fe=0.25, be=0.30, fdc=0.45),
        "app3": CategoryVector(fe=0.50, be=0.25, fdc=0.25),
        "app4": CategoryVector(fe=0.15, be=0.20, fdc=0.65),
        "app5": CategoryVector(fe=0.55, be=0.30, fdc=0.15),
        "app6": CategoryVector(fe=0.10, be=0.55, fdc=0.35),
        "app7": CategoryVector(fe=0.35, be=0.10, fdc=0.55),
    }
    names = sorted(vectors)

    def matching_cost(matching):
        total = 0.0
        for a, b in matching:
            pred = predict_pair(REFERENCE_COEFFICIENTS, vectors[a], vectors[b])
            total += pred.slowdown_i + pred.slowdown_j
        return total

    best = min(
        perfect_matchings(tuple(names)),
        key=lambda m: (matching_cost(m), tuple(sorted(m))),
    )
    optimal = tuple(sorted(tuple(sorted(p)) for p in best))

    # size targets so all apps complete together under the optimal pairing
    slowdown = {}
    for a, b in optimal:
        pred = predict_pair(REFERENCE_COEFFICIENTS, vectors[a], vectors[b])
        slowdown[a], slowdown[b] = pred.slowdown_i, pred.slowdown_j
    horizon = 300.0
    apps = tuple(
        SyntheticApp(
            app_id=name,
            phases=(Phase(vector=vectors[name], instructions=10**15),),
            target_instructions=int(
                round(vectors[name].fdc * 4 * QUANTUM_CYCLES * horizon / slowdown[name])
            ),
        )
        for name in names
    )
    workload = SimWorkload(apps=apps, ground_truth=REFERENCE_COEFFICIENTS)
    log = run(
        EngineConfig(
            workload=workload, coefficients=REFERENCE_COEFFICIENTS, seed=0
        )
    )
    decided = log.records[1:]  # first quantum is the seeded bootstrap
    hits = sum(1 for record in decided if record.pairs == optimal)
    fraction = hits / len(decided)
    assert fraction >= 0.99, f"optimal in {hits}/{len(decided)} quanta"
    return f"optimal in {hits}/{len(decided)} quanta ({fraction:.2%})"


@criterion(7, "allocator beats the random baseline on turnaround and fairness")
def test_criterion_7_policy_separation():
    start = time.perf_counter()
    roster = make_synthetic_roster(7)
    means = {}
    for policy in ("synpa", "random"):
        tts, fairs = [], []
        for workload_seed in range(10):
            spec = gen_workload("mixed", roster, seed=workload_seed)
            workload = SimWorkload(
                apps=spec.apps, ground_truth=REFERENCE_COEFFICIENTS
            )
            for engine_seed in range(3):
                log = run(
                    EngineConfig(
                        workload=workload,
                        coefficients=REFERENCE_COEFFICIENTS,
                        policy=policy,
                        seed=engine_seed,
                    )
                )
                metrics = compute_metrics(log)
                tts.append(metrics.turnaround_quanta)
                fairs.append(metrics.fairness)
        means[policy] = (sum(tts) / len(tts), sum(fairs) / len(fairs))
    elapsed = time.perf_counter() - start
    tt_synpa, fair_synpa = means["synpa"]
    tt_random, fair_random = means["random"]
    assert tt_synpa < tt_random, means
    assert fair_synpa > fair_random, means
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"
    return (
        f"TT {tt_synpa:.2f}q vs {tt_random:.2f}q, "
        f"fairness {fair_synpa:.4f} vs {fair_random:.4f}, {elapsed:.1f}s"
    )


@criterion(8, "metric formulas match hand arithmetic")
def test_criterion_8_metric_formulas():
    assert fairness([0.4, 0.6]) == 0.8
    assert ipc_geomean([1.0, 4.0]) == 2.0
    reports = [
        MetricsReport(
            policy="synpa",
            seed=s,
            turnaround_quanta=tt,
            turnaround_ms=tt * 100.0,
            fairness=0.9,
            ipc_geomean=1.0,
            zero_ipc=False,
            speedups={},
            ipc={},
        )
        for s, tt in enumerate([100] * 8 + [300])
    ]
    aggregate = aggregate_runs(reports, cv_threshold=0.05)
    assert aggregate.tt_cv <= 0.05
    assert aggregate.cv_met is True
    assert aggregate.discarded == (8,)
    return "fairness 0.8 exact, geomean 2.0 exact, outlier discarded"


@criterion(9, "every CLI subcommand is byte-deterministic per seed")
def test_criterion_9_cli_determinism(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    profiles = write_profile_corpus(
        str(corpus_dir), REFERENCE_COEFFICIENTS, CORPUS_APPS, CORPUS_PAIRS
    )

    def run_all(base):
        base.mkdir()
        coeffs = base / "coeffs.json"
        assert cli_main(
            ["train", *profiles, "--out", str(coeffs), "--seed", "3"]
        ) == 0
        workload = base / "workload.json"
        assert cli_main(
            [
                "gen-workload", "--recipe", "mixed", "--seed", "1",
                "--iso-quanta", "6", "--out", str(workload),
            ]
        ) == 0
        log = base / "run.jsonl"
        metrics = base / "run.metrics.json"
        trace = base / "run.trace"
        assert cli_main(
            [
                "simulate", "--workload", str(workload),
                "--policy", "synpa", "--seed", "5",
                "--coefficients", str(coeffs),
                "--out", str(log), "--metrics", str(metrics),
                "--export-trace", str(trace),
            ]
        ) == 0
        multi = base / "runs"
        assert cli_main(
            [
                "simulate", "--workload", str(workload),
                "--policy", "synpa", "random", "--seed", "0", "1",
                "--out", str(multi),
            ]
        ) == 0
        replayed = base / "replayed.jsonl"
        assert cli_main(
            [
                "replay", "--trace", str(trace), "--seed", "2",
                "--out", str(replayed),
            ]
        ) == 0
        aggregate = base / "aggregate.json"
        csv = base / "runs.csv"
        logs = sorted(str(p) for p in multi.glob("synpa-s*.jsonl"))
        assert cli_main(
            ["report", *logs, "--out", str(aggregate), "--csv", str(csv)]
        ) == 0
        return {
            str(p.relative_to(base)): p.read_bytes()
            for p in sorted(base.rglob("*"))
            if p.is_file()
        }

    first = run_all(tmp_path / "one")
    second = run_all(tmp_path / "two")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    return f"{len(first)} files byte-identical across reruns"
