"""Tests for the engine: synthetic workloads, the per-quantum
simulation step, the run loop shared by simulation and trace replay
(checked against an exhaustive matching oracle), migration counts, and
determinism."""

import dataclasses
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synpa import (
    CATEGORIES,
    CYCLES_PER_MS,
    IDLE_NODE,
    POLICIES,
    AppSimState,
    CategoryVector,
    ConfigError,
    EngineConfig,
    Phase,
    REFERENCE_COEFFICIENTS,
    SimWorkload,
    SyntheticApp,
    TraceError,
    TraceHeader,
    WorkloadError,
    cycles_per_quantum,
    format_trace,
    predict_pair,
    run,
    sim_step,
    trace_from_log,
)
from synpa import engine
from synpa.harness import make_synthetic_app

QUANTUM_CYCLES = 100 * CYCLES_PER_MS  # default quantum at the nominal clock
WIDTH = 4

BE_VECTOR = CategoryVector(fe=0.05, be=0.80, fdc=0.15)
FE_VECTOR = CategoryVector(fe=0.60, be=0.10, fdc=0.30)


def rate_of(vector, width=WIDTH, cycles=QUANTUM_CYCLES):
    return vector.fdc * width * cycles


def static_app(app_id, vector, quanta, width=WIDTH, cycles=QUANTUM_CYCLES):
    """A single-phase app sized to run ``quanta`` isolated quanta."""
    target = int(round(rate_of(vector, width, cycles) * quanta))
    return SyntheticApp(
        app_id=app_id,
        phases=(Phase(vector=vector, instructions=10**15),),
        target_instructions=target,
    )


def enumerate_matchings(nodes):
    nodes = sorted(nodes)
    if not nodes:
        yield ()
        return
    first = nodes[0]
    for k in range(1, len(nodes)):
        partner = nodes[k]
        rest = nodes[1:k] + nodes[k + 1 :]
        for sub in enumerate_matchings(rest):
            yield ((first, partner),) + sub


def optimal_pairs(vectors, model=REFERENCE_COEFFICIENTS):
    """Exhaustive argmin of summed pair slowdowns over true vectors."""
    best = None
    for pairs in enumerate_matchings(list(vectors)):
        total = 0.0
        for a, b in pairs:
            pred = predict_pair(model, vectors[a], vectors[b])
            total += pred.slowdown_i + pred.slowdown_j
        key = (total, pairs)
        if best is None or key < best:
            best = key
    return best[1]


class TestWorkloadTypes:
    def test_phase_requires_positive_budget(self):
        with pytest.raises(WorkloadError):
            Phase(vector=BE_VECTOR, instructions=0)

    def test_phase_requires_dispatch_progress(self):
        with pytest.raises(WorkloadError):
            Phase(vector=CategoryVector(fe=0.5, be=0.5, fdc=0.0), instructions=100)

    def test_app_requires_phases_and_target(self):
        phase = Phase(vector=BE_VECTOR, instructions=100)
        with pytest.raises(WorkloadError):
            SyntheticApp(app_id="a", phases=(), target_instructions=10)
        with pytest.raises(WorkloadError):
            SyntheticApp(app_id="a", phases=(phase,), target_instructions=0)

    def test_reserved_app_id_rejected(self):
        phase = Phase(vector=BE_VECTOR, instructions=100)
        with pytest.raises(WorkloadError):
            SyntheticApp(app_id=IDLE_NODE, phases=(phase,), target_instructions=10)

    def test_isolated_quanta_single_phase(self):
        vector = CategoryVector(fe=0.25, be=0.50, fdc=0.25)
        app = SyntheticApp(
            app_id="a",
            phases=(Phase(vector=vector, instructions=10**12),),
            target_instructions=2500,
        )
        # rate = 0.25 * 4 * 1000 = 1000 instructions per quantum.
        assert app.isolated_quanta(1000) == pytest.approx(2.5, abs=1e-12)

    def test_isolated_quanta_cycles_through_phases(self):
        fast = Phase(
            vector=CategoryVector(fe=0.2, be=0.3, fdc=0.5), instructions=2000
        )
        slow = Phase(
            vector=CategoryVector(fe=0.25, be=0.50, fdc=0.25), instructions=1000
        )
        app = SyntheticApp(app_id="a", phases=(fast, slow), target_instructions=4500)
        # Rates at width 4 and 1000 cycles: 2000/q and 1000/q.
        # 2000 (1q) + 1000 (1q) + 1500 at 2000/q (0.75q) = 2.75 quanta.
        assert app.isolated_quanta(1000) == pytest.approx(2.75, abs=1e-12)

    def test_app_dict_round_trip(self):
        app = static_app("demo", BE_VECTOR, 3.5)
        restored = SyntheticApp.from_dict(app.to_dict())
        assert restored == app

    def test_bad_app_dict_rejected(self):
        with pytest.raises(WorkloadError):
            SyntheticApp.from_dict({"app_id": "x", "phases": "nope"})

    def test_workload_validation(self):
        app = static_app("a", BE_VECTOR, 2.0)
        with pytest.raises(WorkloadError):
            SimWorkload(apps=(app, static_app("a", FE_VECTOR, 2.0)))
        with pytest.raises(WorkloadError):
            SimWorkload(apps=())
        with pytest.raises(WorkloadError):
            SimWorkload(apps=(app,), noise_sigma=-0.1)

    @pytest.mark.parametrize("noise_sigma", [math.nan, math.inf])
    def test_non_finite_noise_rejected(self, noise_sigma):
        with pytest.raises(WorkloadError, match="noise_sigma"):
            SimWorkload(apps=(static_app("a", BE_VECTOR, 2.0),), noise_sigma=noise_sigma)


class TestSimStep:
    def _states(self, *apps):
        return {a.app_id: AppSimState(app=a) for a in apps}

    def test_identical_pair_is_symmetric(self):
        a = static_app("a", BE_VECTOR, 10.0)
        b = static_app("b", BE_VECTOR, 10.0)
        states = self._states(a, b)
        results = sim_step(
            states, [("a", "b")], REFERENCE_COEFFICIENTS, 0.0,
            np.random.default_rng(0), 1, QUANTUM_CYCLES,
        )
        assert results["a"].slowdown == results["b"].slowdown
        assert results["a"].committed == results["b"].committed
        want = predict_pair(REFERENCE_COEFFICIENTS, BE_VECTOR, BE_VECTOR)
        assert results["a"].slowdown == want.slowdown_i
        assert results["a"].committed == pytest.approx(
            rate_of(BE_VECTOR) / want.slowdown_i, rel=1e-12
        )

    def test_observation_matches_ground_truth_forward(self):
        a = static_app("a", BE_VECTOR, 10.0)
        b = static_app("b", FE_VECTOR, 10.0)
        states = self._states(a, b)
        results = sim_step(
            states, [("a", "b")], REFERENCE_COEFFICIENTS, 0.0,
            np.random.default_rng(0), 1, QUANTUM_CYCLES,
        )
        want = predict_pair(REFERENCE_COEFFICIENTS, BE_VECTOR, FE_VECTOR)
        for name in CATEGORIES:
            assert results["a"].observed.get(name) == want.smt_i.get(name)
            assert results["b"].observed.get(name) == want.smt_j.get(name)

    def test_idle_partner_runs_at_isolated_speed(self):
        a = static_app("a", FE_VECTOR, 10.0)
        states = self._states(a)
        results = sim_step(
            states, [("a", IDLE_NODE)], REFERENCE_COEFFICIENTS, 0.0,
            np.random.default_rng(0), 1, QUANTUM_CYCLES,
        )
        assert results["a"].slowdown == 1.0
        assert results["a"].committed == rate_of(FE_VECTOR)
        for name in CATEGORIES:
            assert results["a"].observed.get(name) == FE_VECTOR.get(name)

    def test_noise_clamped_and_progress_noiseless(self):
        a = static_app("a", BE_VECTOR, 100.0)
        b = static_app("b", FE_VECTOR, 100.0)
        clean = sim_step(
            self._states(a, b), [("a", "b")], REFERENCE_COEFFICIENTS, 0.0,
            np.random.default_rng(7), 1, QUANTUM_CYCLES,
        )
        states = self._states(a, b)
        rng = np.random.default_rng(7)
        for quantum in range(1, 30):
            noisy = sim_step(
                states, [("a", "b")], REFERENCE_COEFFICIENTS, 0.8,
                rng, quantum, QUANTUM_CYCLES,
            )
            for app_id in ("a", "b"):
                for name in CATEGORIES:
                    assert noisy[app_id].observed.get(name) >= 0.0
                assert noisy[app_id].committed == clean[app_id].committed
                assert noisy[app_id].slowdown == clean[app_id].slowdown

    def test_completion_clips_and_relaunches(self):
        vector = CategoryVector(fe=0.25, be=0.50, fdc=0.25)
        rate = rate_of(vector)
        app = SyntheticApp(
            app_id="a",
            phases=(Phase(vector=vector, instructions=10**15),),
            target_instructions=int(rate * 1.5),
        )
        states = self._states(app)
        rng = np.random.default_rng(0)
        first = sim_step(
            states, [("a", IDLE_NODE)], REFERENCE_COEFFICIENTS, 0.0,
            rng, 1, QUANTUM_CYCLES,
        )
        assert not first["a"].completed
        assert first["a"].committed == rate
        second = sim_step(
            states, [("a", IDLE_NODE)], REFERENCE_COEFFICIENTS, 0.0,
            rng, 2, QUANTUM_CYCLES,
        )
        # Only the remaining half quantum of work counts this quantum.
        assert second["a"].completed
        assert second["a"].committed == pytest.approx(rate * 0.5, rel=1e-12)
        state = states["a"]
        assert state.first_completion == 2
        assert state.launches == 2
        assert state.done == 0.0
        assert state.phase_index == 0

    def test_phase_advances_on_budget_boundary(self):
        v1 = CategoryVector(fe=0.2, be=0.3, fdc=0.5)
        v2 = CategoryVector(fe=0.6, be=0.2, fdc=0.2)
        rate1 = rate_of(v1)
        app = SyntheticApp(
            app_id="a",
            phases=(
                Phase(vector=v1, instructions=int(rate1)),
                Phase(vector=v2, instructions=10**14),
            ),
            target_instructions=10**13,
        )
        states = self._states(app)
        sim_step(
            states, [("a", IDLE_NODE)], REFERENCE_COEFFICIENTS, 0.0,
            np.random.default_rng(0), 1, QUANTUM_CYCLES,
        )
        # Exactly one phase budget of work was committed.
        assert states["a"].phase_index == 1
        assert states["a"].into_phase == 0.0
        assert states["a"].vector == v2


class TestEngineConfig:
    def _workload(self):
        return SimWorkload(
            apps=(static_app("a", BE_VECTOR, 2.0), static_app("b", FE_VECTOR, 2.0))
        )

    def test_policies_tuple(self):
        assert POLICIES == ("synpa", "random", "static")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            EngineConfig(policy="greedy", workload=self._workload())

    def test_exactly_one_input_source(self):
        with pytest.raises(ConfigError):
            EngineConfig()  # neither workload nor trace
        with pytest.raises(ConfigError):
            EngineConfig(workload=self._workload(), trace_path="x.trace")

    def test_parameter_validation(self):
        apps = self._workload().apps
        for quantum_ms in (0.0, -5.0, math.nan, math.inf, 1e-9, 1e305):
            with pytest.raises(ConfigError, match="quantum_ms"):
                SimWorkload(apps=apps, quantum_ms=quantum_ms)
        with pytest.raises(ConfigError, match="seed"):
            EngineConfig(workload=self._workload(), seed=-1)

    def test_cycles_per_quantum(self):
        assert cycles_per_quantum(100.0) == 100 * CYCLES_PER_MS
        assert cycles_per_quantum(1e-6) == 1
        with pytest.raises(ConfigError, match="quantum_ms"):
            cycles_per_quantum(4e-7)


class TestRunSimulation:
    def _run(self, apps, policy="synpa", seed=0, noise=0.0, **kwargs):
        workload = SimWorkload(apps=tuple(apps), noise_sigma=noise)
        config = EngineConfig(policy=policy, seed=seed, workload=workload, **kwargs)
        return run(config)

    def test_two_apps_forced_matching(self):
        log = self._run(
            [static_app("a", BE_VECTOR, 5.2), static_app("b", FE_VECTOR, 5.2)]
        )
        assert log.total_quanta == len(log.records)
        for k, record in enumerate(log.records):
            assert record.quantum == k + 1
            assert record.pairs == (("a", "b"),)

    def test_single_app_runs_alone_every_quantum(self):
        # The one app pairs with the idle slot on every decision, so it
        # keeps running and the run ends when it completes.
        log = self._run([static_app("a", BE_VECTOR, 3.2)])
        assert log.total_quanta == 4
        assert all(record.pairs == ((IDLE_NODE, "a"),) for record in log.records)

    def test_four_apps_reach_synergistic_steady_state(self):
        vectors = {
            "b0": BE_VECTOR, "b1": BE_VECTOR,
            "f0": FE_VECTOR, "f1": FE_VECTOR,
        }
        # The exhaustive oracle confirms a mixed pairing minimizes the
        # summed predicted slowdowns for these vectors.
        want = optimal_pairs(vectors)
        assert all(
            (a.startswith("b")) != (b.startswith("b")) for a, b in want
        )
        log = self._run(
            [static_app(name, vec, 8.3) for name, vec in sorted(vectors.items())]
        )
        # From the second quantum on, decisions come from measured
        # estimates; every pair must couple one backend-heavy app with
        # one frontend-heavy app.
        for record in log.records[1:]:
            for a, b in record.pairs:
                assert a.startswith("b") != b.startswith("b"), record.pairs

    def test_six_apps_track_exhaustive_optimum_each_quantum(self):
        # Spread dispatch fractions so consecutive matchings are separated
        # by far more than the engine's estimation error.
        vectors = {
            "app0": CategoryVector(fe=0.08, be=0.10, fdc=0.82),
            "app1": CategoryVector(fe=0.30, be=0.60, fdc=0.10),
            "app2": CategoryVector(fe=0.25, be=0.30, fdc=0.45),
            "app3": CategoryVector(fe=0.50, be=0.25, fdc=0.25),
            "app4": CategoryVector(fe=0.15, be=0.20, fdc=0.65),
            "app5": CategoryVector(fe=0.55, be=0.30, fdc=0.15),
        }
        want = optimal_pairs(vectors)
        log = self._run(
            [static_app(name, vec, 6.4) for name, vec in sorted(vectors.items())]
        )
        # Decisions are exhaustively optimal from the first model-driven
        # quantum until an app completes; a relaunch resets that app's
        # estimate, so later quanta legitimately re-measure it.
        first = min(log.first_completion.values())
        assert first >= 7
        for record in log.records[1:first]:
            assert record.pairs == want

    def test_estimates_recover_ground_truth(self):
        # With exact observations and the engine using the simulator's
        # own ground-truth model, every inversion recovers the true
        # behavior vectors.
        apps = {
            "a": BE_VECTOR,
            "b": FE_VECTOR,
            "c": CategoryVector(fe=0.30, be=0.40, fdc=0.30),
            "d": CategoryVector(fe=0.15, be=0.55, fdc=0.30),
        }
        log = self._run([static_app(n, v, 5.1) for n, v in sorted(apps.items())])
        checked = 0
        for record in log.records:
            assert not any(record.degraded.values())
            for app_id, estimate in record.estimates.items():
                for name in CATEGORIES:
                    assert abs(estimate.get(name) - apps[app_id].get(name)) < 1e-6
                checked += 1
        assert checked >= 2 * len(log.records)

    def test_same_seed_byte_identical(self):
        apps = [static_app("a", BE_VECTOR, 6.7), static_app("b", FE_VECTOR, 6.7),
                static_app("c", BE_VECTOR, 6.7), static_app("d", FE_VECTOR, 6.7)]
        for policy in POLICIES:
            log1 = self._run(apps, policy=policy, seed=42)
            log2 = self._run(apps, policy=policy, seed=42)
            assert log1.to_jsonl() == log2.to_jsonl()

    def test_workload_conservation_exact(self):
        app_a = static_app("a", BE_VECTOR, 7.3)
        app_b = static_app("b", BE_VECTOR, 7.3)
        log = self._run([app_a, app_b])
        for app in (app_a, app_b):
            acc = 0.0
            completions = 0
            for record in log.records:
                acc += record.committed[app.app_id]
                if acc == float(app.target_instructions):
                    completions += 1
                    acc = 0.0
            assert completions == 1
            assert acc == 0.0
            assert log.relaunches[app.app_id] == 0

    def test_fast_app_relaunches_conserving_each_launch(self):
        fast = static_app("fast", FE_VECTOR, 2.1)
        slow = static_app("slow", FE_VECTOR, 9.4)
        log = self._run([fast, slow])
        acc = 0.0
        completions = 0
        for record in log.records:
            acc += record.committed["fast"]
            if acc == float(fast.target_instructions):
                completions += 1
                acc = 0.0
        # Every completed launch hit its target exactly; the engine
        # counts all completions after the first as relaunches.
        assert completions >= 2
        assert log.relaunches["fast"] == completions - 1
        assert acc < fast.target_instructions
        assert log.relaunches["slow"] == 0
        assert log.first_completion["slow"] == log.total_quanta

    def test_migrations_count_new_pairs(self):
        # Phase-rotating apps under observation noise keep re-pairing.
        rng = np.random.default_rng(42)
        apps = [
            make_synthetic_app(f"{family[0]}{i}", family, rng, iso_quanta=25.0)
            for family in ("backend", "frontend")
            for i in range(4)
        ]
        log = self._run(apps, seed=3, noise=0.02)
        assert log.records[0].migrations == len(log.records[0].pairs)
        for previous, record in zip(log.records, log.records[1:]):
            assert record.migrations == len(set(record.pairs) - set(previous.pairs))
        assert sum(r.migrations for r in log.records[1:]) > len(log.records) // 4

    def test_static_policy_never_migrates_after_bootstrap(self):
        apps = [static_app(f"app{i}", BE_VECTOR if i % 2 else FE_VECTOR, 4.2)
                for i in range(6)]
        log = self._run(apps, policy="static")
        assert log.records[0].migrations == 3  # initial placement is all new
        for record in log.records[1:]:
            assert record.migrations == 0
        first_pairs = log.records[0].pairs
        for record in log.records:
            assert record.pairs == first_pairs

    def test_odd_roster_pairs_with_idle(self):
        apps = [static_app("a", BE_VECTOR, 4.2), static_app("b", FE_VECTOR, 4.2),
                static_app("c", FE_VECTOR, 4.2)]
        log = self._run(apps)
        for record in log.records:
            flat = [n for p in record.pairs for n in p]
            assert IDLE_NODE in flat
            assert sorted(n for n in flat if n != IDLE_NODE) == ["a", "b", "c"]

    def test_max_quanta_guard(self, monkeypatch):
        monkeypatch.setattr(engine, "MAX_QUANTA", 5)
        apps = [static_app("a", BE_VECTOR, 50.0), static_app("b", FE_VECTOR, 50.0)]
        workload = SimWorkload(apps=tuple(apps))
        with pytest.raises(ConfigError, match="MAX_QUANTA=5"):
            run(EngineConfig(workload=workload))

    def test_noise_never_speeds_up_turnaround(self):
        # Noise has no leverage on phase-free rosters (estimates converge
        # once and stay put), so use phase-rotating apps whose pairings
        # must be re-derived after every phase change: corrupted
        # observations then delay re-adaptation and real progress.
        rng = np.random.default_rng(42)
        apps = [
            make_synthetic_app(f"b{i}", "backend", rng, iso_quanta=25.0)
            for i in range(4)
        ] + [
            make_synthetic_app(f"f{i}", "frontend", rng, iso_quanta=25.0)
            for i in range(4)
        ]
        means = {}
        for sigma in (0.0, 0.02, 0.05):
            tts = []
            for seed in range(30):
                log = self._run(apps, seed=seed, noise=sigma)
                tts.append(max(log.first_completion.values()))
            means[sigma] = sum(tts) / len(tts)
        assert means[0.0] <= means[0.02]
        assert means[0.02] <= means[0.05]
        assert means[0.0] < means[0.05]

    def test_log_serialization_shape(self):
        log = self._run(
            [static_app("a", BE_VECTOR, 3.2), static_app("b", FE_VECTOR, 3.2)]
        )
        lines = log.to_jsonl().strip().split("\n")
        assert len(lines) == len(log.records) + 2
        header = json.loads(lines[0])
        assert header["kind"] == "schedule-log"
        assert header["version"] == 1
        assert header["policy"] == "synpa"
        assert header["apps"] == ["a", "b"]
        summary = json.loads(lines[-1])["summary"]
        assert summary["total_quanta"] == log.total_quanta
        assert set(summary["first_completion"]) == {"a", "b"}
        assert set(summary["iso_quanta"]) == {"a", "b"}
        assert summary["instructions"]["a"] == float(
            log.instructions["a"]
        )

    def test_iso_quanta_matches_app_arithmetic(self):
        app = static_app("a", BE_VECTOR, 5.5)
        log = self._run([app, static_app("b", FE_VECTOR, 5.5)])
        assert log.iso_quanta["a"] == pytest.approx(5.5, rel=1e-9)


class TestReplay:
    def _sim_log(self, seed=0):
        apps = [static_app("a", BE_VECTOR, 4.3), static_app("b", FE_VECTOR, 4.3),
                static_app("c", BE_VECTOR, 4.3), static_app("d", FE_VECTOR, 4.3)]
        workload = SimWorkload(apps=tuple(apps))
        return run(EngineConfig(workload=workload, seed=seed))

    def _trace_path(self, tmp_path, log):
        header, samples = trace_from_log(log)
        path = tmp_path / "run.trace"
        path.write_text(format_trace(header, samples), encoding="utf-8")
        return str(path)

    def test_replay_summary_semantics(self, tmp_path):
        sim = self._sim_log()
        path = self._trace_path(tmp_path, sim)
        log = run(EngineConfig(trace_path=path, policy="synpa", seed=1))
        assert log.mode == "replay"
        assert log.total_quanta == sim.total_quanta
        assert log.iso_quanta == {}
        assert log.relaunches == {a: 0 for a in sim.apps}
        # Every thread is present to the end of the trace.
        assert log.first_completion == {a: sim.total_quanta for a in sim.apps}
        # Replay progress is the trace's per-quantum speculative
        # instruction counts.
        for app in sim.apps:
            total = sum(r.committed[app] for r in log.records)
            assert total == log.instructions[app]

    def test_replay_observations_match_simulation(self, tmp_path):
        sim = self._sim_log()
        path = self._trace_path(tmp_path, sim)
        log = run(EngineConfig(trace_path=path, policy="static", seed=0))
        assert len(log.records) == len(sim.records)
        for sim_rec, rep_rec in zip(sim.records, log.records):
            for app, triple in sim_rec.observed.items():
                total = triple.total
                want = {n: triple.get(n) / total for n in CATEGORIES}
                got = rep_rec.observed[app]
                for name in CATEGORIES:
                    assert got.get(name) == pytest.approx(want[name], abs=1e-6)

    def test_replay_deterministic(self, tmp_path):
        sim = self._sim_log()
        path = self._trace_path(tmp_path, sim)
        log1 = run(EngineConfig(trace_path=path, seed=3))
        log2 = run(EngineConfig(trace_path=path, seed=3))
        assert log1.to_jsonl() == log2.to_jsonl()

    def test_departed_thread_repairs_assignment(self, tmp_path):
        header = TraceHeader(
            dispatch_width=4, quantum_ms=100.0, threads=("a", "b", "c", "d")
        )
        from conftest import counters_for_fractions

        samples = []
        for quantum in range(10):
            threads = ("a", "b", "c", "d") if quantum < 6 else ("a", "b", "c")
            for thread in threads:
                samples.append(
                    counters_for_fractions(quantum, thread, 0.2, 0.4, cycles=10**6)
                )
        path = tmp_path / "departed.trace"
        path.write_text(format_trace(header, samples), encoding="utf-8")

        log = run(EngineConfig(trace_path=str(path), policy="static", seed=0))
        assert log.total_quanta == 10
        assert log.first_completion["d"] == 6
        assert log.first_completion["a"] == 10
        # Static roster pairing is (a,b),(c,d); once d departs, c is
        # re-paired with the idle slot.
        assert log.records[5].pairs == (("a", "b"), ("c", "d"))
        for record in log.records[6:]:
            assert record.pairs == ((IDLE_NODE, "c"), ("a", "b"))
        # Migrations count pairs not in the previous record: (idle, c)
        # is new in quantum 7, the first without d.
        assert [r.migrations for r in log.records] == [2, 0, 0, 0, 0, 0, 1, 0, 0, 0]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_reserved_thread_id_rejected(self, tmp_path, policy):
        from conftest import counters_for_fractions

        threads = (IDLE_NODE, "a", "b")
        header = TraceHeader(dispatch_width=4, quantum_ms=100.0, threads=threads)
        samples = [
            counters_for_fractions(quantum, thread, 0.2, 0.4, cycles=10**6)
            for quantum in range(3)
            for thread in threads
        ]
        path = tmp_path / "reserved.trace"
        path.write_text(format_trace(header, samples), encoding="utf-8")
        with pytest.raises(TraceError, match="line 1: threads"):
            run(EngineConfig(trace_path=str(path), policy=policy))


def assert_pairs_cover_present(log):
    """Each record pairs every present thread once, idle only if odd, and
    counts as migrations the pairs not in the previous record."""
    previous = set()
    for record in log.records:
        members = [m for pair in record.pairs for m in pair]
        assert sorted(m for m in members if m != IDLE_NODE) == sorted(record.observed)
        assert members.count(IDLE_NODE) == len(record.observed) % 2
        assert record.migrations == len(set(record.pairs) - previous)
        previous = set(record.pairs)


def cut_to_spans(samples, spans):
    """Keep each thread's samples inside its (first, last) quantum span.

    Quanta left with no thread are dropped, since a trace has none.
    """
    kept = [s for s in samples
            if spans[s.thread_id][0] <= s.quantum_index <= spans[s.thread_id][1]]
    index = {q: k for k, q in enumerate(sorted({s.quantum_index for s in kept}))}
    return [dataclasses.replace(s, quantum_index=index[s.quantum_index]) for s in kept]


@st.composite
def small_workloads(draw):
    """1-9 short synthetic apps whose ids sort on both sides of the idle node."""
    names = st.text("aAzZ_09", min_size=1, max_size=3)
    ids = sorted(draw(st.sets(names, min_size=1, max_size=9)))
    families = draw(st.lists(st.sampled_from(["backend", "frontend", "other"]),
                             min_size=len(ids), max_size=len(ids)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    apps = tuple(
        make_synthetic_app(app_id, family, rng, iso_quanta=3.0)
        for app_id, family in zip(ids, families)
    )
    return SimWorkload(apps=apps, noise_sigma=draw(st.sampled_from([0.0, 0.02])))


class TestDecisionProperties:
    @settings(max_examples=40, deadline=None)
    @given(workload=small_workloads(), policy=st.sampled_from(POLICIES),
           seed=st.integers(0, 2**16), data=st.data())
    def test_pairs_cover_present_threads_and_runs_repeat(self, workload, policy, seed, data):
        config = EngineConfig(workload=workload, policy=policy, seed=seed)
        log = run(config)
        assert_pairs_cover_present(log)
        assert run(config).to_jsonl() == log.to_jsonl()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.trace")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(format_trace(*trace_from_log(log)))
            replay = EngineConfig(trace_path=path, policy=policy, seed=seed)
            replayed = run(replay)
            assert_pairs_cover_present(replayed)
            assert run(replay).to_jsonl() == replayed.to_jsonl()

            # Threads that arrive late and depart early, under every policy.
            header, samples = trace_from_log(log)
            last = log.total_quanta - 1
            spans = {}
            for thread in header.threads:
                first = data.draw(st.integers(0, last))
                spans[thread] = (first, data.draw(st.integers(first, last)))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(format_trace(header, cut_to_spans(samples, spans)))
            for cut_policy in POLICIES:
                cut = run(EngineConfig(trace_path=path, policy=cut_policy, seed=seed))
                assert_pairs_cover_present(cut)
