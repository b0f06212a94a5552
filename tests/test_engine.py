"""Tests for the engine: synthetic workloads, the per-quantum
simulation step (checked bit for bit against a pair-by-pair reference),
the run loop shared by simulation and trace replay
(checked against an exhaustive matching oracle), migration counts, and
determinism."""

import dataclasses
import itertools
import json
import math
import os
import tempfile
from collections import Counter
from fractions import Fraction
from unittest import mock

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
    CategoryTriple,
    CategoryVector,
    ConfigError,
    EngineConfig,
    ModelError,
    Phase,
    REFERENCE_COEFFICIENTS,
    ScheduleLog,
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
from synpa import engine, interference
from synpa.counters import sample_from_fractions
from synpa.dispatch import UNIFORM_VECTOR
from synpa.harness import make_synthetic_app

import reference_log
import reference_simulator
from conftest import coefficient_models, forward_models

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
            (*_, slowdown_a), (*_, slowdown_b) = predict_pair(model, vectors[a], vectors[b])
            total += slowdown_a + slowdown_b
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

    @settings(max_examples=200, deadline=None)
    @given(
        instructions=st.lists(st.integers(1, 2**70), min_size=1, max_size=4),
        target=st.integers(1, 2**80),
        cycles=st.integers(1, 10**9),
    )
    def test_isolated_quanta_is_the_exact_sum(self, instructions, target, cycles):
        vectors = itertools.cycle((BE_VECTOR, FE_VECTOR, CategoryVector(fe=0.2, be=0.3, fdc=0.5)))
        phases = tuple(Phase(vector=v, instructions=n) for v, n in zip(vectors, instructions))
        app = SyntheticApp(app_id="a", phases=phases, target_instructions=target)
        # Each phase runs its instructions once per whole cycle, plus its
        # overlap with the rest of the target, at its own isolated rate.
        whole, rest = divmod(target, sum(instructions))
        exact = Fraction(0)
        for phase, start in zip(phases, itertools.accumulate([0, *instructions])):
            ran = whole * phase.instructions + min(max(rest - start, 0), phase.instructions)
            exact += ran / Fraction(engine.isolated_rate(phase.vector, cycles))
        assert abs(Fraction(app.isolated_quanta(cycles)) - exact) <= Fraction(1e-15) * exact

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
        _, committed, slowdown, _ = sim_step(
            states, (("a", "b"),), REFERENCE_COEFFICIENTS, 0.0,
            np.random.default_rng(0), 1, QUANTUM_CYCLES,
        )
        assert slowdown["a"] == slowdown["b"]
        assert committed["a"] == committed["b"]
        (*_, want), _ = predict_pair(REFERENCE_COEFFICIENTS, BE_VECTOR, BE_VECTOR)
        assert slowdown["a"] == want
        assert committed["a"] == pytest.approx(rate_of(BE_VECTOR) / want, rel=1e-12)

    def test_observation_matches_ground_truth_forward(self):
        a = static_app("a", BE_VECTOR, 10.0)
        b = static_app("b", FE_VECTOR, 10.0)
        states = self._states(a, b)
        observed, _, _, _ = sim_step(
            states, (("a", "b"),), REFERENCE_COEFFICIENTS, 0.0,
            np.random.default_rng(0), 1, QUANTUM_CYCLES,
        )
        want_a, want_b = predict_pair(REFERENCE_COEFFICIENTS, BE_VECTOR, FE_VECTOR)
        for k, name in enumerate(CATEGORIES):
            assert observed["a"].get(name) == want_a[k]
            assert observed["b"].get(name) == want_b[k]

    def test_idle_partner_runs_at_isolated_speed(self):
        a = static_app("a", FE_VECTOR, 10.0)
        states = self._states(a)
        observed, committed, slowdown, completed = sim_step(
            states, ((IDLE_NODE, "a"),), REFERENCE_COEFFICIENTS, 0.0,
            np.random.default_rng(0), 1, QUANTUM_CYCLES,
        )
        assert slowdown == {"a": 1.0}
        assert committed == {"a": rate_of(FE_VECTOR)}
        assert completed == []
        for name in CATEGORIES:
            assert observed["a"].get(name) == FE_VECTOR.get(name)

    def test_noise_clamped_and_progress_noiseless(self):
        a = static_app("a", BE_VECTOR, 100.0)
        b = static_app("b", FE_VECTOR, 100.0)
        _, *clean = sim_step(
            self._states(a, b), (("a", "b"),), REFERENCE_COEFFICIENTS, 0.0,
            np.random.default_rng(7), 1, QUANTUM_CYCLES,
        )
        states = self._states(a, b)
        rng = np.random.default_rng(7)
        for quantum in range(1, 30):
            observed, *noisy = sim_step(
                states, (("a", "b"),), REFERENCE_COEFFICIENTS, 0.8,
                rng, quantum, QUANTUM_CYCLES,
            )
            for app_id in ("a", "b"):
                for name in CATEGORIES:
                    assert observed[app_id].get(name) >= 0.0
            assert noisy == clean  # committed, slowdowns and completions

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
        _, committed, _, completed = sim_step(
            states, ((IDLE_NODE, "a"),), REFERENCE_COEFFICIENTS, 0.0,
            rng, 1, QUANTUM_CYCLES,
        )
        assert completed == []
        assert committed["a"] == rate
        _, committed, _, completed = sim_step(
            states, ((IDLE_NODE, "a"),), REFERENCE_COEFFICIENTS, 0.0,
            rng, 2, QUANTUM_CYCLES,
        )
        # Only the remaining half quantum of work counts this quantum.
        assert completed == ["a"]
        assert committed["a"] == pytest.approx(rate * 0.5, rel=1e-12)
        state = states["a"]
        assert state.first_completion == 2
        assert state.launches == 2
        assert state.done == 0.0
        assert state.vector == vector

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
            states, ((IDLE_NODE, "a"),), REFERENCE_COEFFICIENTS, 0.0,
            np.random.default_rng(0), 1, QUANTUM_CYCLES,
        )
        # Exactly one phase budget of work was committed.
        assert states["a"].done == int(rate1)
        assert states["a"].vector == v2

    def test_zero_slowdown_is_a_model_error(self):
        # Every category clamps to 0: the pair would run infinitely fast.
        zero = interference.CategoryCoefficients(alpha=-1.0, beta=0.0, gamma=0.0, rho=0.0)
        model = interference.ModelCoefficients(fdc=zero, fe=zero, be=zero)
        vectors = (BE_VECTOR, FE_VECTOR, FE_VECTOR)
        states = self._states(*(static_app(a, v, 10.0) for a, v in zip("abc", vectors)))
        with pytest.raises(ModelError, match=r"zero slowdown for the pair \(a, b\)"):
            sim_step(states, ((IDLE_NODE, "c"), ("a", "b")), model, 0.0,
                     np.random.default_rng(0), 1, QUANTUM_CYCLES)
        assert all(s.done == 0.0 for s in states.values())

    def test_infinite_slowdown_is_a_model_error(self):
        # Each category finite and their sum not: such a ground truth is
        # refused where it is read, before any step could meet it.
        with pytest.raises(ModelError, match=r"^coefficient alpha must be within "):
            interference.CategoryCoefficients(alpha=1e308, beta=0.0, gamma=0.0, rho=0.0)

    def test_slowdowns_at_the_coefficient_bound_are_run(self):
        # The largest slowdown the model domain allows is finite, so the
        # pair advances by a sliver each quantum.
        top = interference.CategoryCoefficients(
            alpha=interference.MAX_COEFFICIENT, beta=0.0, gamma=0.0, rho=0.0
        )
        model = interference.ModelCoefficients(fdc=top, fe=top, be=top)
        states = self._states(static_app("a", BE_VECTOR, 10.0), static_app("b", FE_VECTOR, 10.0))
        _, _, slowdown, _ = sim_step(states, (("a", "b"),), model, 0.0,
                                     np.random.default_rng(0), 1, QUANTUM_CYCLES)
        assert slowdown["a"] == slowdown["b"] == 3e6 <= model.max_slowdown
        assert 0.0 < states["a"].done and 0.0 < states["b"].done

    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_one_noise_draw_is_the_scalar_stream(self, seed):
        # sim_step draws a quantum's noise at once; numpy must give the
        # same floats, and leave the same state, as one draw per value.
        for k in (0, 1, 3, 48, 999):
            batch, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = batch.standard_normal(k).tolist()
            want = [scalar.standard_normal() for _ in range(k)]
            assert [x.hex() for x in drawn] == [float(x).hex() for x in want]
            assert batch.bit_generator.state == scalar.bit_generator.state


def reference_walk(app, commits):
    """Step through the phases one at a time, as the engine did before
    its phase table; yields each commit's phase and launch position."""
    index, into, done = 0, 0.0, 0.0
    for amount in commits:
        completed = amount >= app.target_instructions - done
        if completed:
            amount = app.target_instructions - done
        left_to_walk = amount
        while left_to_walk > 1e-9:
            left = app.phases[index].instructions - into
            if left_to_walk < left - 1e-9:
                into += left_to_walk
                break
            left_to_walk -= left
            index = (index + 1) % len(app.phases)
            into = 0.0
        if completed:
            index, into, done = 0, 0.0, 0.0
        else:
            done += amount
        yield app.phases[index], done


class TestPhaseTable:
    @settings(max_examples=300, deadline=None)
    @given(
        instructions=st.lists(st.integers(1, 40), min_size=1, max_size=5),
        target=st.integers(1, 400),
        quarters=st.lists(st.integers(0, 240), max_size=30),
    )
    def test_agrees_with_a_step_by_step_walk(self, instructions, target, quarters):
        # Quarter-instruction commits keep both walks exact in floats.
        vectors = itertools.cycle((BE_VECTOR, FE_VECTOR))
        phases = tuple(Phase(vector=v, instructions=n) for v, n in zip(vectors, instructions))
        app = SyntheticApp(app_id="a", phases=phases, target_instructions=target)
        state = AppSimState(app=app)
        commits = [q / 4 for q in quarters]
        for quantum, (amount, (phase, done)) in enumerate(
            zip(commits, reference_walk(app, commits)), start=1
        ):
            state.commit(amount, quantum)
            assert state.done == done
            assert app.phase_at(state.done) is phase

    def test_phases_beyond_float_range(self):
        # The cycle total (2 * 10**308) is beyond float range; positions
        # inside the first cycle never divide by it.
        phases = (
            Phase(vector=BE_VECTOR, instructions=10**308),
            Phase(vector=FE_VECTOR, instructions=10**308),
        )
        app = SyntheticApp(app_id="a", phases=phases, target_instructions=10**9)
        assert app.phase_at(0.0) is phases[0]
        assert app.phase_at(1.5e308) is phases[1]
        assert app.isolated_quanta(QUANTUM_CYCLES) == 10**9 / rate_of(BE_VECTOR)


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


class TestEstimateStore:
    def test_decayed_estimates_follow_every_change(self):
        # Each effective estimate is built once and kept until the app's
        # estimate or age changes.
        store = engine._EstimateStore()
        uniform = engine.UNIFORM_VECTOR
        assert store.effective("a") is uniform
        store.update("a", BE_VECTOR)
        assert store.effective("a") is BE_VECTOR
        for age in (1, 2):
            store.mark_stale("a")
            w = engine.ESTIMATE_DECAY**age
            decayed = store.effective("a")
            assert decayed == CategoryVector(
                fe=w * BE_VECTOR.fe + (1.0 - w) * uniform.fe,
                be=w * BE_VECTOR.be + (1.0 - w) * uniform.be,
                fdc=w * BE_VECTOR.fdc + (1.0 - w) * uniform.fdc,
            )
            assert store.effective("a") is decayed
        store.update("a", FE_VECTOR)
        assert store.effective("a") is FE_VECTOR
        store.forget("a")
        assert store.effective("a") is uniform


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
        apps = [static_app("a", BE_VECTOR, 50.0), static_app("b", FE_VECTOR, 50.0)]
        workload = SimWorkload(apps=tuple(apps))
        # Lowered after the workload passed its own check, which rejects an
        # app that alone outlasts the limit.
        monkeypatch.setattr(engine, "MAX_QUANTA", 5)
        with pytest.raises(WorkloadError, match="5-quantum run limit"):
            SimWorkload(apps=tuple(apps))
        with pytest.raises(ConfigError, match="MAX_QUANTA=5"):
            run(EngineConfig(workload=workload))

    def test_run_limit_counts_the_largest_slowdown(self, monkeypatch):
        # 50 isolated quanta fit a 200-quantum limit alone, but not at the
        # reference model's max_slowdown of 4.587: the workload is refused
        # before any run.  A model never slower than isolation counts 1.
        apps = (static_app("a", BE_VECTOR, 50.0), static_app("b", FE_VECTOR, 50.0))
        monkeypatch.setattr(engine, "MAX_QUANTA", 200)
        with pytest.raises(WorkloadError, match=r"^app 'a' cannot finish within the "
                                                r"200-quantum run limit$"):
            SimWorkload(apps=apps)
        fast = interference.CategoryCoefficients(alpha=0.1, beta=0.0, gamma=0.0, rho=0.0)
        fast_model = interference.ModelCoefficients(fdc=fast, fe=fast, be=fast)
        assert fast_model.max_slowdown < 1.0
        SimWorkload(apps=apps, ground_truth=fast_model)
        monkeypatch.setattr(engine, "MAX_QUANTA", 230)  # 50 * 4.587 = 229.35
        SimWorkload(apps=apps)

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
        samples = []
        for quantum in range(10):
            threads = ("a", "b", "c", "d") if quantum < 6 else ("a", "b", "c")
            for thread in threads:
                samples.append(sample_from_fractions(
                    quantum, thread, fe=0.2, be=0.4, fdc=0.4, cycles=10**6, dispatch_width=4
                ))
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

    def test_degraded_inversion_keeps_the_aged_estimate(self, tmp_path):
        # One pair, "a" and "b", is in effect every quantum.  A frontend
        # fraction of 0.1 is below the frontend form's alpha (0.2376), so
        # no point of the unit square fits it: quanta 0, 2 and 3 have no
        # exact solution, while quantum 1's fractions invert exactly.
        fractions = [(0.1, 0.5, 0.4), (0.3, 0.4, 0.3), (0.1, 0.5, 0.4), (0.1, 0.5, 0.4)]
        samples = [
            sample_from_fractions(quantum, thread, fe=fe, be=be, fdc=fdc, cycles=10**6,
                                  dispatch_width=4)
            for quantum, (fe, be, fdc) in enumerate(fractions)
            for thread in ("a", "b")
        ]
        header = TraceHeader(dispatch_width=4, quantum_ms=100.0, threads=("a", "b"))
        path = tmp_path / "degraded.trace"
        path.write_text(format_trace(header, samples), encoding="utf-8")

        log = run(EngineConfig(trace_path=str(path), policy="synpa", seed=0))
        records = log.records
        assert [r.pairs for r in records] == [(("a", "b"),)] * 4
        assert [r.degraded for r in records] == [
            {"a": deg, "b": deg} for deg in (True, False, True, True)
        ]
        lines = log.to_jsonl().splitlines()[1:-1]
        assert [json.loads(line)["degraded"] for line in lines] == [r.degraded for r in records]
        good = interference.invert(
            REFERENCE_COEFFICIENTS, records[1].observed["a"], records[1].observed["b"])
        # Before any good estimate, both threads hold the uniform prior;
        # after one, the last good estimate blended toward that prior.
        assert records[0].estimates == {"a": UNIFORM_VECTOR, "b": UNIFORM_VECTOR}
        assert records[1].estimates == {"a": good.st_i, "b": good.st_j}
        for record, age in ((records[2], 1), (records[3], 2)):
            w = engine.ESTIMATE_DECAY**age
            assert record.estimates == {
                app: CategoryVector(**{n: w * vec.get(n) + (1.0 - w) * UNIFORM_VECTOR.get(n)
                                       for n in CATEGORIES})
                for app, vec in (("a", good.st_i), ("b", good.st_j))
            }

    @pytest.mark.parametrize("policy", POLICIES)
    def test_logged_slowdowns_are_the_model_predictions(self, tmp_path, policy):
        # Five threads (one sits with the idle node), "e" joins at the
        # fourth quantum, and the fractions vary so that some inversions
        # degrade and some do not.
        threads = ("a", "b", "c", "d", "e")
        rng = np.random.default_rng(11)
        samples = []
        for quantum in range(12):
            for thread in threads[:4] if quantum < 3 else threads:
                fe, fdc = rng.uniform(0.05, 0.45), rng.uniform(0.1, 0.5)
                samples.append(sample_from_fractions(
                    quantum, thread, fe=fe, be=1 - fe - fdc, fdc=fdc, cycles=10**6,
                    dispatch_width=4,
                ))
        header = TraceHeader(dispatch_width=4, quantum_ms=100.0, threads=threads)
        path = tmp_path / "late.trace"
        path.write_text(format_trace(header, samples), encoding="utf-8")

        log = run(EngineConfig(trace_path=str(path), policy=policy, seed=2))
        assert [len(r.observed) for r in log.records] == [4] * 3 + [5] * 9
        degraded = [v for r in log.records for v in r.degraded.values()]
        if policy == "synpa":
            assert any(degraded) and not all(degraded)
        for record in log.records:
            assert set(record.slowdown) == set(record.observed)
            # The estimates in effect: the fresh ones under synpa, the
            # uniform prior under the policies that never invert.
            effective = {a: record.estimates.get(a, UNIFORM_VECTOR) for a in record.observed}
            for a, b in record.pairs:
                if IDLE_NODE in (a, b):
                    assert record.slowdown[b if a == IDLE_NODE else a] == 1.0
                    continue
                (*_, slowdown_a), (*_, slowdown_b) = predict_pair(
                    REFERENCE_COEFFICIENTS, effective[a], effective[b])
                assert record.slowdown[a] == slowdown_a
                assert record.slowdown[b] == slowdown_b
        assert any(IDLE_NODE in p for p in log.records[-1].pairs)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_reserved_thread_id_rejected(self, tmp_path, policy):
        threads = (IDLE_NODE, "a", "b")
        header = TraceHeader(dispatch_width=4, quantum_ms=100.0, threads=threads)
        samples = [
            sample_from_fractions(
                quantum, thread, fe=0.2, be=0.4, fdc=0.4, cycles=10**6, dispatch_width=4
            )
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


def cut_to_random_spans(data, log, samples):
    """Keep each thread's samples of ``log``'s trace inside a drawn
    (first, last) quantum span.

    Quanta left with no thread are dropped, since a trace has none.
    """
    last = log.total_quanta - 1
    spans = {}
    for thread in log.apps:
        first = data.draw(st.integers(0, last))
        spans[thread] = (first, data.draw(st.integers(first, last)))
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
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(format_trace(header, cut_to_random_spans(data, log, samples)))
            for cut_policy in POLICIES:
                cut = run(EngineConfig(trace_path=path, policy=cut_policy, seed=seed))
                assert_pairs_cover_present(cut)


def assert_sorted_pairs(pairs):
    """``pairs`` is a sorted tuple of sorted pairs."""
    assert type(pairs) is tuple and list(pairs) == sorted(pairs)
    assert all(type(p) is tuple and len(p) == 2 and p[0] < p[1] for p in pairs)


class TestPairsInEffect:
    """The run loop hands the simulator's step and the inversion the pairs
    in effect as one sorted tuple of sorted pairs, which both walk as
    given, and logs that tuple."""

    @settings(max_examples=30, deadline=None)
    @given(workload=small_workloads(), seed=st.integers(0, 2**16), data=st.data())
    def test_every_quantum_walks_one_sorted_tuple_of_sorted_pairs(self, workload, seed, data):
        handed = []
        step, update = engine.sim_step, engine._update_estimates

        def sim_step(states, pairs, *args):
            handed.append(pairs)
            return step(states, pairs, *args)

        def update_estimates(pairs, *args):
            handed.append(pairs)
            return update(pairs, *args)

        logs = []
        with mock.patch.object(engine, "sim_step", sim_step), \
                mock.patch.object(engine, "_update_estimates", update_estimates), \
                tempfile.TemporaryDirectory() as tmp:
            for policy in POLICIES:
                log = run(EngineConfig(workload=workload, policy=policy, seed=seed))
                header, samples = trace_from_log(log)
                # The whole trace, each thread cut to a random span, and the
                # last thread arriving one quantum late.
                late = [s for s in samples if (s.thread_id, s.quantum_index) != (log.apps[-1], 0)]
                cuts = [samples, cut_to_random_spans(data, log, samples)]
                if len(log.apps) > 1 and log.total_quanta > 1:
                    cuts.append(late)
                logs.append(log)
                for k, rows in enumerate(cuts):
                    path = os.path.join(tmp, f"{policy}-{k}.trace")
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(format_trace(header, rows))
                    for replay_policy in POLICIES:
                        logs.append(run(EngineConfig(trace_path=path, policy=replay_policy, seed=seed)))
        assert handed
        for pairs in handed:
            assert_sorted_pairs(pairs)
        for log in logs:
            assert_pairs_cover_present(log)
            for record in log.records:
                assert_sorted_pairs(record.pairs)


class TestLogWriterOracle:
    """``ScheduleLog.to_jsonl`` against today's writer written record dict by
    record dict (``tests/reference_log.py``): the same bytes."""

    @settings(max_examples=40, deadline=None)
    @given(workload=small_workloads(), policy=st.sampled_from(POLICIES),
           seed=st.integers(0, 2**16), data=st.data())
    def test_log_equals_the_reference(self, workload, policy, seed, data):
        log = run(EngineConfig(workload=workload, policy=policy, seed=seed))
        assert log.to_jsonl() == reference_log.to_jsonl(log)
        # Replays of the exported trace, whole and with each thread cut to
        # a random span, so that the roster changes as threads come and go.
        header, samples = trace_from_log(log)
        with tempfile.TemporaryDirectory() as tmp:
            for name, rows in (("whole", samples), ("cut", cut_to_random_spans(data, log, samples))):
                path = os.path.join(tmp, name + ".trace")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(format_trace(header, rows))
                for replay_policy in POLICIES:
                    replayed = run(EngineConfig(trace_path=path, policy=replay_policy, seed=seed))
                    assert replayed.to_jsonl() == reference_log.to_jsonl(replayed)

    @staticmethod
    def _log(records, apps):
        return ScheduleLog(
            policy="synpa", seed=0, quantum_ms=100.0, dispatch_width=WIDTH,
            cycles_per_quantum=QUANTUM_CYCLES, noise_sigma=0.0, apps=apps,
            records=tuple(records), first_completion={a: 1 for a in apps},
            relaunches={a: 0 for a in apps}, iso_quanta={}, instructions={a: 1.0 for a in apps},
            total_quanta=len(records),
        )

    @staticmethod
    def _record(quantum, pairs, values, estimates=True):
        """A record whose every float of app ``a`` is ``values[a]``."""
        triples = {a: CategoryTriple(fe=v, be=v, fdc=v) for a, v in values.items()}
        return engine.QuantumRecord(
            quantum=quantum, pairs=pairs, observed=triples,
            estimates=dict(reversed(triples.items())) if estimates else {},
            degraded={a: v > 1.0 for a, v in values.items()} if estimates else {},
            committed=dict(values), slowdown=dict(values), migrations=len(pairs),
        )

    def test_escaped_ids_and_float_extremes(self):
        # Ids that JSON escapes or that a %-template would read as a
        # conversion, and floats whose repr is the shortest round trip.
        apps = ('q"uote', "back\\slash", "é", "日本", "50%", "%d%%", "%(x)s")
        floats = (-0.0, 5e-324, 1e16, 1e-05, 0.1 + 0.2, 7.0)
        values = dict(zip(apps, floats + (1e300,)))
        pairs = ((apps[0], apps[1]), (apps[2], apps[3]), (apps[4], apps[5]), (IDLE_NODE, apps[6]))
        log = self._log([self._record(1, pairs, values), self._record(2, pairs[:1], values)], apps)
        text = log.to_jsonl()
        assert text == reference_log.to_jsonl(log)
        assert '"\\u65e5\\u672c"' in text and '"50%"' in text

    def test_empty_estimates_and_a_roster_that_changes(self):
        # Records without estimates (the random and static policies) and a
        # roster that shrinks and grows again between records.
        a, b, c = "a", "b", "c"
        records = [
            self._record(1, ((a, b), (IDLE_NODE, c)), {a: 0.5, b: 1.5, c: 2.5}, estimates=False),
            self._record(2, ((a, c),), {a: 0.25, c: 3.0}),
            self._record(3, ((a, b), (IDLE_NODE, c)), {a: 0.5, b: 1.5, c: 2.5}),
            self._record(4, ((a, b), (IDLE_NODE, c)), {a: 1.0, b: 2.0, c: 4.0}, estimates=False),
        ]
        log = self._log(records, (a, b, c))
        assert log.to_jsonl() == reference_log.to_jsonl(log)
        assert '"estimates": {}' in log.to_jsonl().splitlines()[1]


@st.composite
def phase_vectors(draw):
    """Category vectors with ``fdc > 0`` whose other entries may be zeros of
    either sign."""
    part = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0]))
    fdc, fe, be = draw(st.floats(1e-3, 1.0)), draw(part), draw(part)
    total = fdc + fe + be
    return CategoryVector(fe=fe / total, be=be / total, fdc=fdc / total)


@st.composite
def sim_step_cases(draw):
    """Apps with random phase tables part way through a launch, and a
    random pairing of them, with the idle node when their count is odd,
    as the run loop hands it over: a sorted tuple of sorted pairs."""
    names = st.text("aAzZ_09", min_size=1, max_size=3)
    ids = draw(st.lists(names, min_size=1, max_size=9, unique=True))
    apps = []
    for app_id in ids:
        phases = tuple(
            Phase(vector=draw(phase_vectors()), instructions=draw(st.integers(1, 10**10)))
            for _ in range(draw(st.integers(1, 4)))
        )
        apps.append((SyntheticApp(app_id=app_id, phases=phases,
                                  target_instructions=draw(st.integers(1, 10**11))),
                     draw(st.floats(0.0, 1.0, exclude_max=True))))
    order = draw(st.permutations([*ids, IDLE_NODE] if len(ids) % 2 else ids))
    return apps, tuple(sorted(tuple(sorted(order[k : k + 2])) for k in range(0, len(order), 2)))


def step_outcome(step, states, *args):
    """A step's results and the states after it, or the error it raised."""
    try:
        results = step(states, *args)
    except (ModelError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    progress = [(s.done, s.launches, s.first_completion) for s in states.values()]
    return repr(results), repr(progress)


class TestSimulatorOracle:
    """``sim_step`` against today's step written pair by pair
    (``tests/reference_simulator.py``): the same floats, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=sim_step_cases(),
           model=st.one_of(st.just(REFERENCE_COEFFICIENTS), coefficient_models(), forward_models()),
           noise=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
           seed=st.integers(0, 2**64 - 1), cycles=st.integers(1, 10**9),
           quanta=st.integers(1, 3))
    def test_step_equals_the_reference(self, case, model, noise, seed, cycles, quanta):
        apps, pairs = case
        states = {a.app_id: AppSimState(app=a, done=f * a.target_instructions) for a, f in apps}
        oracle = {a: dataclasses.replace(s) for a, s in states.items()}
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for quantum in range(1, quanta + 1):
            got = step_outcome(sim_step, states, pairs, model, noise, rng, quantum, cycles)
            want = step_outcome(reference_simulator.sim_step, oracle, pairs, model, noise,
                                oracle_rng, quantum, cycles)
            if want[0] is ZeroDivisionError:
                # The reference divides by the zero slowdown; the step names the pair.
                assert got[0] is ModelError and "zero slowdown for the pair" in got[1]
                return
            assert got == want
            if want[0] is ModelError:
                return
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestForwardOncePerQuantum:
    """The model's view of a quantum is built once: one category matrix of
    the estimates and one forward matrix, which the log and the decision
    share."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()
        for module in (interference, engine):
            for name in ("category_matrix", "co_run_slowdowns"):

                def counted(*args, _name=name, _original=getattr(module, name)):
                    counts[_name] += 1
                    return _original(*args)

                monkeypatch.setattr(module, name, counted)
        return counts

    def _workload(self):
        return SimWorkload(apps=tuple(
            static_app(app_id, vector, 4.3)
            for app_id, vector in zip("abcde", (BE_VECTOR, FE_VECTOR) * 3)
        ), noise_sigma=0.02)

    @pytest.mark.parametrize("policy, per_quantum", [("synpa", 1), ("random", 0), ("static", 0)])
    def test_simulate(self, counts, policy, per_quantum):
        log = run(EngineConfig(workload=self._workload(), policy=policy, seed=1))
        want = per_quantum * log.total_quanta
        assert log.total_quanta > 1
        assert counts["category_matrix"] == counts["co_run_slowdowns"] == want

    @pytest.mark.parametrize("policy", POLICIES)
    def test_replay(self, counts, tmp_path, policy):
        sim = run(EngineConfig(workload=self._workload(), seed=1))
        path = tmp_path / "run.trace"
        path.write_text(format_trace(*trace_from_log(sim)), encoding="utf-8")
        counts.clear()
        log = run(EngineConfig(trace_path=str(path), policy=policy, seed=1))
        assert counts["category_matrix"] == counts["co_run_slowdowns"] == log.total_quanta


class TestPairKernelSeam:
    """The simulator evaluates its pairs through the name
    ``synpa.engine.predict_pair``, where the benchmark's tracer times the
    pair kernel: once per co-running pair per quantum, never for the idle
    node's pair or in replay, and a wrapper there moves no byte of the log."""

    @pytest.mark.parametrize("size, pairs", [(8, 4), (15, 7)])
    def test_calls_per_quantum(self, monkeypatch, tmp_path, size, pairs):
        config = EngineConfig(workload=SimWorkload(apps=tuple(
            static_app(f"a{k:02d}", (BE_VECTOR, FE_VECTOR)[k % 2], 4.3) for k in range(size)
        ), noise_sigma=0.02), seed=1)
        plain = run(config)
        path = tmp_path / "run.trace"
        path.write_text(format_trace(*trace_from_log(plain)), encoding="utf-8")
        replay = run(EngineConfig(trace_path=str(path), seed=1)).to_jsonl()
        calls = Counter()

        def counted(*args, _original=engine.predict_pair):
            calls["predict_pair"] += 1
            return _original(*args)

        monkeypatch.setattr(engine, "predict_pair", counted)
        wrapped = run(config)
        assert wrapped.total_quanta > 1
        assert calls["predict_pair"] == pairs * wrapped.total_quanta
        assert wrapped.to_jsonl() == plain.to_jsonl()
        calls.clear()
        assert run(EngineConfig(trace_path=str(path), seed=1)).to_jsonl() == replay
        assert calls["predict_pair"] == 0
