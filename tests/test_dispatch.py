"""Cycle-breakdown characterization, normalization, classification."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synpa import (
    AppClass,
    CategoryBreakdown,
    CategoryTriple,
    CategoryVector,
    DegenerateSampleError,
    ModelError,
    RawCounterSample,
    characterize,
    classify,
    normalize,
)


def sample(cycles, inst, fe, be, q=0, t="t0"):
    return RawCounterSample(
        quantum_index=q,
        thread_id=t,
        cpu_cycles=cycles,
        inst_spec=inst,
        stall_frontend=fe,
        stall_backend=be,
    )


class TestCharacterize:
    def test_worked_example_with_revealed_stalls(self):
        # cycles=1000, inst=1200, fe=200, be=300, width=4:
        # dispatch cycles 1000-200-300=500; full-dispatch 1200/4=300;
        # revealed 500-300=200 -> fe=200, be=300+200=500, fdc=300.
        b = characterize(sample(1000, 1200, 200, 300), 4)
        assert (b.fe_units, b.be_units, b.fdc_units) == (800, 2000, 1200)
        assert b.reveal_units == 800
        assert b.total_cycles == 1000
        assert not b.clamped

    def test_ideal_full_dispatch(self):
        b = characterize(sample(1000, 4000, 0, 0), 4)
        assert (b.fe_units, b.be_units, b.fdc_units) == (0, 0, 4000)
        assert b.reveal_units == 0

    def test_fully_stalled(self):
        b = characterize(sample(1000, 0, 400, 600), 4)
        assert (b.fe_units, b.be_units, b.fdc_units) == (1600, 2400, 0)
        assert b.reveal_units == 0

    def test_zero_cycles_is_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            characterize(sample(0, 0, 0, 0), 4)

    def test_width_below_one_rejected(self):
        with pytest.raises(ModelError):
            characterize(sample(1000, 100, 0, 0), 0)

    def test_stalls_exceeding_cycles_clamp_and_flag(self):
        b = characterize(sample(1000, 0, 800, 900), 4)
        assert b.clamped
        assert b.fe_units + b.be_units + b.fdc_units == 4000

    def test_inst_exceeding_dispatch_capacity_clamps_and_flags(self):
        # 500 dispatch cycles can hold at most 2000 slot units at width 4.
        b = characterize(sample(1000, 99999, 200, 300), 4)
        assert b.clamped
        assert b.fdc_units == 2000  # all dispatch cycles, no revealed stalls
        assert b.fe_units + b.be_units + b.fdc_units == 4000

    def test_partition_identity_randomized(self):
        rng = random.Random(1234)
        for _ in range(2000):
            cycles = rng.randrange(1, 10**7)
            s = sample(
                cycles,
                rng.randrange(0, 8 * cycles),
                rng.randrange(0, 2 * cycles),
                rng.randrange(0, 2 * cycles),
            )
            width = rng.choice((1, 2, 4, 8))
            b = characterize(s, width)
            assert b.fe_units + b.be_units + b.fdc_units == cycles * width
            assert b.fe_units >= 0 and b.be_units >= 0 and b.fdc_units >= 0

    @settings(max_examples=500, deadline=None)
    @given(
        cycles=st.integers(1, 10**12),
        inst=st.integers(0, 10**13),
        fe=st.integers(0, 10**12),
        be=st.integers(0, 10**12),
        width=st.integers(1, 8),
    )
    def test_partition_property(self, cycles, inst, fe, be, width):
        b = characterize(sample(cycles, inst, fe, be), width)
        assert b.fe_units + b.be_units + b.fdc_units == cycles * width
        assert min(b.fe_units, b.be_units, b.fdc_units, b.reveal_units) >= 0
        dispatch_cycles = max(0, cycles - fe - be)
        assert b.clamped == (fe + be > cycles or inst > dispatch_cycles * width)

    @given(inst=st.integers(0, 10**6), fe=st.integers(0, 10**6), be=st.integers(0, 10**6),
           width=st.integers(1, 8))
    def test_zero_cycles_property(self, inst, fe, be, width):
        with pytest.raises(DegenerateSampleError):
            characterize(sample(0, inst, fe, be), width)

    def test_more_instructions_never_increase_backend_attribution(self):
        rng = random.Random(99)
        for _ in range(500):
            cycles = rng.randrange(1000, 100000)
            fe = rng.randrange(0, cycles // 2)
            be = rng.randrange(0, cycles // 2)
            inst = rng.randrange(0, 4 * cycles)
            b1 = characterize(sample(cycles, inst, fe, be), 4)
            b2 = characterize(sample(cycles, inst + rng.randrange(1, 1000), fe, be), 4)
            assert b2.be_units <= b1.be_units

    def test_scale_invariance(self):
        rng = random.Random(7)
        for _ in range(200):
            cycles = rng.randrange(100, 10000)
            inst = rng.randrange(0, 4 * cycles)
            fe = rng.randrange(0, cycles)
            be = rng.randrange(0, cycles - fe)
            k = rng.choice((2, 3, 10))
            b1 = characterize(sample(cycles, inst, fe, be), 4)
            b2 = characterize(sample(k * cycles, k * inst, k * fe, k * be), 4)
            assert b2.fe_units == k * b1.fe_units
            assert b2.be_units == k * b1.be_units
            assert b2.fdc_units == k * b1.fdc_units
            assert normalize(b1) == normalize(b2)


class TestNormalize:
    def test_worked_example(self):
        v = normalize(characterize(sample(1000, 1200, 200, 300), 4))
        assert (v.fe, v.be, v.fdc) == (0.2, 0.5, 0.3)

    def test_pure_dispatch(self):
        v = normalize(characterize(sample(1000, 4000, 0, 0), 4))
        assert (v.fe, v.be, v.fdc) == (0.0, 0.0, 1.0)

    def test_pure_frontend(self):
        v = normalize(characterize(sample(1000, 0, 1000, 0), 4))
        assert (v.fe, v.be, v.fdc) == (1.0, 0.0, 0.0)

    def test_sum_is_one_within_tolerance_randomized(self):
        rng = random.Random(55)
        for _ in range(2000):
            cycles = rng.randrange(1, 10**6)
            s = sample(
                cycles,
                rng.randrange(0, 8 * cycles),
                rng.randrange(0, 2 * cycles),
                rng.randrange(0, 2 * cycles),
            )
            v = normalize(characterize(s, rng.choice((1, 2, 4, 8))))
            assert abs(v.fe + v.be + v.fdc - 1.0) <= 1e-9


class TestVectors:
    def test_vector_validates_range(self):
        with pytest.raises(Exception):
            CategoryVector(fe=0.7, be=0.7, fdc=0.7)
        with pytest.raises(Exception):
            CategoryVector(fe=-0.1, be=0.6, fdc=0.5)

    def test_triple_allows_values_above_one(self):
        t = CategoryTriple(fe=0.4, be=0.9, fdc=0.3)
        assert t.total == pytest.approx(1.6)


class TestClassify:
    def test_backend_bound(self):
        assert classify(CategoryVector(fe=0.10, be=0.70, fdc=0.20)) is AppClass.BACKEND_BOUND

    def test_frontend_bound(self):
        assert classify(CategoryVector(fe=0.40, be=0.30, fdc=0.30)) is AppClass.FRONTEND_BOUND

    def test_other(self):
        assert classify(CategoryVector(fe=0.20, be=0.30, fdc=0.50)) is AppClass.OTHER

    def test_backend_threshold_is_exclusive(self):
        assert classify(CategoryVector(fe=0.10, be=0.65, fdc=0.25)) is AppClass.OTHER

    def test_frontend_threshold_is_exclusive(self):
        assert classify(CategoryVector(fe=0.35, be=0.30, fdc=0.35)) is AppClass.OTHER

    def test_backend_tested_before_frontend(self):
        # A normalized vector can never satisfy both thresholds at once
        # (0.65 + 0.35 = 1), so the fixed precedence only shows at the
        # backend boundary: any be above 0.65 wins regardless of fe.
        v = CategoryVector(fe=0.34, be=0.66, fdc=0.0)
        assert classify(v) is AppClass.BACKEND_BOUND
