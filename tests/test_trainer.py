"""Tests for reading profile files, instruction-count alignment, and the
per-category least-squares fit: synthetic-data oracles with known
coefficients, alignment arithmetic on constructed progress curves, and
noise-response checks."""

import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synpa import (
    CATEGORIES,
    AlignedSample,
    AlignmentError,
    CategoryTriple,
    CategoryVector,
    FitError,
    ProfileRecord,
    RankDeficientError,
    REFERENCE_COEFFICIENTS,
    TraceError,
    align,
    aligned_samples,
    evaluate,
    fit,
)
from synpa.trainer import AlignmentResult
from synpa.counters import sample_from_fractions
from conftest import CORPUS_APPS, CORPUS_PAIRS

UNIFORM = CategoryVector(fe=1.0 / 3.0, be=1.0 / 3.0, fdc=1.0 / 3.0)

# Ground truth for noisy-data tests: large intercepts keep every
# generated observation positive even under broad Gaussian noise (the
# observation type rejects negative category values).
NOISE_MODEL = None  # initialized below


def _make_noise_model():
    from synpa import CategoryCoefficients, ModelCoefficients

    return ModelCoefficients(
        fdc=CategoryCoefficients(alpha=0.50, beta=0.90, gamma=0.10, rho=0.05),
        fe=CategoryCoefficients(alpha=0.60, beta=1.40, gamma=0.05, rho=0.0),
        be=CategoryCoefficients(alpha=0.55, beta=0.35, gamma=1.40, rho=0.02),
        provenance="noise-test",
    )


NOISE_MODEL = _make_noise_model()


def vector(fe, be, fdc):
    return CategoryVector(fe=fe, be=be, fdc=fdc)


def varying_records(vecs, committed):
    return tuple(ProfileRecord(vector=v, committed=c) for v, c in zip(vecs, committed))


def constant_records(vec, committed_per_quantum, n):
    return varying_records([vec] * n, [committed_per_quantum] * n)


PROFILE_COLUMNS = (
    "quantum,thread,cpu_cycles,inst_spec,stall_frontend,stall_backend,committed_instructions"
)


def profile_file(tmp_path, name, mode, threads, rows):
    """A profile file of ``mode`` for ``threads`` whose rows are
    ``(quantum, thread, committed)``; every row has the same counters."""
    header = json.dumps({"dispatch_width": 4, "mode": mode, "quantum_ms": 100.0,
                         "threads": list(threads), "version": 1})
    lines = [header, PROFILE_COLUMNS]
    lines += [f"{q},{t},1000,400,200,300,{c}" for q, t, c in rows]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def isolated_file(tmp_path, app, committed):
    rows = [(q, app, c) for q, c in enumerate(committed)]
    return profile_file(tmp_path, f"iso-{app}.profile", "isolated", [app], rows)


def paired_file(tmp_path, a, b, committed_a, committed_b):
    rows = [(q, t, c) for q, pair in enumerate(zip(committed_a, committed_b))
            for t, c in zip((a, b), pair)]
    return profile_file(tmp_path, f"pair-{a}-{b}.profile", "paired", [a, b], rows)


def affine(coeffs, ci, cj):
    """The unclamped regression form, evaluated independently."""
    return coeffs.alpha + coeffs.beta * ci + coeffs.gamma * cj + coeffs.rho * ci * cj


def random_unit_vector(rng):
    parts = [rng.uniform(0.05, 1.0) for _ in range(3)]
    total = sum(parts)
    return vector(parts[0] / total, parts[1] / total, parts[2] / total)


def synthetic_samples(model, n, seed, noise_sigma=0.0, noise_scale=None):
    """Aligned samples generated exactly from ``model``; optional additive
    Gaussian noise on the observed values (per-category scale override)."""
    rng = random.Random(seed)
    noise = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        st_i = random_unit_vector(rng)
        st_j = random_unit_vector(rng)
        vals_ij = {}
        vals_ji = {}
        for name in CATEGORIES:
            coeffs = model.category(name)
            sigma = noise_sigma if noise_scale is None else noise_scale[name]
            vals_ij[name] = affine(coeffs, st_i.get(name), st_j.get(name))
            vals_ji[name] = affine(coeffs, st_j.get(name), st_i.get(name))
            if sigma:
                vals_ij[name] += sigma * noise.standard_normal()
                vals_ji[name] += sigma * noise.standard_normal()
        samples.append(
            AlignedSample(
                st_i=st_i,
                st_j=st_j,
                smt_ij=CategoryTriple(**vals_ij),
                smt_ji=CategoryTriple(**vals_ji),
                slowdown_i=sum(vals_ij.values()),
                slowdown_j=sum(vals_ji.values()),
            )
        )
    return samples


def max_coefficient_error(got, want):
    worst = 0.0
    for name in CATEGORIES:
        g = got.category(name)
        w = want.category(name)
        for field in ("alpha", "beta", "gamma", "rho"):
            worst = max(worst, abs(getattr(g, field) - getattr(w, field)))
    return worst


class TestProfileType:
    """The rules a profile file's records follow."""

    def test_cumulative_counts(self):
        # Isolated cumulative counts 100, 350, 400: co-run progress 100,
        # 200, 300, 400 lands in isolated quanta 0, 1, 1, 2.
        iso_i = varying_records([UNIFORM] * 3, [100, 250, 50])
        iso_j = constant_records(UNIFORM, 100, 4)
        paired = constant_records(UNIFORM, 100, 4)
        result = align(iso_i, iso_j, paired, paired)
        assert [s.slowdown_i for s in result.samples] == [1.0, 2.5, 2.5, 0.5]
        assert result.dropped == 0

    def test_zero_committed_rejected(self, tmp_path):
        path = isolated_file(tmp_path, "a", [400, 0, 400])
        with pytest.raises(TraceError, match=r"^profile 'a' quantum 1: committed count must be >= 1"):
            aligned_samples([path])

    def test_empty_profile_rejected(self, tmp_path):
        path = isolated_file(tmp_path, "a", [])
        with pytest.raises(TraceError, match=r"^profile for 'a' has no records$"):
            aligned_samples([path])


#: A distinct category vector per quantum index.
INDEXED = [vector(0.01 * (k + 1), 0.5, 0.5 - 0.01 * (k + 1)) for k in range(12)]


def oracle_align(iso_i, iso_j, paired_i, paired_j):
    """Alignment by its definition: co-run quantum ``k`` of each app takes
    the first isolated quantum whose cumulative committed count reaches
    the co-run cumulative count at ``k``; quanta past either isolated run
    drop; slowdowns are the isolated over the co-run count, and they
    scale the observed vectors."""
    samples, dropped = [], 0
    for k in range(len(paired_i)):
        picks = []
        for iso, paired in ((iso_i, paired_i), (iso_j, paired_j)):
            target = sum(r.committed for r in paired[:k + 1])
            reach = [q for q in range(len(iso))
                     if sum(r.committed for r in iso[:q + 1]) >= target]
            picks.append(reach[0] if reach else None)
        if None in picks:
            dropped += 1
            continue
        qi, qj = picks
        slow_i = iso_i[qi].committed / paired_i[k].committed
        slow_j = iso_j[qj].committed / paired_j[k].committed
        seen_i, seen_j = paired_i[k].vector, paired_j[k].vector
        samples.append(AlignedSample(
            st_i=iso_i[qi].vector, st_j=iso_j[qj].vector,
            smt_ij=CategoryTriple(fe=seen_i.fe * slow_i, be=seen_i.be * slow_i,
                                  fdc=seen_i.fdc * slow_i),
            smt_ji=CategoryTriple(fe=seen_j.fe * slow_j, be=seen_j.be * slow_j,
                                  fdc=seen_j.fdc * slow_j),
            slowdown_i=slow_i, slowdown_j=slow_j,
        ))
    return AlignmentResult(samples=tuple(samples), dropped=dropped)


class TestAlign:
    def test_identity_alignment(self):
        # Identical progress: co-run quantum k draws its regressors from
        # isolated quantum k, at slowdown 1.
        vecs = [vector(0.1 + 0.05 * k, 0.5 - 0.05 * k, 0.4) for k in range(8)]
        iso_i = varying_records(vecs, [100] * 8)
        iso_j = constant_records(UNIFORM, 100, 8)
        paired_i = varying_records(vecs, [100] * 8)
        paired_j = constant_records(UNIFORM, 100, 8)
        result = align(iso_i, iso_j, paired_i, paired_j)
        assert result.dropped == 0
        assert len(result.samples) == 8
        for k, sample in enumerate(result.samples):
            assert sample.st_i == vecs[k]
            assert sample.slowdown_i == 1.0
            assert sample.slowdown_j == 1.0

    def test_half_speed_alignment(self):
        # Co-run progress at half the isolated rate: co-run quantum k
        # (1-based) lands in isolated quantum ceil(k / 2).
        vecs = [vector(0.05 + 0.02 * k, 0.6, 0.35 - 0.02 * k) for k in range(10)]
        iso_i = varying_records(vecs, [100] * 10)
        iso_j = constant_records(UNIFORM, 100, 10)
        paired_i = constant_records(UNIFORM, 50, 20)
        paired_j = constant_records(UNIFORM, 50, 20)
        result = align(iso_i, iso_j, paired_i, paired_j)
        assert result.dropped == 0
        assert len(result.samples) == 20
        for k1 in range(1, 21):
            sample = result.samples[k1 - 1]
            want_quantum = math.ceil(k1 / 2)  # 1-based isolated quantum
            assert sample.st_i == vecs[want_quantum - 1]
            assert sample.slowdown_i == 2.0

    def test_slowdown_rescales_observed_vector(self):
        observed = vector(0.30, 0.50, 0.20)
        iso_i = constant_records(UNIFORM, 100, 10)
        iso_j = constant_records(UNIFORM, 100, 10)
        paired_i = varying_records([observed] * 4, [50] * 4)
        paired_j = constant_records(UNIFORM, 25, 4)
        result = align(iso_i, iso_j, paired_i, paired_j)
        sample = result.samples[0]
        # App a ran at half speed, so its observed fractions scale by 2;
        # app b at quarter speed scales by 4.
        assert sample.smt_ij.fe == pytest.approx(0.60, abs=1e-12)
        assert sample.smt_ij.be == pytest.approx(1.00, abs=1e-12)
        assert sample.smt_ij.fdc == pytest.approx(0.40, abs=1e-12)
        assert sample.slowdown_j == 4.0
        assert sample.smt_ij.fe + sample.smt_ij.be + sample.smt_ij.fdc == (
            pytest.approx(sample.slowdown_i, abs=1e-12)
        )

    def test_trailing_quanta_dropped(self):
        iso_i = constant_records(UNIFORM, 100, 10)
        iso_j = constant_records(UNIFORM, 100, 50)
        paired = constant_records(UNIFORM, 50, 25)
        # App a's isolated run covers 1000 instructions; co-run quantum
        # 21 onward is past that, so 5 of the 25 quanta drop.
        result = align(iso_i, iso_j, paired, paired)
        assert len(result.samples) == 20
        assert result.dropped == 5

    def test_no_overlap_rejected(self, tmp_path):
        paths = [isolated_file(tmp_path, "a", [10]), isolated_file(tmp_path, "b", [10]),
                 paired_file(tmp_path, "a", "b", [100, 100], [100, 100])]
        with pytest.raises(AlignmentError, match=r"^no overlap between paired run \('a', 'b'\)"):
            aligned_samples(paths)

    def test_unequal_paired_lengths_rejected(self, tmp_path):
        rows = [(q, t, 50) for q in range(5) for t in ("a", "b") if (q, t) != (4, "a")]
        path = profile_file(tmp_path, "pair.profile", "paired", ["a", "b"], rows)
        with pytest.raises(TraceError, match=r"paired threads cover different numbers of quanta "
                                             r"\(4 vs 5\)$"):
            aligned_samples([path])

    @pytest.mark.parametrize("rows, lone", [
        ([(0, "a"), (1, "a"), (1, "b"), (2, "b")], "quantum 0 holds only 'a'"),
        ([(0, "b"), (1, "a"), (1, "b"), (2, "a")], "quantum 0 holds only 'b'"),
    ])
    def test_paired_threads_share_every_quantum(self, tmp_path, rows, lone):
        # Same length, different quanta: without the check, quantum 0's
        # solo record of one thread would pair with the other's quantum 1.
        path = profile_file(tmp_path, "pair.profile", "paired", ["a", "b"],
                            [(q, t, 300) for q, t in rows])
        want = f"{path}: paired threads must share every quantum, but {lone}"
        with pytest.raises(TraceError, match=f"^{re.escape(want)}$"):
            aligned_samples([isolated_file(tmp_path, "a", [400] * 4),
                             isolated_file(tmp_path, "b", [400] * 4), path])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_align_matches_the_oracle(self, data):
        # Each record carries its own quantum's vector, so a wrong index
        # shows as a wrong vector.
        def run(n):
            counts = data.draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n))
            return varying_records([INDEXED[k] for k in range(n)], counts)

        iso_i, iso_j = (run(data.draw(st.integers(1, 12))) for _ in range(2))
        n = data.draw(st.integers(1, 12))
        paired_i, paired_j = run(n), run(n)
        assert align(iso_i, iso_j, paired_i, paired_j) == oracle_align(
            iso_i, iso_j, paired_i, paired_j
        )


class TestLoadProfiles:
    """Profile files read through ``aligned_samples``."""

    def test_corpus_files_load(self, profile_corpus):
        # Every paired quantum of every pair aligns, whatever the order
        # the files come in.
        aligned = aligned_samples(profile_corpus)
        assert len(aligned.samples) == 30 * len(CORPUS_PAIRS)
        assert aligned.dropped == 0
        assert aligned_samples(profile_corpus[::-1]) == aligned

    def test_loaded_vectors_match_requested_fractions(self, profile_corpus):
        # Pairs align in sorted order, each app of a pair on its own side.
        samples = aligned_samples(profile_corpus).samples
        for k, (a, b) in enumerate(sorted(CORPUS_PAIRS)):
            for sample in samples[30 * k:30 * (k + 1)]:
                for got, want in ((sample.st_i, CORPUS_APPS[a]), (sample.st_j, CORPUS_APPS[b])):
                    for name in CATEGORIES:
                        assert got.get(name) == pytest.approx(want.get(name), abs=1e-7)

    def test_missing_mode_rejected(self, tmp_path):
        # Without a mode the file is a trace, so its committed column is
        # unexpected; format_trace would not write it.
        path = tmp_path / "nomode.profile"
        path.write_text(
            '{"dispatch_width": 4, "quantum_ms": 100.0, "threads": ["a"], "version": 1}\n'
            f"{PROFILE_COLUMNS}\n"
            "0,a,1000,400,200,300,400\n",
            encoding="utf-8",
        )
        with pytest.raises(TraceError):
            aligned_samples([str(path)])

    def test_trace_is_not_a_profile(self, tmp_path):
        from synpa import TraceHeader, format_trace

        header = TraceHeader(dispatch_width=4, quantum_ms=100.0, threads=("a",))
        path = tmp_path / "trace.profile"
        sample = sample_from_fractions(
            0, "a", fe=0.2, be=0.3, fdc=0.5, cycles=10**8, dispatch_width=4
        )
        path.write_text(format_trace(header, [sample]), encoding="utf-8")
        with pytest.raises(TraceError, match="profile file must declare a mode"):
            aligned_samples([str(path)])


class TestFit:
    def test_exact_recovery_from_synthetic_data(self):
        samples = synthetic_samples(REFERENCE_COEFFICIENTS, 60, seed=1)
        report = fit(samples, split=0.8, seed=0)
        assert max_coefficient_error(report.coefficients, REFERENCE_COEFFICIENTS) < 1e-6
        for name in CATEGORIES:
            assert report.mse[name] < 1e-12
        assert report.n_samples == 60
        assert report.n_train == 48
        assert report.n_validation == 12

    def test_constant_samples_rank_deficient(self):
        st = vector(0.3, 0.3, 0.4)
        smt = CategoryTriple(fe=0.4, be=0.4, fdc=0.5)
        samples = [
            AlignedSample(
                st_i=st, st_j=st, smt_ij=smt, smt_ji=smt,
                slowdown_i=1.3, slowdown_j=1.3,
            )
            for _ in range(20)
        ]
        with pytest.raises(RankDeficientError) as excinfo:
            fit(samples, split=1.0, seed=0)
        assert any(name in str(excinfo.value) for name in CATEGORIES)

    def test_noisy_recovery_and_mse(self):
        sigma = 0.01
        samples = synthetic_samples(
            REFERENCE_COEFFICIENTS, 10_000, seed=7, noise_sigma=sigma
        )
        report = fit(samples, split=0.8, seed=0)
        assert max_coefficient_error(report.coefficients, REFERENCE_COEFFICIENTS) < 0.005
        for name in CATEGORIES:
            assert report.mse[name] == pytest.approx(sigma**2, rel=0.15)

    def test_recovery_error_shrinks_with_sample_count(self):
        sigma = 0.05
        errors = {}
        for n in (100, 1_000, 10_000):
            samples = synthetic_samples(NOISE_MODEL, n, seed=200 + n, noise_sigma=sigma)
            report = fit(samples, split=1.0, seed=0)
            errors[n] = max_coefficient_error(report.coefficients, NOISE_MODEL)
        assert errors[10_000] < errors[100]
        assert errors[10_000] < 0.04

    def test_permutation_invariance(self):
        samples = synthetic_samples(REFERENCE_COEFFICIENTS, 40, seed=3, noise_sigma=0.02)
        report_a = fit(samples, split=0.8, seed=5)
        shuffled = list(samples)
        random.Random(99).shuffle(shuffled)
        report_b = fit(shuffled, split=0.8, seed=5)
        assert report_a.coefficients == report_b.coefficients
        assert report_a.mse == report_b.mse

    def test_deterministic_given_seed(self):
        samples = synthetic_samples(REFERENCE_COEFFICIENTS, 40, seed=3, noise_sigma=0.02)
        assert fit(samples, seed=11) == fit(samples, seed=11)

    def test_full_split_uses_training_rows_for_mse(self):
        samples = synthetic_samples(REFERENCE_COEFFICIENTS, 30, seed=2)
        report = fit(samples, split=1.0, seed=0)
        assert report.n_validation == 0
        assert report.n_train == 30
        for name in CATEGORIES:
            assert report.mse[name] < 1e-12

    def test_invalid_split_rejected(self):
        samples = synthetic_samples(REFERENCE_COEFFICIENTS, 10, seed=4)
        with pytest.raises(FitError):
            fit(samples, split=0.0)
        with pytest.raises(FitError):
            fit(samples, split=1.2)

    def test_empty_samples_rejected(self):
        with pytest.raises(FitError):
            fit([])

    def test_residuals_orthogonal_to_regressors(self):
        samples = synthetic_samples(NOISE_MODEL, 500, seed=6, noise_sigma=0.05)
        report = fit(samples, split=1.0, seed=0)
        for name in CATEGORIES:
            c = report.coefficients.category(name)
            theta = np.array([c.alpha, c.beta, c.gamma, c.rho])
            xs = []
            ys = []
            for s in samples:
                ci, cj = s.st_i.get(name), s.st_j.get(name)
                xs.append((1.0, ci, cj, ci * cj))
                ys.append(s.smt_ij.get(name))
                xs.append((1.0, cj, ci, cj * ci))
                ys.append(s.smt_ji.get(name))
            x = np.array(xs)
            y = np.array(ys)
            residual = x @ theta - y
            gradient = x.T @ residual
            scale = np.linalg.norm(x) * np.linalg.norm(residual) + 1e-30
            assert np.max(np.abs(gradient)) / scale < 1e-8

    def test_report_json_shape(self):
        from synpa import ModelCoefficients

        samples = synthetic_samples(REFERENCE_COEFFICIENTS, 25, seed=8)
        report = fit(samples, split=0.8, seed=1)
        doc = json.loads(report.to_json())
        assert doc["n_samples"] == 25
        assert doc["split"] == 0.8
        assert doc["seed"] == 1
        assert set(doc) == {
            "coefficients", "mse", "n_samples", "n_train", "n_validation", "split", "seed",
        }
        assert set(doc["mse"]) == set(CATEGORIES)
        restored = ModelCoefficients.from_json(json.dumps(doc["coefficients"]))
        assert restored == report.coefficients

    def test_one_least_squares_solve_per_category(self, monkeypatch):
        solve = np.linalg.lstsq
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        fit(synthetic_samples(REFERENCE_COEFFICIENTS, 30, seed=2), split=0.8, seed=0)
        assert calls == [(48, 4)] * len(CATEGORIES)

    def test_ill_conditioned_full_rank_design(self):
        # The frontend fraction of each partner equals the thread's own up
        # to 1e-7, so two regressor columns nearly coincide: the design has
        # full rank, but its Gram matrix's condition number exceeds 1e12.
        # The fit is still the minimum-norm least-squares solution.
        rng = random.Random(5)
        noise = np.random.default_rng(5)
        samples = []
        for _ in range(60):
            st_i = random_unit_vector(rng)
            other = random_unit_vector(rng)
            fe = st_i.fe + 1e-7 * rng.uniform(-1.0, 1.0)
            be = other.be * (1.0 - fe) / (other.be + other.fdc)
            st_j = vector(fe, be, 1.0 - fe - be)
            vals_ij, vals_ji = {}, {}
            for name in CATEGORIES:
                coeffs = REFERENCE_COEFFICIENTS.category(name)
                ci, cj = st_i.get(name), st_j.get(name)
                vals_ij[name] = affine(coeffs, ci, cj) + 1e-4 * noise.standard_normal()
                vals_ji[name] = affine(coeffs, cj, ci) + 1e-4 * noise.standard_normal()
            samples.append(
                AlignedSample(
                    st_i=st_i, st_j=st_j,
                    smt_ij=CategoryTriple(**vals_ij), smt_ji=CategoryTriple(**vals_ji),
                    slowdown_i=sum(vals_ij.values()), slowdown_j=sum(vals_ji.values()),
                )
            )

        report = fit(samples, split=1.0, seed=0)
        for name in CATEGORIES:
            xs, ys = [], []
            for s in samples:
                ci, cj = s.st_i.get(name), s.st_j.get(name)
                xs += [(1.0, ci, cj, ci * cj), (1.0, cj, ci, cj * ci)]
                ys += [s.smt_ij.get(name), s.smt_ji.get(name)]
            x, y = np.array(xs), np.array(ys)
            assert np.linalg.matrix_rank(x) == 4
            if name == "fe":
                assert np.linalg.cond(x.T @ x) > 1e12
            c = report.coefficients.category(name)
            got = np.array([c.alpha, c.beta, c.gamma, c.rho])
            want = np.linalg.pinv(x) @ y
            # The fe solution has coefficients near 28 in the nearly
            # coincident directions; 1e-5 is about 4e-7 of that.
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-5)
        mse = evaluate(report.coefficients, samples)
        for name in CATEGORIES:
            assert report.mse[name] == pytest.approx(mse[name], rel=1e-9)


class TestEvaluate:
    def test_zero_error_on_exact_data(self):
        samples = synthetic_samples(REFERENCE_COEFFICIENTS, 50, seed=9)
        mse = evaluate(REFERENCE_COEFFICIENTS, samples)
        for name in CATEGORIES:
            assert mse[name] < 1e-28

    def test_constant_offset_gives_squared_error(self):
        epsilon = 0.01
        clean = synthetic_samples(REFERENCE_COEFFICIENTS, 50, seed=10)
        bumped = [
            AlignedSample(
                st_i=s.st_i,
                st_j=s.st_j,
                smt_ij=CategoryTriple(
                    fe=s.smt_ij.fe + epsilon,
                    be=s.smt_ij.be + epsilon,
                    fdc=s.smt_ij.fdc + epsilon,
                ),
                smt_ji=CategoryTriple(
                    fe=s.smt_ji.fe + epsilon,
                    be=s.smt_ji.be + epsilon,
                    fdc=s.smt_ji.fdc + epsilon,
                ),
                slowdown_i=s.slowdown_i,
                slowdown_j=s.slowdown_j,
            )
            for s in clean
        ]
        mse = evaluate(REFERENCE_COEFFICIENTS, bumped)
        for name in CATEGORIES:
            assert mse[name] == pytest.approx(epsilon**2, rel=1e-9)

    def test_noise_mix_orders_categories(self):
        # Larger observation noise on backend than frontend than
        # dispatch produces the same error ordering in the report.
        samples = synthetic_samples(
            REFERENCE_COEFFICIENTS,
            4_000,
            seed=11,
            noise_scale={"be": 0.12, "fe": 0.08, "fdc": 0.015},
        )
        mse = evaluate(REFERENCE_COEFFICIENTS, samples)
        assert mse["be"] > mse["fe"] > mse["fdc"]

    def test_empty_samples_rejected(self):
        with pytest.raises(FitError):
            evaluate(REFERENCE_COEFFICIENTS, [])


class TestEndToEndCorpus:
    def test_training_on_corpus_recovers_reference_model(self, profile_corpus):
        aligned = aligned_samples(profile_corpus)
        assert len(aligned.samples) == 30 * len(CORPUS_PAIRS)
        assert aligned.dropped == 0
        report = fit(aligned.samples, split=1.0, seed=0)
        assert max_coefficient_error(report.coefficients, REFERENCE_COEFFICIENTS) < 1e-6
        for name in CATEGORIES:
            assert report.mse[name] < 1e-12
