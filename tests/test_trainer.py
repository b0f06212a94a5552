"""Tests for profile loading, instruction-count alignment, and the
per-category least-squares fit: synthetic-data oracles with known
coefficients, alignment arithmetic on constructed progress curves, and
noise-response checks."""

import json
import math
import random

import numpy as np
import pytest

from synpa import (
    CATEGORIES,
    AlignedSample,
    AlignmentError,
    CategoryTriple,
    CategoryVector,
    FitError,
    Profile,
    ProfileRecord,
    RankDeficientError,
    REFERENCE_COEFFICIENTS,
    TraceError,
    align,
    evaluate,
    fit,
    load_profiles,
)
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


#: Dispatch width and quantum length of the hand-built profiles.
SHAPE = dict(dispatch_width=4, quantum_ms=100.0)


def vector(fe, be, fdc):
    return CategoryVector(fe=fe, be=be, fdc=fdc)


def constant_profile(app_id, mode, partner, vec, committed_per_quantum, n):
    return Profile(
        app_id=app_id,
        mode=mode,
        partner=partner,
        records=tuple(
            ProfileRecord(vector=vec, committed=committed_per_quantum)
            for _ in range(n)
        ),
        **SHAPE,
    )


def varying_profile(app_id, mode, partner, vecs, committed):
    return Profile(
        app_id=app_id,
        mode=mode,
        partner=partner,
        records=tuple(
            ProfileRecord(vector=v, committed=c) for v, c in zip(vecs, committed)
        ),
        **SHAPE,
    )


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
    def test_cumulative_counts(self):
        profile = varying_profile(
            "app", "isolated", None, [UNIFORM] * 3, [100, 250, 50]
        )
        assert profile.cumulative == (100, 350, 400)

    def test_zero_committed_rejected(self):
        with pytest.raises(TraceError):
            constant_profile("app", "isolated", None, UNIFORM, 0, 3)

    def test_empty_profile_rejected(self):
        with pytest.raises(TraceError):
            Profile(app_id="app", mode="isolated", partner=None, records=(), **SHAPE)

    def test_isolated_with_partner_rejected(self):
        with pytest.raises(TraceError):
            constant_profile("app", "isolated", "other", UNIFORM, 10, 2)

    def test_paired_without_partner_rejected(self):
        with pytest.raises(TraceError):
            constant_profile("app", "paired", None, UNIFORM, 10, 2)

    def test_unknown_mode_rejected(self):
        with pytest.raises(TraceError):
            constant_profile("app", "shared", None, UNIFORM, 10, 2)


class TestAlign:
    def test_identity_alignment(self):
        # Identical progress: co-run quantum k draws its regressors from
        # isolated quantum k, at slowdown 1.
        vecs = [vector(0.1 + 0.05 * k, 0.5 - 0.05 * k, 0.4) for k in range(8)]
        iso_i = varying_profile("a", "isolated", None, vecs, [100] * 8)
        iso_j = constant_profile("b", "isolated", None, UNIFORM, 100, 8)
        paired_i = varying_profile("a", "paired", "b", vecs, [100] * 8)
        paired_j = constant_profile("b", "paired", "a", UNIFORM, 100, 8)
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
        iso_i = varying_profile("a", "isolated", None, vecs, [100] * 10)
        iso_j = constant_profile("b", "isolated", None, UNIFORM, 100, 10)
        paired_i = constant_profile("a", "paired", "b", UNIFORM, 50, 20)
        paired_j = constant_profile("b", "paired", "a", UNIFORM, 50, 20)
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
        iso_i = constant_profile("a", "isolated", None, UNIFORM, 100, 10)
        iso_j = constant_profile("b", "isolated", None, UNIFORM, 100, 10)
        paired_i = varying_profile("a", "paired", "b", [observed] * 4, [50] * 4)
        paired_j = constant_profile("b", "paired", "a", UNIFORM, 25, 4)
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
        iso_i = constant_profile("a", "isolated", None, UNIFORM, 100, 10)
        iso_j = constant_profile("b", "isolated", None, UNIFORM, 100, 50)
        paired_i = constant_profile("a", "paired", "b", UNIFORM, 50, 25)
        paired_j = constant_profile("b", "paired", "a", UNIFORM, 50, 25)
        # App a's isolated run covers 1000 instructions; co-run quantum
        # 21 onward is past that, so 5 of the 25 quanta drop.
        result = align(iso_i, iso_j, paired_i, paired_j)
        assert len(result.samples) == 20
        assert result.dropped == 5

    def test_no_overlap_rejected(self):
        iso_i = constant_profile("a", "isolated", None, UNIFORM, 10, 1)
        iso_j = constant_profile("b", "isolated", None, UNIFORM, 10, 1)
        paired_i = constant_profile("a", "paired", "b", UNIFORM, 100, 2)
        paired_j = constant_profile("b", "paired", "a", UNIFORM, 100, 2)
        with pytest.raises(AlignmentError):
            align(iso_i, iso_j, paired_i, paired_j)

    def test_mode_mismatch_rejected(self):
        iso = constant_profile("a", "isolated", None, UNIFORM, 100, 4)
        iso_b = constant_profile("b", "isolated", None, UNIFORM, 100, 4)
        paired_i = constant_profile("a", "paired", "b", UNIFORM, 100, 4)
        paired_j = constant_profile("b", "paired", "a", UNIFORM, 100, 4)
        with pytest.raises(AlignmentError):
            align(paired_i, iso_b, paired_i, paired_j)
        with pytest.raises(AlignmentError):
            align(iso, iso_b, iso, paired_j)

    def test_partner_mismatch_rejected(self):
        iso_i = constant_profile("a", "isolated", None, UNIFORM, 100, 4)
        iso_j = constant_profile("b", "isolated", None, UNIFORM, 100, 4)
        paired_i = constant_profile("a", "paired", "c", UNIFORM, 100, 4)
        paired_j = constant_profile("b", "paired", "a", UNIFORM, 100, 4)
        with pytest.raises(AlignmentError):
            align(iso_i, iso_j, paired_i, paired_j)

    def test_app_id_mismatch_rejected(self):
        iso_i = constant_profile("x", "isolated", None, UNIFORM, 100, 4)
        iso_j = constant_profile("b", "isolated", None, UNIFORM, 100, 4)
        paired_i = constant_profile("a", "paired", "b", UNIFORM, 100, 4)
        paired_j = constant_profile("b", "paired", "a", UNIFORM, 100, 4)
        with pytest.raises(AlignmentError):
            align(iso_i, iso_j, paired_i, paired_j)

    def test_unequal_paired_lengths_rejected(self):
        iso_i = constant_profile("a", "isolated", None, UNIFORM, 100, 6)
        iso_j = constant_profile("b", "isolated", None, UNIFORM, 100, 6)
        paired_i = constant_profile("a", "paired", "b", UNIFORM, 50, 4)
        paired_j = constant_profile("b", "paired", "a", UNIFORM, 50, 5)
        with pytest.raises(AlignmentError):
            align(iso_i, iso_j, paired_i, paired_j)


class TestLoadProfiles:
    def test_corpus_files_load(self, profile_corpus):
        isolated = []
        paired = []
        for path in profile_corpus:
            for profile in load_profiles(path):
                (isolated if profile.mode == "isolated" else paired).append(profile)
        assert sorted(p.app_id for p in isolated) == sorted(CORPUS_APPS)
        assert len(paired) == 2 * len(CORPUS_PAIRS)
        by_id = {p.app_id: p for p in isolated}
        for p in isolated:
            assert p.partner is None
            assert len(p.records) == 40
        for p in paired:
            assert p.partner in by_id
            assert len(p.records) == 30

    def test_loaded_vectors_match_requested_fractions(self, profile_corpus):
        iso_path = next(p for p in profile_corpus if "iso-appa" in p)
        (profile,) = load_profiles(iso_path)
        want = CORPUS_APPS["appa"]
        got = profile.records[0].vector
        for name in CATEGORIES:
            assert got.get(name) == pytest.approx(want.get(name), abs=1e-7)

    def test_missing_mode_rejected(self, tmp_path):
        from synpa import TraceHeader, format_trace
        from conftest import counters_for_fractions

        header = TraceHeader(dispatch_width=4, quantum_ms=100.0, threads=("a",))
        sample = counters_for_fractions(0, "a", 0.2, 0.5)
        path = tmp_path / "nomode.profile"
        path.write_text(
            format_trace(header, [sample], {(0, "a"): sample.inst_spec}),
            encoding="utf-8",
        )
        with pytest.raises(TraceError):
            load_profiles(str(path))


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
        assert not any(report.used_pinv.values())

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
        assert set(doc["mse"]) == set(CATEGORIES)
        restored = ModelCoefficients.from_json(json.dumps(doc["coefficients"]))
        assert restored == report.coefficients


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
        isolated = {}
        paired = {}
        for path in profile_corpus:
            for profile in load_profiles(path):
                if profile.mode == "isolated":
                    isolated[profile.app_id] = profile
                else:
                    paired[(profile.app_id, profile.partner)] = profile
        samples = []
        for a, b in CORPUS_PAIRS:
            result = align(isolated[a], isolated[b], paired[(a, b)], paired[(b, a)])
            samples.extend(result.samples)
        report = fit(samples, split=1.0, seed=0)
        assert max_coefficient_error(report.coefficients, REFERENCE_COEFFICIENTS) < 1e-6
        for name in CATEGORIES:
            assert report.mse[name] < 1e-12
