"""Tests for the pairwise interference model: forward form, pair
prediction, the per-category inverse solver, and coefficient
serialization."""

import json
import math

import pytest

from synpa import (
    CATEGORIES,
    CategoryCoefficients,
    CategoryTriple,
    CategoryVector,
    ModelCoefficients,
    ModelError,
    REFERENCE_COEFFICIENTS,
    forward,
    invert,
    invert_category,
    load_coefficients,
    predict_pair,
    save_coefficients,
)

ZERO = CategoryCoefficients(alpha=0.0, beta=0.0, gamma=0.0, rho=0.0)
ZERO_MODEL = ModelCoefficients(fdc=ZERO, fe=ZERO, be=ZERO, provenance="zero")


def reference_forward(coeffs, ci, cj):
    """Independent reimplementation of the bilinear form (no clamp)."""
    return coeffs.alpha + coeffs.beta * ci + coeffs.gamma * cj + coeffs.rho * ci * cj


class TestForward:
    def test_frontend_reference_value(self):
        # alpha + beta * 0.3 with the frontend reference coefficients:
        # 0.2376 + 1.4111 * 0.3 = 0.66093.
        got = forward(REFERENCE_COEFFICIENTS.fe, 0.3, 0.0)
        assert got == pytest.approx(0.66093, abs=1e-12)

    def test_frontend_ignores_corunner(self):
        # gamma and rho are zero for the frontend form, so the
        # co-runner's value must not matter.
        base = forward(REFERENCE_COEFFICIENTS.fe, 0.3, 0.0)
        for cj in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert forward(REFERENCE_COEFFICIENTS.fe, 0.3, cj) == base

    def test_zero_model_is_zero_everywhere(self):
        for ci in (0.0, 0.3, 1.0):
            for cj in (0.0, 0.7, 1.0):
                assert forward(ZERO, ci, cj) == 0.0

    def test_backend_intercept_only(self):
        # With both inputs zero only alpha survives.
        assert forward(REFERENCE_COEFFICIENTS.be, 0.0, 0.0) == 0.2069

    def test_clamped_below_at_zero(self):
        neg = CategoryCoefficients(alpha=-0.5, beta=0.1, gamma=0.0, rho=0.0)
        assert forward(neg, 0.2, 0.9) == 0.0

    def test_not_clamped_above_one(self):
        # A saturated pair legitimately predicts above 1.
        got = forward(REFERENCE_COEFFICIENTS.fdc, 1.0, 1.0)
        assert got == pytest.approx(0.0072 + 0.9060 + 0.0044 + 0.0314, abs=1e-12)

    def test_matches_reference_arithmetic(self):
        # Cross-check the implementation against an independent
        # evaluation of the same form on a grid.
        for name in CATEGORIES:
            coeffs = REFERENCE_COEFFICIENTS.category(name)
            for ci in (0.0, 0.17, 0.5, 0.83, 1.0):
                for cj in (0.0, 0.29, 0.64, 1.0):
                    want = max(0.0, reference_forward(coeffs, ci, cj))
                    assert forward(coeffs, ci, cj) == pytest.approx(want, abs=1e-15)

    def test_monotone_in_own_value(self):
        # With the reference coefficients (beta >= 0, rho >= 0) the
        # prediction never decreases as the thread's own value grows.
        import random

        rng = random.Random(7)
        for name in CATEGORIES:
            coeffs = REFERENCE_COEFFICIENTS.category(name)
            for _ in range(200):
                cj = rng.uniform(0.0, 1.0)
                lo = rng.uniform(0.0, 1.0)
                hi = rng.uniform(lo, 1.0)
                assert forward(coeffs, hi, cj) >= forward(coeffs, lo, cj)

    def test_non_finite_coefficients_rejected(self):
        with pytest.raises(ModelError):
            CategoryCoefficients(alpha=math.nan, beta=0.0, gamma=0.0, rho=0.0)
        with pytest.raises(ModelError):
            CategoryCoefficients(alpha=0.0, beta=math.inf, gamma=0.0, rho=0.0)


class TestPredictPair:
    def test_pure_dispatch_pair_slowdown(self):
        # Two threads that are all useful dispatch: the dispatch form
        # contributes alpha+beta+gamma+rho, the other two forms only
        # their intercepts.
        st = CategoryVector(fe=0.0, be=0.0, fdc=1.0)
        pred = predict_pair(REFERENCE_COEFFICIENTS, st, st)
        want = (0.0072 + 0.9060 + 0.0044 + 0.0314) + 0.2376 + 0.2069
        assert want == pytest.approx(1.3935, abs=1e-12)
        assert pred.slowdown_i == pytest.approx(1.3935, abs=1e-12)
        assert pred.slowdown_j == pred.slowdown_i

    def test_identical_inputs_symmetric(self):
        st = CategoryVector(fe=0.22, be=0.47, fdc=0.31)
        pred = predict_pair(REFERENCE_COEFFICIENTS, st, st)
        assert pred.slowdown_i == pred.slowdown_j
        for name in CATEGORIES:
            assert pred.smt_i.get(name) == pred.smt_j.get(name)

    def test_zero_model_zero_slowdowns(self):
        st_a = CategoryVector(fe=0.2, be=0.3, fdc=0.5)
        st_b = CategoryVector(fe=0.6, be=0.1, fdc=0.3)
        pred = predict_pair(ZERO_MODEL, st_a, st_b)
        assert pred.slowdown_i == 0.0
        assert pred.slowdown_j == 0.0

    def test_direction_dependent(self):
        # A backend-heavy thread hurts its partner more than a
        # frontend-heavy one does under the reference backend form
        # (gamma > beta there), so the two directions must differ.
        be_heavy = CategoryVector(fe=0.05, be=0.80, fdc=0.15)
        fe_heavy = CategoryVector(fe=0.70, be=0.10, fdc=0.20)
        pred = predict_pair(REFERENCE_COEFFICIENTS, be_heavy, fe_heavy)
        assert pred.slowdown_i != pred.slowdown_j

    def test_slowdown_is_sum_of_categories(self):
        st_a = CategoryVector(fe=0.25, be=0.45, fdc=0.30)
        st_b = CategoryVector(fe=0.40, be=0.20, fdc=0.40)
        pred = predict_pair(REFERENCE_COEFFICIENTS, st_a, st_b)
        assert pred.slowdown_i == pytest.approx(
            pred.smt_i.fe + pred.smt_i.be + pred.smt_i.fdc, abs=1e-15
        )
        assert pred.slowdown_j == pytest.approx(
            pred.smt_j.fe + pred.smt_j.be + pred.smt_j.fdc, abs=1e-15
        )

    def test_per_category_matches_forward(self):
        st_a = CategoryVector(fe=0.33, be=0.33, fdc=0.34)
        st_b = CategoryVector(fe=0.10, be=0.70, fdc=0.20)
        pred = predict_pair(REFERENCE_COEFFICIENTS, st_a, st_b)
        for name in CATEGORIES:
            coeffs = REFERENCE_COEFFICIENTS.category(name)
            assert pred.smt_i.get(name) == forward(coeffs, st_a.get(name), st_b.get(name))
            assert pred.smt_j.get(name) == forward(coeffs, st_b.get(name), st_a.get(name))


class TestInvertCategory:
    def test_linear_intercept_observation_gives_zero(self):
        # With rho = 0, observing exactly the intercept on both sides
        # solves to (0, 0).
        for name in ("fe", "be"):
            coeffs = REFERENCE_COEFFICIENTS.category(name)
            sol = invert_category(coeffs, coeffs.alpha, coeffs.alpha)
            assert sol.x == pytest.approx(0.0, abs=1e-12)
            assert sol.y == pytest.approx(0.0, abs=1e-12)
            assert sol.exact

    def test_linear_exact_solve(self):
        # rho = 0 makes the two-equation system an exact 2x2 solve.
        coeffs = REFERENCE_COEFFICIENTS.be
        x_true, y_true = 0.62, 0.17
        u = reference_forward(coeffs, x_true, y_true)
        v = reference_forward(coeffs, y_true, x_true)
        sol = invert_category(coeffs, u, v)
        assert sol.x == pytest.approx(x_true, abs=1e-9)
        assert sol.y == pytest.approx(y_true, abs=1e-9)
        assert sol.exact

    @pytest.mark.parametrize("name", list(CATEGORIES))
    def test_round_trip_random(self, name):
        # Forward then inverse recovers the inputs within 1e-6 across
        # the interior of the unit square; 1000 samples exercises the
        # quadratic/Newton path of the dispatch form.
        import random

        rng = random.Random(20240915)
        coeffs = REFERENCE_COEFFICIENTS.category(name)
        n = 1000 if name == "fdc" else 300
        for _ in range(n):
            x_true = rng.uniform(0.01, 0.99)
            y_true = rng.uniform(0.01, 0.99)
            u = reference_forward(coeffs, x_true, y_true)
            v = reference_forward(coeffs, y_true, x_true)
            sol = invert_category(coeffs, u, v)
            assert abs(sol.x - x_true) < 1e-6
            assert abs(sol.y - y_true) < 1e-6
            assert sol.exact

    def test_singular_symmetric_fallback(self):
        # beta == gamma with rho = 0 leaves only x + y determined; the
        # solver picks the symmetric solution.
        coeffs = CategoryCoefficients(alpha=0.1, beta=0.5, gamma=0.5, rho=0.0)
        sol = invert_category(coeffs, 0.6, 0.6)
        assert sol.x == pytest.approx(0.5, abs=1e-12)
        assert sol.y == pytest.approx(0.5, abs=1e-12)
        assert sol.exact

    def test_inconsistent_observation_degrades(self):
        # The frontend form cannot produce values above
        # alpha + beta = 1.6487 inside the unit square, so a larger
        # observation has no consistent solution.
        coeffs = REFERENCE_COEFFICIENTS.fe
        sol = invert_category(coeffs, 5.0, 5.0)
        assert not sol.exact
        assert 0.0 <= sol.x <= 1.0
        assert 0.0 <= sol.y <= 1.0

    def test_non_finite_observation_rejected(self):
        coeffs = REFERENCE_COEFFICIENTS.fe
        with pytest.raises(ModelError):
            invert_category(coeffs, math.inf, 0.3)
        with pytest.raises(ModelError):
            invert_category(coeffs, 0.3, math.nan)


class TestInvert:
    def _random_vector(self, rng):
        parts = [rng.uniform(0.05, 1.0) for _ in range(3)]
        total = sum(parts)
        return CategoryVector(
            fe=parts[0] / total, be=parts[1] / total, fdc=parts[2] / total
        )

    def test_round_trip_full_model(self):
        import random

        rng = random.Random(99)
        for _ in range(100):
            st_a = self._random_vector(rng)
            st_b = self._random_vector(rng)
            pred = predict_pair(REFERENCE_COEFFICIENTS, st_a, st_b)
            result = invert(REFERENCE_COEFFICIENTS, pred.smt_i, pred.smt_j)
            assert not result.degraded
            for name in CATEGORIES:
                # The normalized outputs recover the isolated fractions
                # because the true fractions already sum to 1.
                assert abs(result.st_i.get(name) - st_a.get(name)) < 1e-5
                assert abs(result.st_j.get(name) - st_b.get(name)) < 1e-5

    def test_outputs_are_normalized_vectors(self):
        smt = CategoryTriple(fe=0.9, be=0.9, fdc=0.9)
        result = invert(REFERENCE_COEFFICIENTS, smt, smt)
        for vec in (result.st_i, result.st_j):
            assert vec.fe + vec.be + vec.fdc == pytest.approx(1.0, abs=1e-9)

    def test_inconsistent_pair_flags_degraded(self):
        bad = CategoryTriple(fe=5.0, be=0.2, fdc=0.2)
        result = invert(REFERENCE_COEFFICIENTS, bad, bad)
        assert result.degraded
        for vec in (result.st_i, result.st_j):
            for name in CATEGORIES:
                assert 0.0 <= vec.get(name) <= 1.0

    def test_consistent_pair_not_degraded(self):
        st = CategoryVector(fe=0.3, be=0.3, fdc=0.4)
        pred = predict_pair(REFERENCE_COEFFICIENTS, st, st)
        result = invert(REFERENCE_COEFFICIENTS, pred.smt_i, pred.smt_j)
        assert not result.degraded


class TestCoefficientSerialization:
    def test_json_round_trip(self):
        text = REFERENCE_COEFFICIENTS.to_json()
        restored = ModelCoefficients.from_json(text)
        assert restored == REFERENCE_COEFFICIENTS

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "coeffs.json")
        save_coefficients(REFERENCE_COEFFICIENTS, path)
        assert load_coefficients(path) == REFERENCE_COEFFICIENTS

    def test_document_shape(self):
        doc = json.loads(REFERENCE_COEFFICIENTS.to_json())
        assert doc["version"] == 1
        assert set(doc["categories"]) == set(CATEGORIES)
        assert doc["provenance"] == "builtin-reference"
        assert doc["categories"]["fe"]["beta"] == 1.4111

    def test_bad_json_rejected(self):
        with pytest.raises(ModelError):
            ModelCoefficients.from_json("{not json")

    def test_wrong_version_rejected(self):
        doc = json.loads(REFERENCE_COEFFICIENTS.to_json())
        doc["version"] = 999
        with pytest.raises(ModelError):
            ModelCoefficients.from_json(json.dumps(doc))

    def test_missing_category_rejected(self):
        doc = json.loads(REFERENCE_COEFFICIENTS.to_json())
        del doc["categories"]["be"]
        with pytest.raises(ModelError):
            ModelCoefficients.from_json(json.dumps(doc))

    def test_non_numeric_coefficient_rejected(self):
        doc = json.loads(REFERENCE_COEFFICIENTS.to_json())
        doc["categories"]["fe"]["alpha"] = "fast"
        with pytest.raises(ModelError):
            ModelCoefficients.from_json(json.dumps(doc))

    def test_unknown_category_lookup_rejected(self):
        with pytest.raises(ModelError):
            REFERENCE_COEFFICIENTS.category("retire")
