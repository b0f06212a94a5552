"""Tests for the pairwise interference model: forward form, pair
prediction, the per-category inverse solver, and coefficient
serialization, and the vectorized pair-weight matrix."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synpa import (
    CATEGORIES,
    CategoryCoefficients,
    CategoryTriple,
    CategoryVector,
    IDLE_NODE,
    ModelCoefficients,
    ModelError,
    REFERENCE_COEFFICIENTS,
    build_graph,
    forward,
    graph_from_matrix,
    invert,
    invert_category,
    load_coefficients,
    pair_weight_matrix,
    predict_pair,
    save_coefficients,
)

from conftest import category_vectors, coefficient_models

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


def scalar_pair_weights(model, vectors):
    """Every ``(i, j)`` pair weight through ``predict_pair``."""
    weights = {}
    for i, a in enumerate(vectors):
        for j, b in enumerate(vectors):
            if i != j:
                pred = predict_pair(model, a, b)
                weights[(i, j)] = pred.slowdown_i + pred.slowdown_j
    return weights


class TestPairWeightMatrix:
    @settings(max_examples=200, deadline=None)
    @given(model=st.one_of(st.just(REFERENCE_COEFFICIENTS), coefficient_models()),
           vectors=st.lists(category_vectors(), min_size=0, max_size=9))
    def test_bit_equal_to_predict_pair(self, model, vectors):
        matrix = pair_weight_matrix(model, vectors)
        assert matrix.shape == (len(vectors), len(vectors))
        for (i, j), want in scalar_pair_weights(model, vectors).items():
            assert matrix[i, j] == want
        assert all(matrix[i, i] == 0.0 for i in range(len(vectors)))

    def test_clamp_at_zero_is_bit_equal(self):
        # Negative intercepts drive every category below zero for the
        # first two vectors, so both sides must clamp identically.
        negative = CategoryCoefficients(alpha=-0.9, beta=0.5, gamma=0.25, rho=-0.125)
        model = ModelCoefficients(fdc=negative, fe=REFERENCE_COEFFICIENTS.fe, be=negative)
        vectors = [
            CategoryVector(fe=1.0, be=0.0, fdc=0.0),
            CategoryVector(fe=0.5, be=0.25, fdc=0.25),
            CategoryVector(fe=0.1, be=0.2, fdc=0.7),
        ]
        assert forward(negative, 0.0, 0.25) == 0.0
        matrix = pair_weight_matrix(model, vectors)
        for (i, j), want in scalar_pair_weights(model, vectors).items():
            assert matrix[i, j] == want

    @settings(max_examples=100, deadline=None)
    @given(
        ids=st.sets(st.text("aAbBzZ_09", min_size=1, max_size=3), min_size=2, max_size=9),
        data=st.data(),
    )
    def test_graph_matches_build_graph(self, ids, data):
        # Mixed-case and underscore ids sort on both sides of IDLE_NODE,
        # so the padding position is exercised for odd rosters.
        ids = sorted(ids)
        vectors = {a: data.draw(category_vectors()) for a in ids}
        predictions = {
            (a, b): predict_pair(REFERENCE_COEFFICIENTS, vectors[a], vectors[b])
            for i, a in enumerate(ids)
            for b in ids[i + 1 :]
        }
        want = build_graph(predictions)
        got = graph_from_matrix(
            ids, pair_weight_matrix(REFERENCE_COEFFICIENTS, [vectors[a] for a in ids])
        )
        assert got.nodes == want.nodes
        assert got.matrix == want.matrix

    def test_odd_mixed_case_roster_pads_idle_in_sort_order(self):
        ids = sorted(["beta", "Alpha", "_x", "Zed", "a1"])
        vectors = [CategoryVector(fe=0.2, be=0.5, fdc=0.3)] * len(ids)
        graph = graph_from_matrix(ids, pair_weight_matrix(REFERENCE_COEFFICIENTS, vectors))
        assert graph.nodes == ("Alpha", "Zed", IDLE_NODE, "_x", "a1", "beta")
        idle = graph.nodes.index(IDLE_NODE)
        assert all(w == 1.0 for j, w in enumerate(graph.matrix[idle]) if j != idle)

    def test_non_finite_prediction_rejected(self):
        huge = CategoryCoefficients(alpha=1e308, beta=1e308, gamma=1e308, rho=0.0)
        model = ModelCoefficients(fdc=huge, fe=huge, be=huge)
        vectors = [CategoryVector(fe=0.5, be=0.25, fdc=0.25)] * 2
        with pytest.raises(ModelError):
            pair_weight_matrix(model, vectors)


GRID_X, GRID_Y = np.meshgrid(np.linspace(0.0, 1.0, 201), np.linspace(0.0, 1.0, 201))


def squared_residual(coeffs, x, y, u, v):
    """``(f(x, y) - u)^2 + (f(y, x) - v)^2`` without the forward clamp."""
    return (reference_forward(coeffs, x, y) - u) ** 2 + (reference_forward(coeffs, y, x) - v) ** 2


@st.composite
def inversion_cases(draw):
    """Coefficients and observations ``(coeffs, u, v)`` for one category.

    Besides arbitrary forms, the cases include a linear form (rho = 0),
    beta == gamma, a singular line ``x + y = -(beta + gamma) / rho`` of
    the Jacobian crossing the unit square, the reference forms, and
    observations far outside what any point of the square produces.
    """
    kind = draw(st.sampled_from(["any", "linear", "beta_eq_gamma", "singular_line", "reference"]))
    coeff = st.floats(-2.0, 2.0)
    alpha, beta, gamma, rho = (draw(coeff) for _ in range(4))
    if kind == "linear":
        rho = 0.0
    elif kind == "beta_eq_gamma":
        gamma = beta
    elif kind == "singular_line":
        rho = -draw(st.floats(0.05, 2.0))
        line = draw(st.floats(0.05, 1.95))  # x + y on the singular line
        half_gap = draw(st.floats(-1.0, 1.0).filter(lambda h: abs(h) > 1e-3))
        beta, gamma = -0.5 * rho * line + half_gap, -0.5 * rho * line - half_gap
    if kind == "reference":
        coeffs = REFERENCE_COEFFICIENTS.category(draw(st.sampled_from(CATEGORIES)))
    else:
        coeffs = CategoryCoefficients(alpha=alpha, beta=beta, gamma=gamma, rho=rho)
    observation = draw(st.sampled_from(["near", "consistent", "far"]))
    if observation == "consistent":
        # Produced by a point of the square, then perturbed a little.
        x, y = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
        noise = st.floats(-0.05, 0.05)
        u = reference_forward(coeffs, x, y) + draw(noise)
        v = reference_forward(coeffs, y, x) + draw(noise)
    elif observation == "far":
        far = st.one_of(st.floats(10.0, 100.0), st.floats(-100.0, -10.0))
        u, v = draw(far), draw(st.one_of(far, st.floats(-3.0, 3.0)))
    else:
        u, v = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    return coeffs, u, v


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
        # observation has no consistent solution.  With beta == gamma the
        # two residuals differ by the constant v - u, so u != v has none
        # either, whatever rho is.
        cases = [
            (REFERENCE_COEFFICIENTS.fe, 5.0, 5.0),
            (CategoryCoefficients(alpha=0.1, beta=0.5, gamma=0.5, rho=0.2), 0.3, 0.9),
        ]
        for coeffs, u, v in cases:
            sol = invert_category(coeffs, u, v)
            assert not sol.exact
            assert 0.0 <= sol.x <= 1.0
            assert 0.0 <= sol.y <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(case=inversion_cases())
    def test_result_is_box_least_squares(self, case):
        # Whether or not a consistent solution exists, the result lies
        # in the unit square and no point of a dense grid over the
        # square fits the observations better.
        coeffs, u, v = case
        sol = invert_category(coeffs, u, v)
        assert 0.0 <= sol.x <= 1.0 and 0.0 <= sol.y <= 1.0
        got = squared_residual(coeffs, sol.x, sol.y, u, v)
        assert got <= float(squared_residual(coeffs, GRID_X, GRID_Y, u, v).min()) + 1e-9
        if sol.exact:
            assert got <= 1e-8**2 * max(1.0, u * u + v * v)

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
