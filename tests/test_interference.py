"""Tests for the pairwise interference model: forward form, pair
prediction, the roster's forward matrix and fold prices, the
per-category inverse solver, and coefficient serialization."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    category_matrix,
    co_run_slowdowns,
    fold_prices,
    invert,
    invert_category,
    min_weight_perfect_matching,
    predict_pair,
)
from synpa.errors import read_text, write_text
from synpa.interference import MAX_COEFFICIENT
from synpa.matcher import IDLE_WEIGHT

import reference_fold
import reference_inversion
import reference_simulator
from reference_simulator import clamped_form
from conftest import (
    blossom_decision, category_vectors, co_run_triples, coefficient_models, decision_graph,
    forward_models,
)

ZERO = CategoryCoefficients(alpha=0.0, beta=0.0, gamma=0.0, rho=0.0)
ZERO_MODEL = ModelCoefficients(fdc=ZERO, fe=ZERO, be=ZERO, provenance="zero")


def reference_forward(coeffs, ci, cj):
    """Independent reimplementation of the bilinear form (no clamp)."""
    return coeffs.alpha + coeffs.beta * ci + coeffs.gamma * cj + coeffs.rho * ci * cj


def one_category(name, value):
    """A triple with ``value`` in category ``name`` and 0 in the others."""
    return CategoryTriple(**{c: value if c == name else 0.0 for c in CATEGORIES})


def category_value(model, name, ci, cj):
    """:func:`predict_pair`'s co-run value of category ``name`` for a thread
    at ``ci`` next to one at ``cj``, both 0 in the other categories."""
    smt_i, _ = predict_pair(model, one_category(name, ci), one_category(name, cj))
    return smt_i[CATEGORIES.index(name)]


class TestForward:
    """Each category's form, read off :func:`predict_pair`'s outputs."""

    def test_frontend_reference_value(self):
        # alpha + beta * 0.3 with the frontend reference coefficients:
        # 0.2376 + 1.4111 * 0.3 = 0.66093.
        got = category_value(REFERENCE_COEFFICIENTS, "fe", 0.3, 0.0)
        assert got == pytest.approx(0.66093, abs=1e-12)

    def test_frontend_ignores_corunner(self):
        # gamma and rho are zero for the frontend form, so the
        # co-runner's value must not matter.
        base = category_value(REFERENCE_COEFFICIENTS, "fe", 0.3, 0.0)
        for cj in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert category_value(REFERENCE_COEFFICIENTS, "fe", 0.3, cj) == base

    def test_zero_model_is_zero_everywhere(self):
        for name in CATEGORIES:
            for ci in (0.0, 0.3, 1.0):
                for cj in (0.0, 0.7, 1.0):
                    assert category_value(ZERO_MODEL, name, ci, cj) == 0.0

    def test_backend_intercept_only(self):
        # With both inputs zero only alpha survives.
        assert category_value(REFERENCE_COEFFICIENTS, "be", 0.0, 0.0) == 0.2069

    def test_clamped_below_at_zero(self):
        neg = CategoryCoefficients(alpha=-0.5, beta=0.1, gamma=0.0, rho=0.0)
        for name in CATEGORIES:
            assert category_value(ModelCoefficients(fdc=neg, fe=neg, be=neg), name, 0.2, 0.9) == 0.0

    def test_not_clamped_above_one(self):
        # A saturated pair legitimately predicts above 1.
        got = category_value(REFERENCE_COEFFICIENTS, "fdc", 1.0, 1.0)
        assert got == pytest.approx(0.0072 + 0.9060 + 0.0044 + 0.0314, abs=1e-12)

    def test_matches_reference_arithmetic(self):
        # Cross-check the implementation against an independent
        # evaluation of the same form on a grid.
        for name in CATEGORIES:
            coeffs = REFERENCE_COEFFICIENTS.category(name)
            for ci in (0.0, 0.17, 0.5, 0.83, 1.0):
                for cj in (0.0, 0.29, 0.64, 1.0):
                    want = max(0.0, reference_forward(coeffs, ci, cj))
                    got = category_value(REFERENCE_COEFFICIENTS, name, ci, cj)
                    assert got == pytest.approx(want, abs=1e-15)

    def test_monotone_in_own_value(self):
        # With the reference coefficients (beta >= 0, rho >= 0) the
        # prediction never decreases as the thread's own value grows.
        import random

        rng = random.Random(7)
        for name in CATEGORIES:
            for _ in range(200):
                cj = rng.uniform(0.0, 1.0)
                lo = rng.uniform(0.0, 1.0)
                hi = rng.uniform(lo, 1.0)
                assert (category_value(REFERENCE_COEFFICIENTS, name, hi, cj)
                        >= category_value(REFERENCE_COEFFICIENTS, name, lo, cj))

    def test_non_finite_coefficients_rejected(self):
        with pytest.raises(ModelError):
            CategoryCoefficients(alpha=math.nan, beta=0.0, gamma=0.0, rho=0.0)
        with pytest.raises(ModelError):
            CategoryCoefficients(alpha=0.0, beta=math.inf, gamma=0.0, rho=0.0)

    def test_coefficient_bound(self):
        # The bound itself is in the domain; the next float out is not,
        # and the error names the field.
        CategoryCoefficients(alpha=MAX_COEFFICIENT, beta=-MAX_COEFFICIENT, gamma=0.0, rho=-0.0)
        for value in (math.nextafter(MAX_COEFFICIENT, math.inf), -1e300, -math.inf):
            with pytest.raises(ModelError, match=rf"^coefficient gamma must be within "
                                                 rf"\+/-1e\+06, got {re.escape(repr(value))}$"):
                CategoryCoefficients(alpha=0.0, beta=0.0, gamma=value, rho=0.0)


class TestPredictPair:
    def test_pure_dispatch_pair_slowdown(self):
        # Two threads that are all useful dispatch: the dispatch form
        # contributes alpha+beta+gamma+rho, the other two forms only
        # their intercepts.
        st = CategoryVector(fe=0.0, be=0.0, fdc=1.0)
        smt_i, smt_j = predict_pair(REFERENCE_COEFFICIENTS, st, st)
        want = (0.0072 + 0.9060 + 0.0044 + 0.0314) + 0.2376 + 0.2069
        assert want == pytest.approx(1.3935, abs=1e-12)
        assert smt_i[3] == pytest.approx(1.3935, abs=1e-12)
        assert smt_j[3] == smt_i[3]

    def test_identical_inputs_symmetric(self):
        st = CategoryVector(fe=0.22, be=0.47, fdc=0.31)
        smt_i, smt_j = predict_pair(REFERENCE_COEFFICIENTS, st, st)
        assert smt_i == smt_j

    def test_zero_model_zero_slowdowns(self):
        st_a = CategoryVector(fe=0.2, be=0.3, fdc=0.5)
        st_b = CategoryVector(fe=0.6, be=0.1, fdc=0.3)
        smt_i, smt_j = predict_pair(ZERO_MODEL, st_a, st_b)
        assert smt_i[3] == 0.0
        assert smt_j[3] == 0.0

    def test_direction_dependent(self):
        # A backend-heavy thread hurts its partner more than a
        # frontend-heavy one does under the reference backend form
        # (gamma > beta there), so the two directions must differ.
        be_heavy = CategoryVector(fe=0.05, be=0.80, fdc=0.15)
        fe_heavy = CategoryVector(fe=0.70, be=0.10, fdc=0.20)
        smt_i, smt_j = predict_pair(REFERENCE_COEFFICIENTS, be_heavy, fe_heavy)
        assert smt_i[3] != smt_j[3]

    def test_slowdown_is_sum_of_categories(self):
        st_a = CategoryVector(fe=0.25, be=0.45, fdc=0.30)
        st_b = CategoryVector(fe=0.40, be=0.20, fdc=0.40)
        for fdc, fe, be, slowdown in predict_pair(REFERENCE_COEFFICIENTS, st_a, st_b):
            assert slowdown == pytest.approx(fe + be + fdc, abs=1e-15)

    def test_per_category_matches_forward(self):
        st_a = CategoryVector(fe=0.33, be=0.33, fdc=0.34)
        st_b = CategoryVector(fe=0.10, be=0.70, fdc=0.20)
        smt_i, smt_j = predict_pair(REFERENCE_COEFFICIENTS, st_a, st_b)
        for k, name in enumerate(CATEGORIES):
            coeffs = REFERENCE_COEFFICIENTS.category(name)
            assert smt_i[k] == clamped_form(coeffs, st_a.get(name), st_b.get(name))
            assert smt_j[k] == clamped_form(coeffs, st_b.get(name), st_a.get(name))

    @settings(max_examples=300, deadline=None)
    @given(model=coefficient_models(), st_i=category_vectors(), st_j=category_vectors())
    def test_equals_the_clamped_form(self, model, st_i, st_j):
        # Each category value is the clamped form of the test oracle, bit for
        # bit, both ways round, and each slowdown is fdc + fe + be.
        smt_i, smt_j = predict_pair(model, st_i, st_j)
        want_i = [clamped_form(model.category(c), st_i.get(c), st_j.get(c)) for c in CATEGORIES]
        want_j = [clamped_form(model.category(c), st_j.get(c), st_i.get(c)) for c in CATEGORIES]
        assert bits(*smt_i[:3], *smt_j[:3]) == bits(*want_i, *want_j)
        for fdc, fe, be, slowdown in (smt_i, smt_j):
            assert same_bits(slowdown, fdc + fe + be)

    @settings(max_examples=300, deadline=None)
    @given(model=st.one_of(st.just(REFERENCE_COEFFICIENTS), forward_models()),
           st_i=category_vectors(), st_j=category_vectors())
    def test_equals_the_per_category_reference(self, model, st_i, st_j):
        # The plain-float kernel against the clamped form one category at a
        # time (tests/reference_simulator.py): the same floats, or the same error.
        assert repr(outcome(predict_pair, model, st_i, st_j)) == repr(outcome(
            reference_simulator.predict_pair, model, st_i, st_j
        ))


def scalar_pair_weights(model, vectors):
    """Every ``(i, j)`` pair weight through ``predict_pair``."""
    weights = {}
    for i, a in enumerate(vectors):
        for j, b in enumerate(vectors):
            if i != j:
                smt_i, smt_j = predict_pair(model, a, b)
                weights[(i, j)] = smt_i[3] + smt_j[3]
    return weights


def same_bits(x, y):
    """Whether two floats are the same float64, the sign of zero included."""
    return np.float64(x).tobytes() == np.float64(y).tobytes()


class TestPairWeightMatrix:
    """The roster's forward matrix (:func:`co_run_slowdowns` of a
    :func:`category_matrix`) and the pair weights :func:`build_graph`
    sums from it, against :func:`predict_pair` bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(model=st.one_of(st.just(REFERENCE_COEFFICIENTS), coefficient_models(), forward_models()),
           vectors=st.lists(category_vectors(), min_size=0, max_size=9))
    def test_bit_equal_to_predict_pair(self, model, vectors):
        ids = [f"t{i}" for i in range(len(vectors))]
        # In the model domain nothing leaves float range: numpy warns of no
        # overflow or invalid operation, every slowdown is at most
        # max_slowdown, and the graph's weights and prices are finite.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slowdowns = co_run_slowdowns(model, category_matrix(vectors))
            graph = decision_graph(model, ids, vectors)
        assert (slowdowns <= model.max_slowdown).all() and math.isfinite(model.max_slowdown)
        assert np.isfinite(graph.matrix).all() and np.isfinite(graph.prices).all()
        # Each thread's own entry, which replay logs as its model slowdown.
        assert slowdowns.shape == (len(vectors), len(vectors))
        for i, a in enumerate(vectors):
            for j, b in enumerate(vectors):
                smt_i, smt_j = predict_pair(model, a, b)
                assert same_bits(slowdowns[i, j], smt_i[3]) and same_bits(slowdowns[j, i], smt_j[3])
        weights = scalar_pair_weights(model, vectors)
        weight = {(a, b): graph.matrix[i, j]
                  for i, a in enumerate(graph.nodes) for j, b in enumerate(graph.nodes)}
        for (i, j), want in weights.items():
            assert same_bits(weight[ids[i], ids[j]], want)
        assert all(same_bits(weight[a, a], 0.0) for a in ids)

    def test_max_slowdown_of_the_reference_model(self):
        # The largest corners: fdc and be at (1, 1), fe at (1, any).
        assert REFERENCE_COEFFICIENTS.max_slowdown == pytest.approx(
            (0.0072 + 0.9060 + 0.0044 + 0.0314) + (0.2376 + 1.4111) + (0.2069 + 0.3431 + 1.4391),
            rel=1e-14,
        )
        assert round(REFERENCE_COEFFICIENTS.max_slowdown, 3) == 4.587

    def test_max_slowdown_bounds_rounding_on_a_flat_edge(self):
        # fdc = 0.1 + x + y - x * y is exactly 1.1 along y = 1, its largest
        # corner value, but the float form at x = 0.97 rounds above it.
        flat = CategoryCoefficients(alpha=0.1, beta=1.0, gamma=1.0, rho=-1.0)
        zero = CategoryCoefficients(alpha=0.0, beta=0.0, gamma=0.0, rho=0.0)
        model = ModelCoefficients(fdc=flat, fe=zero, be=zero)
        vectors = [CategoryVector(fe=0.03, be=0.0, fdc=0.97), CategoryVector(fe=0.0, be=0.0, fdc=1.0)]
        slowdown = co_run_slowdowns(model, category_matrix(vectors))[0, 1]
        assert slowdown > 0.1 + 1.0 + 1.0 - 1.0
        assert slowdown <= model.max_slowdown

    def test_clamp_at_zero_is_bit_equal(self):
        # Negative intercepts drive every category below zero for the
        # first two vectors, so both sides must clamp identically.
        negative = CategoryCoefficients(alpha=-0.9, beta=0.5, gamma=0.25, rho=-0.125)
        model = ModelCoefficients(fdc=negative, fe=REFERENCE_COEFFICIENTS.fe, be=negative)
        vectors = [
            CategoryVector(fe=1.0, be=0.0, fdc=0.0),
            CategoryVector(fe=0.5, be=0.25, fdc=0.25),
            CategoryVector(fe=0.1, be=0.2, fdc=0.7),
            CategoryVector(fe=0.0, be=1.0, fdc=0.0),
        ]
        assert category_value(model, "fdc", 0.0, 0.25) == 0.0
        matrix = decision_graph(model, ["a", "b", "c", "d"], vectors).matrix
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
        vectors = [data.draw(category_vectors()) for _ in ids]
        matrix = category_matrix(vectors)
        graph = build_graph(
            REFERENCE_COEFFICIENTS, ids, matrix, co_run_slowdowns(REFERENCE_COEFFICIENTS, matrix)
        )
        nodes = sorted([*ids, IDLE_NODE]) if len(ids) % 2 else ids
        assert graph.nodes == tuple(nodes)
        vector = dict(zip(ids, vectors))
        if len(ids) % 2 == 0:
            prices = fold_prices(REFERENCE_COEFFICIENTS, matrix).tolist()
            assert all(same_bits(p, q) for p, q in zip(graph.prices.tolist(), prices))
        # An odd roster's prices serve only the certificate: whatever they
        # are, the decision is the blossom's.
        assert min_weight_perfect_matching(graph) == blossom_decision(graph)
        for i, a in enumerate(nodes):
            for j, b in enumerate(nodes):
                if a == b:
                    want = 0.0
                elif IDLE_NODE in (a, b):
                    want = IDLE_WEIGHT
                else:
                    smt_a, smt_b = predict_pair(REFERENCE_COEFFICIENTS, vector[a], vector[b])
                    want = smt_a[3] + smt_b[3]
                assert same_bits(graph.matrix[i, j], want)

    def test_odd_mixed_case_roster_pads_idle_in_sort_order(self):
        ids = sorted(["beta", "Alpha", "_x", "Zed", "a1"])
        vectors = [CategoryVector(fe=0.2, be=0.5, fdc=0.3)] * len(ids)
        graph = decision_graph(REFERENCE_COEFFICIENTS, ids, vectors)
        assert graph.nodes == ("Alpha", "Zed", IDLE_NODE, "_x", "a1", "beta")
        idle = graph.nodes.index(IDLE_NODE)
        assert all(w == 1.0 for j, w in enumerate(graph.matrix[idle]) if j != idle)

    def test_non_finite_prediction_rejected(self):
        # A form whose slowdowns would leave float range is refused where
        # it is read, so no prediction ever meets it.
        with pytest.raises(ModelError, match=r"^coefficient alpha must be within "
                                             r"\+/-1e\+06, got 1e\+308$"):
            CategoryCoefficients(alpha=1e308, beta=1e308, gamma=1e308, rho=0.0)


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


#: Slack allowed on the fold partner's reduced cost, fixed before any
#: run: weights and prices here are below 20, so float rounding stays
#: near 1e-14, and any price error that matters is far above 1e-9.
FOLD_TOL = 1e-9


@st.composite
def fold_models(draw):
    """Models whose weights are exactly bilinear with one pair term: every
    coefficient non-negative (no clamp), ``rho`` positive in one category
    and zero in the others."""
    coeff = st.floats(0.0, 2.0)
    lead = draw(st.sampled_from(CATEGORIES))
    return ModelCoefficients(**{
        name: CategoryCoefficients(
            alpha=draw(coeff),
            beta=draw(coeff),
            gamma=draw(coeff),
            rho=draw(st.floats(1e-3, 2.0)) if name == lead else 0.0,
        )
        for name in CATEGORIES
    })


def fold_terms(model, vectors):
    """The pair weights ``w_ij`` (off the diagonal) and the fold prices of ``vectors``."""
    matrix = category_matrix(vectors)
    slowdowns = co_run_slowdowns(model, matrix)
    return slowdowns + slowdowns.T, fold_prices(model, matrix)


@st.composite
def fold_rosters(draw):
    """0 to 64 threads from a small pool of vectors, arbitrary or on a
    quarter grid, so rows repeat and leading values tie."""
    grid = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda t: sum(t) <= 4).map(
        lambda t: CategoryVector(fdc=t[0] / 4, fe=t[1] / 4, be=(4 - t[0] - t[1]) / 4))
    pool = draw(st.lists(st.one_of(category_vectors(), grid), min_size=1, max_size=8))
    return draw(st.lists(st.sampled_from(pool), min_size=0, max_size=64))


def rho_models(sign):
    """Models whose largest ``rho`` is positive (``sign`` 1) or at most 0 (``sign`` -1)."""
    rho = st.floats(1e-3, 2.0) if sign > 0 else st.one_of(st.floats(-2.0, 0.0), st.just(-0.0))
    coeff = st.floats(-2.0, 2.0)
    category = st.builds(CategoryCoefficients, alpha=coeff, beta=coeff, gamma=coeff, rho=rho)
    return st.builds(ModelCoefficients, fdc=category, fe=category, be=category)


class TestFoldPrices:
    @settings(max_examples=300, deadline=None)
    @given(model=st.one_of(st.just(REFERENCE_COEFFICIENTS), rho_models(1), rho_models(-1),
                           fold_models(), forward_models()),
           vectors=fold_rosters())
    def test_equals_the_numpy_fold_byte_for_byte(self, model, vectors):
        # The plain-float fold against the numpy expressions it replaced
        # (tests/reference_fold.py): a changed summation order shows here.
        matrix = category_matrix(vectors)
        got = fold_prices(model, matrix)
        assert got.shape == (len(vectors),)
        assert got.tobytes() == reference_fold.fold_prices(model, matrix).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        model=st.one_of(st.just(REFERENCE_COEFFICIENTS), fold_models()),
        vectors=st.lists(category_vectors(), min_size=2, max_size=16),
    )
    def test_least_reduced_cost_is_the_fold_partner(self, model, vectors):
        lead = max(CATEGORIES, key=lambda name: model.category(name).rho)
        x = [v.get(lead) for v in vectors]
        assume(len(set(x)) == len(x))
        n = len(vectors)
        weights, prices = fold_terms(model, vectors)
        order = sorted(range(n), key=x.__getitem__)
        for rank, i in enumerate(order):
            partner = order[n - 1 - rank]
            if partner == i:
                continue  # the middle thread of an odd roster folds onto itself
            reduced = [weights[i, j] - prices[j] for j in range(n) if j != i]
            assert weights[i, partner] - prices[partner] <= min(reduced) + FOLD_TOL

    @settings(max_examples=300, deadline=None)
    @given(
        model=st.one_of(st.just(REFERENCE_COEFFICIENTS), fold_models()),
        levels=st.integers(1, 8).flatmap(
            lambda half: st.lists(st.integers(0, 100), min_size=2 * half, max_size=2 * half, unique=True)
        ),
        data=st.data(),
    )
    def test_fold_partner_is_strictly_cheapest(self, model, levels, data):
        # Distinct leading values at least 0.01 apart on an even roster:
        # the fold partner's margin is at least rho * 1e-4, far above
        # float rounding, so it must beat every other column.
        lead = max(CATEGORIES, key=lambda name: model.category(name).rho)
        others = [name for name in CATEGORIES if name != lead]
        vectors = []
        for level in levels:
            x, split = level / 100.0, data.draw(st.floats(0.0, 1.0))
            rest = {others[0]: (1.0 - x) * split, others[1]: (1.0 - x) * (1.0 - split)}
            vectors.append(CategoryVector(**{lead: x}, **rest))
        n = len(vectors)
        weights, prices = fold_terms(model, vectors)
        order = sorted(range(n), key=levels.__getitem__)
        for rank, i in enumerate(order):
            partner = order[n - 1 - rank]
            reduced = [weights[i, j] - prices[j] for j in range(n) if j not in (i, partner)]
            assert min(reduced, default=math.inf) - (weights[i, partner] - prices[partner]) > 0.0

    def test_additive_part_only_without_positive_rho(self):
        model = ModelCoefficients(
            fdc=CategoryCoefficients(alpha=0.1, beta=0.5, gamma=0.25, rho=-0.5),
            fe=CategoryCoefficients(alpha=0.2, beta=1.0, gamma=0.0, rho=0.0),
            be=CategoryCoefficients(alpha=0.0, beta=0.25, gamma=0.5, rho=-1.0),
        )
        vectors = [
            CategoryVector(fe=0.5, be=0.25, fdc=0.25),
            CategoryVector(fe=0.0, be=0.5, fdc=0.5),
        ]
        # 0.3 + 1.0 * fe + 0.75 * be + 0.75 * fdc
        assert fold_prices(model, category_matrix(vectors)).tolist() == pytest.approx([1.175, 1.05], abs=1e-12)

    def test_fold_prices_of_a_reference_roster(self):
        # fdc carries the only pair term (rho 0.0314); with fdc values
        # 0.1 < 0.2 < 0.4 < 0.6 the fold pairs 0.1 with 0.6 and 0.2 with 0.4.
        vectors = [
            CategoryVector(fe=0.3, be=0.3, fdc=0.4),
            CategoryVector(fe=0.4, be=0.5, fdc=0.1),
            CategoryVector(fe=0.2, be=0.2, fdc=0.6),
            CategoryVector(fe=0.6, be=0.2, fdc=0.2),
        ]
        # Each step prices the rise at the midpoint of the two values it
        # folds onto: x_(n-1-l) + x_(n-2-l) for the step from rank l.
        ref = REFERENCE_COEFFICIENTS
        rho = ref.fdc.rho
        q_02 = rho * (0.2 - 0.1) * (0.6 + 0.4)
        q_04 = q_02 + rho * (0.4 - 0.2) * (0.4 + 0.2)
        q_06 = q_04 + rho * (0.6 - 0.4) * (0.2 + 0.1)
        q = [q_04, 0.0, q_06, q_02]
        alpha = sum(ref.category(c).alpha for c in CATEGORIES)
        want = [
            alpha
            + sum((ref.category(c).beta + ref.category(c).gamma) * v.get(c) for c in CATEGORIES)
            + qj
            for v, qj in zip(vectors, q)
        ]
        assert fold_prices(REFERENCE_COEFFICIENTS, category_matrix(vectors)).tolist() == pytest.approx(want, abs=1e-12)


class TestInvertCategory:
    def test_linear_intercept_observation_gives_zero(self):
        # With rho = 0, observing exactly the intercept on both sides
        # solves to (0, 0).
        for name in ("fe", "be"):
            coeffs = REFERENCE_COEFFICIENTS.category(name)
            x, y = invert_category(coeffs, coeffs.alpha, coeffs.alpha)
            assert x == pytest.approx(0.0, abs=1e-12)
            assert y == pytest.approx(0.0, abs=1e-12)

    def test_linear_exact_solve(self):
        # rho = 0 makes the two-equation system an exact 2x2 solve.
        coeffs = REFERENCE_COEFFICIENTS.be
        x_true, y_true = 0.62, 0.17
        u = reference_forward(coeffs, x_true, y_true)
        v = reference_forward(coeffs, y_true, x_true)
        x, y = invert_category(coeffs, u, v)
        assert x == pytest.approx(x_true, abs=1e-9)
        assert y == pytest.approx(y_true, abs=1e-9)

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
            x, y = invert_category(coeffs, u, v)
            assert abs(x - x_true) < 1e-6
            assert abs(y - y_true) < 1e-6

    def test_singular_symmetric_fallback(self):
        # beta == gamma with rho = 0 leaves only x + y determined; the
        # solver picks the symmetric solution.
        coeffs = CategoryCoefficients(alpha=0.1, beta=0.5, gamma=0.5, rho=0.0)
        x, y = invert_category(coeffs, 0.6, 0.6)
        assert x == pytest.approx(0.5, abs=1e-12)
        assert y == pytest.approx(0.5, abs=1e-12)

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
            assert invert_category(coeffs, u, v) is None

    @settings(max_examples=300, deadline=None)
    @given(case=inversion_cases())
    def test_result_is_box_least_squares(self, case):
        # An exact result lies in the unit square and fits within the
        # residual tolerance; None comes back only when the least squares
        # over a dense grid of the square is outside that tolerance.
        coeffs, u, v = case
        solution = invert_category(coeffs, u, v)
        tolerance = 1e-8**2 * max(1.0, u * u + v * v)
        if solution is None:
            assert float(squared_residual(coeffs, GRID_X, GRID_Y, u, v).min()) > tolerance
        else:
            x, y = solution
            assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0
            assert squared_residual(coeffs, x, y, u, v) <= tolerance

    def test_non_finite_observation_rejected(self):
        coeffs = REFERENCE_COEFFICIENTS.fe
        with pytest.raises(ModelError):
            invert_category(coeffs, math.inf, 0.3)
        with pytest.raises(ModelError):
            invert_category(coeffs, 0.3, math.nan)

    def test_lone_root_far_from_the_seed_matches_the_reference(self):
        # beta and gamma 9e-13 apart: the symmetric root -0.0 is the only
        # one in the square, while the linear seed is about 1e212 away, so
        # its distance overflows.  The kernel picks a lone root without a
        # distance, yet raises as the reference does.
        coeffs = CategoryCoefficients(alpha=0.0, beta=1.0, gamma=1.0 - 9e-13, rho=0.5)
        error = (ModelError, "inversion overflows: the form's values are beyond float range")
        assert outcome(invert_category, coeffs, 1e200, -1e200) == error
        assert outcome(reference_inversion.invert_category, coeffs, 1e200, -1e200) == error


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
            result = invert(REFERENCE_COEFFICIENTS, *co_run_triples(REFERENCE_COEFFICIENTS, st_a, st_b))
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
        assert result.st_i is None and result.st_j is None

    def test_consistent_pair_not_degraded(self):
        st = CategoryVector(fe=0.3, be=0.3, fdc=0.4)
        result = invert(REFERENCE_COEFFICIENTS, *co_run_triples(REFERENCE_COEFFICIENTS, st, st))
        assert not result.degraded


def bits(*values):
    """Floats as their exact bit patterns (``-0.0`` differs from ``0.0``)."""
    return tuple(float(x).hex() for x in values)


def solution_bits(solution):
    """An exact solution's bits, or None."""
    return None if solution is None else bits(*solution)


def vector_bits(vector):
    return None if vector is None else bits(*(vector.get(n) for n in CATEGORIES))


def result_bits(result):
    return vector_bits(result.st_i), vector_bits(result.st_j), result.degraded


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of the ModelError it raises."""
    try:
        return fn(*args)
    except ModelError as exc:
        return ModelError, str(exc)


@st.composite
def oracle_forms(draw):
    """One category's form: arbitrary, ``rho = 0``, ``beta = +/-gamma``,
    all zero, a singular line ``x + y = -(beta + gamma) / rho`` of the
    Jacobian crossing the unit square, or a reference form."""
    kind = draw(st.sampled_from(
        ["any", "linear", "beta_eq_gamma", "beta_eq_minus_gamma", "zero", "singular_line",
         "reference"]
    ))
    if kind == "reference":
        return REFERENCE_COEFFICIENTS.category(draw(st.sampled_from(CATEGORIES)))
    coeff = st.floats(-2.0, 2.0)
    alpha, beta, gamma, rho = (draw(coeff) for _ in range(4))
    if kind == "linear":
        rho = 0.0
    elif kind == "beta_eq_gamma":
        gamma = beta
    elif kind == "beta_eq_minus_gamma":
        gamma = -beta
    elif kind == "zero":
        alpha = beta = gamma = rho = 0.0
    elif kind == "singular_line":
        rho = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.05, 2.0))
        line = draw(st.floats(0.05, 1.95))
        half_gap = draw(st.floats(-1.0, 1.0).filter(lambda h: abs(h) > 1e-3))
        beta, gamma = -0.5 * rho * line + half_gap, -0.5 * rho * line - half_gap
    return CategoryCoefficients(alpha=alpha, beta=beta, gamma=gamma, rho=rho)


@st.composite
def oracle_observations(draw, model):
    """A pair's co-run triples: the model's exact forward prediction, that
    prediction with noise (clamped at zero), or replay-style normalized
    fractions, which the model rarely fits and so mostly degrade."""
    kind = draw(st.sampled_from(["exact", "noisy", "fractions"]))
    if kind == "fractions":
        return tuple(CategoryTriple(**draw(category_vectors()).as_dict()) for _ in range(2))
    pred = co_run_triples(model, draw(category_vectors()), draw(category_vectors()))
    if kind == "exact":
        return pred
    noise = st.floats(-0.05, 0.05)
    return tuple(
        CategoryTriple(**{n: max(0.0, smt.get(n) + draw(noise)) for n in CATEGORIES})
        for smt in pred
    )


class TestInversionOracle:
    """The plain-float kernel against the step-by-step solver it replaced
    (``tests/reference_inversion.py``): the same floats, bit for bit."""

    @settings(max_examples=600, deadline=None)
    @given(forms=st.tuples(oracle_forms(), oracle_forms(), oracle_forms()), data=st.data())
    def test_invert_equals_the_reference(self, forms, data):
        model = ModelCoefficients(fdc=forms[0], fe=forms[1], be=forms[2])
        smt_ij, smt_ji = data.draw(oracle_observations(model))
        got = outcome(invert, model, smt_ij, smt_ji)
        want = outcome(reference_inversion.invert, model, smt_ij, smt_ji)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert result_bits(got) == result_bits(want)

    @settings(max_examples=600, deadline=None)
    @given(case=st.one_of(inversion_cases(), st.tuples(oracle_forms(), st.floats(-3.0, 3.0),
                                                       st.floats(-3.0, 3.0))))
    def test_invert_category_equals_the_reference(self, case):
        got = invert_category(*case)
        assert solution_bits(got) == solution_bits(reference_inversion.invert_category(*case))

    def test_errors_match(self):
        coeffs = REFERENCE_COEFFICIENTS.fdc
        for u, v in [(math.inf, 0.3), (0.3, math.nan), (math.nan, math.inf)]:
            assert outcome(invert_category, coeffs, u, v) == outcome(
                reference_inversion.invert_category, coeffs, u, v
            )
        # An in-domain form whose linear seed meets inf - inf on huge
        # observations, so fe alone solves to NaN, which is no exact
        # solution: both degrade.
        wild = CategoryCoefficients(alpha=0.0, beta=1e6, gamma=5e5, rho=0.0)
        model = ModelCoefficients(fdc=REFERENCE_COEFFICIENTS.fdc, fe=wild, be=REFERENCE_COEFFICIENTS.be)
        smt_ij = CategoryTriple(fe=1e303, be=0.3, fdc=0.4)
        smt_ji = CategoryTriple(fe=1e303, be=0.3, fdc=0.4)
        got = result_bits(invert(model, smt_ij, smt_ji))
        assert got == result_bits(reference_inversion.invert(model, smt_ij, smt_ji)) == (None, None, True)

    @pytest.mark.parametrize("form, u, v", [
        # A root's distance from the linear seed is beyond float range.
        ((0.0, 1.0, 0.0, 1e-12), 1e300, 0.0),
    ], ids=["root-distance"])
    def test_overflowing_form_is_a_model_error(self, form, u, v):
        # An in-domain form with a tiny rho, next to observations beyond any
        # forward value: without the check, the distance ends in an
        # OverflowError.
        wild = CategoryCoefficients(*form)
        error = (ModelError, "inversion overflows: the form's values are beyond float range")
        got = outcome(invert_category, wild, u, v)
        assert got == outcome(reference_inversion.invert_category, wild, u, v) == error
        model = ModelCoefficients(fdc=REFERENCE_COEFFICIENTS.fdc, fe=wild, be=REFERENCE_COEFFICIENTS.be)
        smt_ij = CategoryTriple(fe=u, be=0.3, fdc=0.4)
        smt_ji = CategoryTriple(fe=v, be=0.3, fdc=0.4)
        got = outcome(invert, model, smt_ij, smt_ji)
        assert got == outcome(reference_inversion.invert, model, smt_ij, smt_ji) == error


class TestCoefficientSerialization:
    def test_json_round_trip(self):
        text = REFERENCE_COEFFICIENTS.to_json()
        restored = ModelCoefficients.from_json(text)
        assert restored == REFERENCE_COEFFICIENTS

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "coeffs.json")
        write_text(path, REFERENCE_COEFFICIENTS.to_json())
        assert ModelCoefficients.from_json(read_text(path)) == REFERENCE_COEFFICIENTS

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

    @pytest.mark.parametrize("name, key", [("fdc", "alpha"), ("fe", "rho"), ("be", "gamma")])
    def test_out_of_bound_coefficient_names_file_and_field(self, name, key):
        # The bound's error is the file's: it names the category and the field.
        doc = json.loads(REFERENCE_COEFFICIENTS.to_json())
        doc["categories"][name][key] = -1e300
        with pytest.raises(ModelError, match=rf"^bad coefficient file: {name}\.{key} must be within "
                                             r"\+/-1e\+06, got -1e\+300$"):
            ModelCoefficients.from_json(json.dumps(doc))

    def test_unknown_category_lookup_rejected(self):
        with pytest.raises(ModelError):
            REFERENCE_COEFFICIENTS.category("retire")
