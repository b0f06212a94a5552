"""Tests for pairing-graph construction and minimum-weight perfect
matching, checked against an independent exhaustive-enumeration oracle
using exact rational arithmetic."""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from synpa import (
    CategoryCoefficients,
    CategoryVector,
    IDLE_NODE,
    MatchingError,
    ModelCoefficients,
    ModelError,
    REFERENCE_COEFFICIENTS,
    SynergyGraph,
    build_graph,
    category_matrix,
    fold_prices,
    graph_from_matrix,
    min_weight_perfect_matching,
    predict_pair,
)
from synpa.dispatch import UNIFORM_VECTOR
from synpa.matcher import (
    IDLE_WEIGHT,
    _LIFT_SLACK,
    _assignment_start,
    _certified_fold,
    _check_certificate,
    _exact_scores,
    _lift,
    _scaled_costs,
    _score_units,
    _solve_blossom,
    _tight_matching,
)

from conftest import (
    blossom_decision, category_vectors, coefficient_models, decision_graph, idle_windows,
)


def graph_from_weights(weights):
    """The graph of an ``(a, b) -> weight`` mapping over an even roster."""
    nodes = sorted({n for pair in weights for n in pair})
    index = {a: i for i, a in enumerate(nodes)}
    matrix = np.full((len(nodes), len(nodes)), np.nan)
    for (a, b), w in weights.items():
        matrix[index[a], index[b]] = matrix[index[b], index[a]] = w
    return graph_from_matrix(nodes, matrix)


def edge_weights(graph):
    """Every edge of the graph as ``(a, b) -> weight`` with ``a < b``."""
    nodes, matrix = graph.nodes, graph.matrix
    return {
        (a, nodes[j]): matrix[i][j]
        for i, a in enumerate(nodes)
        for j in range(i + 1, len(nodes))
    }


def enumerate_matchings(nodes):
    """Yield every perfect matching as a sorted tuple of sorted pairs."""
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


def oracle_best(graph, with_ties=False):
    """Exact-arithmetic argmin: minimum total weight, ties broken toward
    the lexicographically smallest sorted pair list.  With ``with_ties``
    also return how many matchings reach the minimum weight."""
    fracs = {edge: Fraction(w) for edge, w in edge_weights(graph).items()}
    denom = 1
    for f in fracs.values():
        denom = max(denom, f.denominator)
    ints = {
        edge: f.numerator * (denom // f.denominator) for edge, f in fracs.items()
    }
    best_key = None
    ties = 0
    for pairs in enumerate_matchings(list(graph.nodes)):
        total = sum(ints[p] for p in pairs)
        key = (total, pairs)
        if best_key is None or total < best_key[0]:
            ties = 0
        if best_key is None or total <= best_key[0]:
            ties += 1
        if best_key is None or key < best_key:
            best_key = key
    return (best_key[1], ties) if with_ties else best_key[1]


def solve_dp(n, scores):
    """Exact subset-DP perfect matching on integer scores: the oracle the
    blossom and the fold certificate are checked against."""
    full = (1 << n) - 1
    best = {0: 0}
    choice = {}

    def solve(mask):
        if mask in best:
            return best[mask]
        i = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << i)
        best[mask], choice[mask] = min(
            (scores[i][j] + solve(rest ^ (1 << j)), (i, j))
            for j in range(i + 1, n)
            if rest >> j & 1
        )
        return best[mask]

    solve(full)
    pairs = []
    mask = full
    while mask:
        i, j = choice[mask]
        pairs.append((i, j))
        mask ^= (1 << i) | (1 << j)
    return pairs


def random_graph(rng, n, dyadic=False, ties=False):
    """Random complete graph; ``ties`` draws from four dyadic levels, so
    many matchings share the minimum weight exactly."""
    nodes = [f"t{i:02d}" for i in range(n)]
    weights = {}
    for i in range(n):
        for j in range(i + 1, n):
            if ties:
                w = rng.randrange(4, 8) / 4.0
            elif dyadic:
                w = rng.randrange(64, 256) / 64.0
            else:
                w = rng.uniform(1.0, 3.0)
            weights[(nodes[i], nodes[j])] = w
    return graph_from_weights(weights)


def model_vectors(rng, n):
    """``n`` random category vectors, every category above zero."""
    vectors = []
    for _ in range(n):
        parts = [rng.random() + 1e-3 for _ in range(3)]
        total = sum(parts)
        vectors.append(CategoryVector(*(x / total for x in parts)))
    return vectors


def model_graph(rng, n):
    """Pairing graph of ``n`` random category vectors under the reference
    model: near-additive weights, a cost per thread plus a small pair term."""
    ids = [f"t{i:02d}" for i in range(n)]
    return decision_graph(REFERENCE_COEFFICIENTS, ids, model_vectors(rng, n))


def networkx_pairs(nx, graph):
    """The matching networkx finds on the exact scores, as sorted pairs."""
    n = len(graph.nodes)
    scores, _ = _exact_scores(graph.matrix)
    top = max(max(row) for row in scores) + 1
    oracle = nx.Graph()
    for i in range(n):
        for j in range(i + 1, n):
            oracle.add_edge(i, j, weight=top - scores[i][j])
    mate = nx.max_weight_matching(oracle, maxcardinality=True)
    return tuple(sorted((graph.nodes[min(p)], graph.nodes[max(p)]) for p in mate))


def reference_vectors(n):
    """``n`` fixed, distinct category vectors."""
    return model_vectors(random.Random(n), n)


class TestBuildGraph:
    """The decision's graph: predicted pair weights and the model's fold prices."""

    def test_four_apps_six_edges(self):
        graph = decision_graph(REFERENCE_COEFFICIENTS, ["a", "b", "c", "d"], reference_vectors(4))
        assert graph.nodes == ("a", "b", "c", "d")
        assert len(edge_weights(graph)) == 6

    def test_edge_weight_is_sum_of_slowdowns(self):
        vectors = reference_vectors(4)
        graph = decision_graph(REFERENCE_COEFFICIENTS, ["a", "b", "c", "d"], vectors)
        (*_, slowdown_a), (*_, slowdown_b) = predict_pair(REFERENCE_COEFFICIENTS, vectors[0], vectors[1])
        assert edge_weights(graph)[("a", "b")] == slowdown_a + slowdown_b

    def test_odd_roster_adds_idle_node(self):
        # The idle node and the highest-priced thread are priced inside
        # their windows, the rest at their own fold prices, and the
        # decision certifies.
        vectors = reference_vectors(3)
        graph = decision_graph(REFERENCE_COEFFICIENTS, ["a", "b", "c"], vectors)
        assert graph.nodes == (IDLE_NODE, "a", "b", "c")
        for app in ("a", "b", "c"):
            assert edge_weights(graph)[(IDLE_NODE, app)] == IDLE_WEIGHT
        h, sub, (low_h, high_h), (low_idle, high_idle) = idle_windows(REFERENCE_COEFFICIENTS, vectors)
        prices = graph.prices.tolist()
        assert low_idle < prices[0] < high_idle
        assert low_h < prices[1 + h] < high_h
        assert [p for i, p in enumerate(prices[1:]) if i != h] == sub
        assert _certified_fold(graph.matrix, graph.prices) is not None

    def test_odd_roster_with_an_empty_window_matches_the_blossom(self):
        # Three copies of one vector: h's row ties between its copies, so
        # no price of h lets every other row prefer its own partner.
        vectors = reference_vectors(1) * 3
        h, _, (low_h, high_h), _ = idle_windows(REFERENCE_COEFFICIENTS, vectors)
        assert not low_h < high_h
        graph = decision_graph(REFERENCE_COEFFICIENTS, ["a", "b", "c"], vectors)
        assert min_weight_perfect_matching(graph) == blossom_decision(graph) == oracle_best(graph)

    def test_window_off_the_int64_scale_matches_the_blossom(self):
        # Prices of 3e6 and a weight of 1.1 open both windows in floats,
        # but no int64 scale holds 1.1 exactly once the prices fit: the
        # certificate cannot read the graph, and the blossom decides.
        flat = CategoryCoefficients(alpha=1e6, beta=0.0, gamma=0.0, rho=0.0)
        model = ModelCoefficients(fdc=flat, fe=flat, be=flat)
        st = category_matrix(reference_vectors(3))
        slowdown = np.array([[0.0, 0.75, 0.75], [0.75, 0.0, 0.55], [0.75, 0.55, 0.0]])
        graph = build_graph(model, ["a", "b", "c"], st, slowdown)
        assert _certified_fold(graph.matrix, graph.prices) is None
        assert min_weight_perfect_matching(graph) == blossom_decision(graph) == oracle_best(graph)

    def test_even_roster_has_no_idle_node(self):
        graph = decision_graph(REFERENCE_COEFFICIENTS, ["a", "b"], reference_vectors(2))
        assert IDLE_NODE not in graph.nodes

    def test_missing_pair_rejected(self):
        # Three vectors for four ids leave the pairs of "d" unpredicted.
        with pytest.raises(MatchingError):
            decision_graph(REFERENCE_COEFFICIENTS, ["a", "b", "c", "d"], reference_vectors(3))

    def test_self_pair_rejected(self):
        # A repeated id would pair a thread with itself.
        with pytest.raises(MatchingError):
            decision_graph(REFERENCE_COEFFICIENTS, ["a", "a"], reference_vectors(2))

    def test_reserved_idle_id_rejected(self):
        with pytest.raises(MatchingError):
            decision_graph(REFERENCE_COEFFICIENTS, [IDLE_NODE, "a"], reference_vectors(2))

    def test_non_finite_weight_rejected(self):
        # A form whose weights would leave float range is refused where it
        # is read, so no graph is ever built from it.
        with pytest.raises(ModelError, match="^coefficient alpha must be within "):
            CategoryCoefficients(alpha=1e308, beta=1e308, gamma=1e308, rho=0.0)


class TestSynergyGraph:
    def test_weight_lookup_is_symmetric(self):
        graph = decision_graph(REFERENCE_COEFFICIENTS, ["a", "b", "c", "d"], reference_vectors(4))
        assert (graph.matrix == graph.matrix.T).all()
        assert graph.matrix.diagonal().tolist() == [0.0] * 4

    def test_missing_edge_rejected(self):
        # An odd roster: the idle padding must not fill the missing pair.
        matrix = np.array([[0.0, 2.0, 2.0], [2.0, 0.0, np.nan], [2.0, np.nan, 0.0]])
        with pytest.raises(MatchingError):
            graph_from_matrix(("a", "b", "c"), matrix)

    def test_non_finite_weight_rejected(self):
        with pytest.raises(MatchingError):
            graph_from_matrix(("a", "b"), np.array([[0.0, math.nan], [math.nan, 0.0]]))

    @pytest.mark.parametrize(
        "nodes, matrix",
        [
            (("b", "a"), [[0.0, 1.0], [1.0, 0.0]]),  # unsorted
            (("a", "a"), [[0.0, 1.0], [1.0, 0.0]]),  # duplicate
            ((IDLE_NODE, "a"), [[0.0, 1.0], [1.0, 0.0]]),  # reserved id
            (("a", "b"), [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]),  # wrong shape
            (("a", "b"), [[0.0, 1.0], [2.0, 0.0]]),  # asymmetric
            (("a", "b"), [[0.0, -1.0], [-1.0, 0.0]]),  # negative
            (("a", "b"), [[0.0, math.inf], [math.inf, 0.0]]),  # non-finite
        ],
    )
    def test_graph_from_matrix_rejects_bad_input(self, nodes, matrix):
        with pytest.raises(MatchingError):
            graph_from_matrix(nodes, np.array(matrix))

    @pytest.mark.parametrize(
        "nodes, matrix, prices",
        [
            pytest.param(("b", "a"), [[0.0, 1.0], [1.0, 0.0]], [0.0, 0.0], id="unsorted"),
            pytest.param(("a", "b"), [[0.0, 1.0], [2.0, 0.0]], [0.0, 0.0], id="asymmetric"),
            pytest.param(("a", "b"), [[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0], id="diagonal"),
            pytest.param(("a", "b"), [[0.0, 1.0], [1.0, 0.0]], [0.0, math.nan], id="nan-price"),
            pytest.param(("a", "b"), [[0.0, 1.0], [1.0, 0.0]], [0.0], id="price-count"),
            *(
                pytest.param(("a", "b", "c", "d"), [[0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 1.0, w],
                                                    [1.0, 1.0, 0.0, 1.0], [1.0, w, 1.0, 0.0]],
                             [0.0] * 4, id=f"weight-{w}")
                for w in (math.nan, -math.inf, math.inf, -1.0)
            ),
            *(
                pytest.param(("a", "b"), [[0.0, 1.0], [1.0, 0.0]], [p, 0.0], id=f"price-{p}")
                for p in (-math.inf, math.inf)
            ),
        ],
    )
    def test_bad_graph_rejected(self, nodes, matrix, prices):
        with pytest.raises(MatchingError):
            SynergyGraph(nodes, matrix, prices)

    def test_signed_zero_weights_accepted(self):
        # -0.0 is neither negative nor non-finite, off the diagonal or on it,
        # and an empty roster has no weight to test.
        matrix = np.array([[-0.0, -0.0], [-0.0, -0.0]])
        assert SynergyGraph(("a", "b"), matrix, [0.0, 0.0]).matrix.tobytes() == matrix.tobytes()
        assert SynergyGraph((), np.zeros((0, 0)), []).nodes == ()

    def test_arrays_are_read_only(self):
        weights = np.array([[0.0, 1.0], [1.0, 0.0]])
        graph = graph_from_matrix(("a", "b"), weights, [1.0, 2.0])
        weights[0, 1] = weights[1, 0] = 5.0  # the graph holds its own copy
        assert graph.matrix[0, 1] == 1.0
        with pytest.raises(ValueError):
            graph.matrix[0, 1] = 0.5
        with pytest.raises(ValueError):
            graph.prices[0] = 0.5


class TestMinWeightMatching:
    def test_two_cluster_example(self):
        graph = graph_from_weights(
            {
                ("a", "b"): 2.0,
                ("c", "d"): 2.0,
                ("a", "c"): 3.0,
                ("b", "d"): 3.0,
                ("a", "d"): 10.0,
                ("b", "c"): 10.0,
            }
        )
        assert min_weight_perfect_matching(graph) == (("a", "b"), ("c", "d"))

    def test_all_equal_weights_lexicographic_tie_break(self):
        for names in (["a", "b", "c", "d"], ["a", "b", "c", "d", "e", "f"]):
            weights = {
                (x, y): 1.0 for i, x in enumerate(names) for y in names[i + 1 :]
            }
            result = min_weight_perfect_matching(graph_from_weights(weights))
            want = tuple(
                (names[i], names[i + 1]) for i in range(0, len(names), 2)
            )
            assert result == want

    def test_exact_tie_broken_lexicographically(self):
        # {(a,b),(c,d)} and {(a,c),(b,d)} both total 4; the former sorts
        # first.
        graph = graph_from_weights(
            {
                ("a", "b"): 1.0,
                ("c", "d"): 3.0,
                ("a", "c"): 2.0,
                ("b", "d"): 2.0,
                ("a", "d"): 5.0,
                ("b", "c"): 5.0,
            }
        )
        assert min_weight_perfect_matching(graph) == (("a", "b"), ("c", "d"))

    def test_eight_nodes_match_enumeration_oracle(self):
        # 105 perfect matchings per instance, spanning many seeds.
        for seed in range(1000):
            rng = random.Random(seed)
            graph = random_graph(rng, 8)
            assert min_weight_perfect_matching(graph) == oracle_best(graph)

    @pytest.mark.parametrize("n", [2, 4, 6, 10])
    def test_small_sizes_match_enumeration_oracle(self, n):
        for seed in range(25):
            rng = random.Random(10_000 + 31 * n + seed)
            graph = random_graph(rng, n)
            assert min_weight_perfect_matching(graph) == oracle_best(graph)

    def test_large_instance_matches_enumeration_oracle(self):
        # 14 nodes, 135135 matchings enumerated.  The tie instances have
        # several minimum-weight matchings, so the fold certificate or the
        # blossom must apply the lexicographic tie-break.
        for seed, ties in ((3, False), (4, False), (3, True), (4, True)):
            rng = random.Random(seed)
            graph = random_graph(rng, 14, ties=ties)
            want_pairs, n_optimal = oracle_best(graph, with_ties=True)
            assert (n_optimal > 1) == ties
            assert min_weight_perfect_matching(graph) == want_pairs

    def test_dyadic_ties_match_enumeration_oracle(self):
        # Coarse dyadic weights produce frequent exact ties, forcing the
        # tie-break rule to agree with the oracle's.
        for seed in range(200):
            rng = random.Random(seed)
            graph = random_graph(rng, 6, dyadic=True)
            assert min_weight_perfect_matching(graph) == oracle_best(graph)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.sampled_from([2, 4, 6, 8, 10, 12]))
    def test_dp_and_blossom_agree_on_ties(self, data, n):
        levels = data.draw(
            st.lists(st.integers(0, 3), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
        )
        matrix = [[0.0] * n for _ in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for (i, j), level in zip(pairs, levels):
            matrix[i][j] = matrix[j][i] = 1.0 + level / 4.0
        scores, _ = _exact_scores(matrix)
        assert sorted(solve_dp(n, scores)) == sorted(_solve_blossom(n, scores))

    @pytest.mark.parametrize("n", [32, 64])
    def test_large_instance_matches_networkx(self, n):
        nx = pytest.importorskip("networkx")
        graphs = (
            random_graph(random.Random(n), n),
            random_graph(random.Random(n + 1), n, ties=True),
            model_graph(random.Random(n + 2), n),
        )
        for graph in graphs:
            assert min_weight_perfect_matching(graph) == networkx_pairs(nx, graph)

    def test_perfectness(self):
        for seed in range(20):
            rng = random.Random(777 + seed)
            n = rng.choice([2, 4, 6, 8, 10, 14])
            graph = random_graph(rng, n)
            result = min_weight_perfect_matching(graph)
            seen = [node for pair in result for node in pair]
            assert sorted(seen) == sorted(graph.nodes)
            assert len(result) == n // 2

    def test_odd_node_count_rejected(self):
        # graph_from_matrix pads an odd roster, so build an unpadded one.
        ones = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        with pytest.raises(MatchingError, match=f"pad with {IDLE_NODE!r}"):
            SynergyGraph(("a", "b", "c"), ones, [0.0] * 3)

    def test_empty_graph(self):
        assert min_weight_perfect_matching(graph_from_matrix((), np.zeros((0, 0)))) == ()

    def test_add_constant_leaves_selection_unchanged(self):
        # Adding c to every edge adds the same c * (n/2) to every
        # perfect matching, so the argmin is invariant; dyadic weights
        # keep the shift exact in float arithmetic.
        for seed in range(50):
            rng = random.Random(seed)
            graph = random_graph(rng, 8, dyadic=True)
            base = min_weight_perfect_matching(graph)
            shifted = graph_from_matrix(graph.nodes, np.array(graph.matrix) + 0.5)
            assert min_weight_perfect_matching(shifted) == base

    def test_scale_leaves_selection_unchanged(self):
        for seed in range(50):
            rng = random.Random(seed)
            graph = random_graph(rng, 8, dyadic=True)
            base = min_weight_perfect_matching(graph)
            for k in (2.0, 0.25):
                scaled = graph_from_matrix(graph.nodes, np.array(graph.matrix) * k)
                assert min_weight_perfect_matching(scaled) == base

    def test_idle_pairing_leaves_worst_fit_alone(self):
        weights = [[0.0, 2.1, 2.8], [2.1, 0.0, 2.9], [2.8, 2.9, 0.0]]
        result = min_weight_perfect_matching(graph_from_matrix(("a", "b", "c"), weights))
        # Best total pairs a with b (2.1 + 1.0) and leaves c alone.
        assert result == ((IDLE_NODE, "c"), ("a", "b"))


@st.composite
def start_instances(draw):
    """Even-sized score matrices: ``random_graph`` weights, ties included,
    and model-driven weights of random category vectors under the
    reference or a random interference model (odd rosters padded idle)."""
    kind = draw(st.sampled_from(["uniform", "ties", "model"]))
    if kind == "model":
        model = draw(st.one_of(st.just(REFERENCE_COEFFICIENTS), coefficient_models()))
        vectors = draw(st.lists(category_vectors(), min_size=2, max_size=12))
        ids = [f"t{i:02d}" for i in range(len(vectors))]
        matrix = decision_graph(model, ids, vectors).matrix
    else:
        n = draw(st.sampled_from([2, 4, 6, 8, 10, 12]))
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        matrix = random_graph(rng, n, ties=kind == "ties").matrix
    return len(matrix), _exact_scores(matrix)[0]


class TestAssignmentStart:
    """The blossom solver's start from an optimal fractional matching."""

    @settings(max_examples=300, deadline=None)
    @given(instance=start_instances())
    def test_start_is_feasible_and_tight(self, instance):
        n, scores = instance
        lab, mate = _assignment_start(n, scores)
        w2 = [[-4 * s for s in row] for row in scores]
        assert all(x % 2 == 0 for x in lab)
        for u in range(n):
            for v in range(u + 1, n):
                assert lab[u] + lab[v] >= w2[u][v]
            if mate[u] != -1:
                assert mate[mate[u]] == u
                assert lab[u] + lab[mate[u]] == w2[u][mate[u]]

    @settings(max_examples=300, deadline=None)
    @given(instance=start_instances())
    def test_blossom_equals_dp(self, instance):
        n, scores = instance
        assert sorted(_solve_blossom(n, scores)) == sorted(solve_dp(n, scores))

    def test_odd_cycles_leave_vertices_for_the_phases(self):
        # Two triangles and a 4-clique, weight 1 inside a group and 10
        # across.  The fractional optimum runs half-edges around each
        # triangle (weight 5 against 14 for any perfect matching), so the
        # start leaves one vertex of each triangle free and the blossom
        # phases must finish the matching.
        group = [0, 0, 0, 1, 1, 1, 2, 2, 2, 2]
        matrix = [
            [0.0 if i == j else 1.0 if group[i] == group[j] else 10.0 for j in range(10)]
            for i in range(10)
        ]
        scores, _ = _exact_scores(matrix)
        _, mate = _assignment_start(10, scores)
        free = [v for v in range(10) if mate[v] == -1]
        assert free == [2, 5]
        assert sorted(_solve_blossom(10, scores)) == sorted(solve_dp(10, scores))

    def test_model_driven_start_is_perfect(self):
        # On these graphs the fractional optimum is integral, so the start
        # alone is the matching and no blossom state is built.  A start
        # that lost this would still be optimal, only slow, and no
        # optimality test would notice.
        for seed in range(20):
            scores, _ = _exact_scores(model_graph(random.Random(seed), 16).matrix)
            _, mate = _assignment_start(16, scores)
            assert -1 not in mate


@st.composite
def priced_graphs(draw):
    """A 2-12 node graph (``random_graph`` weights, ties included, or the
    weights of random category vectors under the reference or a random
    model, odd rosters padded with the idle node) with one finite price
    per node: zeros, uniform in +-1e3 or +-1e300, or fold prices."""
    kind = draw(st.sampled_from(["uniform", "ties", "model"]))
    scales = [0.0, 1e3, 1e300]
    if kind == "model":
        model = draw(st.one_of(st.just(REFERENCE_COEFFICIENTS), coefficient_models()))
        vectors = draw(st.lists(category_vectors(), min_size=2, max_size=12))
        graph = decision_graph(model, [f"t{i:02d}" for i in range(len(vectors))], vectors)
        scales.append("fold")
    else:
        n = draw(st.sampled_from([2, 4, 6, 8, 10, 12]))
        graph = random_graph(random.Random(draw(st.integers(0, 2**32 - 1))), n, ties=kind == "ties")
    scale = draw(st.sampled_from(scales))
    if scale == "fold":
        return graph
    n = len(graph.nodes)
    price = st.floats(-scale, scale) if scale else st.just(0.0)
    return dataclasses.replace(graph, prices=draw(st.lists(price, min_size=n, max_size=n)))


class TestPricedStart:
    """Prices only seed the assignment start: no finite price changes a result."""

    @settings(max_examples=300, deadline=None)
    @given(graph=priced_graphs())
    def test_prices_never_change_the_result(self, graph):
        n = len(graph.nodes)
        scores, shift = _exact_scores(graph.matrix)
        # The blossom runs here even on graphs the public entry point
        # settles by the fold certificate.
        want = sorted(solve_dp(n, scores))
        assert sorted(_solve_blossom(n, scores, _score_units(graph.prices, shift))) == want
        unpriced = dataclasses.replace(graph, prices=np.zeros(n))
        assert min_weight_perfect_matching(graph) == min_weight_perfect_matching(unpriced)

    @pytest.mark.parametrize("n", [32, 64])
    def test_large_priced_instances_match_networkx(self, n):
        nx = pytest.importorskip("networkx")
        rng = random.Random(n + 3)
        ids = [f"t{i:02d}" for i in range(n)]
        model = decision_graph(REFERENCE_COEFFICIENTS, ids, model_vectors(rng, n))
        cases = [
            (model, model.prices),
            (model, [rng.uniform(-5.0, 5.0) for _ in range(n)]),
            (random_graph(rng, n), [rng.uniform(-1e3, 1e3) for _ in range(n)]),
            (random_graph(rng, n, ties=True), [rng.uniform(-5.0, 5.0) for _ in range(n)]),
        ]
        for graph, prices in cases:
            graph = dataclasses.replace(graph, prices=prices)
            assert min_weight_perfect_matching(graph) == networkx_pairs(nx, graph)

    def test_bad_prices_rejected(self):
        graph = random_graph(random.Random(0), 10)
        for prices in ([0.0] * 9, [0.0] * 9 + [math.nan], [math.inf] + [0.0] * 9):
            with pytest.raises(MatchingError, match="finite"):
                dataclasses.replace(graph, prices=prices)
            with pytest.raises(MatchingError, match="prices"):
                graph_from_matrix(graph.nodes, graph.matrix, prices)


def draw_pairing(draw, n):
    """A random perfect matching of ``0..n-1``, as index pairs."""
    order = draw(st.permutations(range(n)))
    return [(order[k], order[k + 1]) for k in range(0, n, 2)]


def draw_planted(draw, n):
    """Weights with a random perfect matching at 1 and every other edge
    at 1.25 to 1.75 in quarter steps, and that matching: at zero prices
    every row's unique least weight is its planted partner."""
    weights = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            weights[i, j] = weights[j, i] = 1.0 + draw(st.integers(1, 3)) / 4.0
    pairs = draw_pairing(draw, n)
    for i, j in pairs:
        weights[i, j] = weights[j, i] = 1.0
    return weights, pairs


def tied_weights(n, edges):
    """``n`` x ``n`` weights: ``edges`` maps pairs to their weights, and
    every other edge weighs 1.5, so at zero prices the rows tie at their
    least listed weight."""
    weights = np.full((n, n), 1.5)
    for (i, j), w in edges.items():
        weights[i, j] = weights[j, i] = w
    np.fill_diagonal(weights, 0.0)
    return weights


@st.composite
def certificate_instances(draw):
    """A 2-16 node graph with one finite price per node.  Model kinds: the
    weights of category vectors (drawn freely, seeded random ones with
    distinct values, or copies of up to four drawn vectors and the
    uniform prior, as threads that share one estimate) under the
    reference or a random model, at their fold prices, odd rosters
    padded with the idle node.  Planted kinds: :func:`draw_planted` with
    up to two more edges, or a second perfect matching, at weight 1 too,
    so that rows tie at their least weight, at zero prices or prices on a
    quarter grid."""
    kind = draw(st.sampled_from(["model", "seeded", "copies", "planted"]))
    if kind != "planted":
        model = REFERENCE_COEFFICIENTS if draw(st.booleans()) else draw(coefficient_models())
        if kind == "model":
            vectors = draw(st.lists(category_vectors(), min_size=2, max_size=16))
        elif kind == "copies":
            pool = draw(st.lists(category_vectors(), min_size=1, max_size=4)) + [UNIFORM_VECTOR]
            vectors = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=16))
        else:
            vectors = model_vectors(random.Random(draw(st.integers(0, 2**32 - 1))), draw(st.integers(2, 16)))
        return decision_graph(model, [f"t{i:02d}" for i in range(len(vectors))], vectors)
    n = draw(st.sampled_from(range(2, 17, 2)))
    weights, _ = draw_planted(draw, n)
    if draw(st.booleans()):
        extra = draw_pairing(draw, n)
    else:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        extra = draw(st.lists(st.sampled_from(edges), max_size=2))
    for i, j in extra:
        weights[i, j] = weights[j, i] = 1.0
    grid = st.integers(-1, 1).map(lambda k: k / 4.0)
    prices = draw(st.one_of(st.just([0.0] * n), st.lists(grid, min_size=n, max_size=n)))
    return graph_from_matrix([f"t{i:02d}" for i in range(n)], weights, prices)


@st.composite
def headroom_instances(draw):
    """A 4-10 node graph with prices that would certify but that no
    int64 scale holds exactly: :func:`draw_planted` weights, which
    certify at zero prices, either all scaled by ``2**t`` with one
    planted pair below ``2**(t - 57)`` (its bits lie under the scale, and
    for large ``t`` it would underflow there), or against a price of
    magnitude at least ``2**60``, which pushes them under the scale."""
    n = draw(st.sampled_from([4, 6, 8, 10]))
    weights, pairs = draw_planted(draw, n)
    prices = [0.0] * n
    if draw(st.booleans()):
        t = draw(st.integers(-1000, 960))
        weights = np.ldexp(weights, t)
        low = draw(st.one_of(st.just(-1070), st.integers(-1070, t - 57)))
        i, j = pairs[0]
        weights[i, j] = weights[j, i] = math.ldexp(draw(st.floats(0.5, 1.0, exclude_max=True)), low)
    else:
        big = math.ldexp(draw(st.floats(1.0, 2.0, exclude_max=True)), draw(st.integers(60, 1023)))
        prices[draw(st.integers(0, n - 1))] = draw(st.sampled_from([big, -big]))
    return graph_from_matrix([f"t{i:02d}" for i in range(n)], weights, prices)


class TestFoldCertificate:
    """The int64 fold certificate that settles most decisions before the blossom."""

    @settings(max_examples=300, deadline=None)
    @given(graph=certificate_instances())
    def test_certified_pairs_are_the_dp_and_blossom_optimum(self, graph):
        n = len(graph.nodes)
        pairs = _certified_fold(graph.matrix, graph.prices)
        event(f"certified: {pairs is not None}")
        scores, shift = _exact_scores(graph.matrix)
        want = sorted(solve_dp(n, scores))
        if pairs is not None:
            assert sorted(pairs) == want
            assert sorted(_solve_blossom(n, scores, _score_units(graph.prices, shift))) == want
        assert min_weight_perfect_matching(graph) == tuple(
            sorted((graph.nodes[i], graph.nodes[j]) for i, j in want)
        )

    @settings(max_examples=200, deadline=None)
    @given(graph=headroom_instances())
    def test_weights_off_the_int64_scale_fall_back(self, graph):
        assert _certified_fold(graph.matrix, graph.prices) is None
        scores, _ = _exact_scores(graph.matrix)
        want = sorted(solve_dp(len(graph.nodes), scores))
        got = min_weight_perfect_matching(graph)
        assert got == tuple(sorted((graph.nodes[i], graph.nodes[j]) for i, j in want))

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_fold_prices_certify_model_graphs(self, n):
        # A certificate that rejected everything would still be exact,
        # only slow, and no optimality test would notice.  Rosters that
        # repeat vectors (every vector twice, or half the threads at the
        # uniform prior, as after degraded inversions) tie at every row.
        ids = [f"t{i:02d}" for i in range(n)]
        for seed in range(10):
            distinct = model_vectors(random.Random(seed), n)
            half = distinct[: n // 2]
            for vectors in (distinct, half * 2, half + [UNIFORM_VECTOR] * (n // 2)):
                graph = decision_graph(REFERENCE_COEFFICIENTS, ids, vectors)
                pairs = _certified_fold(graph.matrix, graph.prices)
                assert pairs is not None
                assert len(pairs) == n // 2

    def test_all_equal_weights_certify_to_the_dp_answer(self):
        # Every row ties everywhere: the tight graph is complete, and its
        # lexicographically smallest perfect matching is the tie-broken one.
        weights = np.ones((4, 4))
        np.fill_diagonal(weights, 0.0)
        scores, _ = _exact_scores(weights)
        assert _certified_fold(weights, np.zeros(4)) == [(0, 1), (2, 3)] == solve_dp(4, scores)

    @pytest.mark.parametrize("n, ones, want", [
        # One-edge components: row 0 ties at 1 and 2, but only 0-1 is
        # mutual, since 2's least weight is its edge to 3.
        pytest.param(4, {(0, 1): 1.0, (0, 2): 1.0, (2, 3): 0.75}, [(0, 1), (2, 3)], id="edges"),
        # Hubs 0-3 adjacent to all, 4 and 5 to the hubs only: singleton
        # parts around the part {4, 5}.  Hub 0 may take hub 1, but then
        # {4, 5} holds half of what is left, so hubs 2 and 3 take 4 and 5;
        # with an edge 6-7 beside it.
        pytest.param(
            8, {**{(i, j): 1.0 for i in range(4) for j in range(i + 1, 6)}, (6, 7): 1.0},
            [(0, 1), (2, 4), (3, 5), (6, 7)], id="hubs",
        ),
        # The complete bipartite graph between {0, 3, 4} and {1, 2, 5}.
        pytest.param(
            6, {(i, j): 1.0 for i in (0, 3, 4) for j in (1, 2, 5)},
            [(0, 1), (2, 3), (4, 5)], id="bipartite",
        ),
        # The complete tripartite graph K2,2,2 on {0, 3}, {1, 4}, {2, 5}:
        # 0 takes 1, then {2, 5} holds half of what is left, so 2 takes 3.
        pytest.param(
            6, {(i, j): 1.0 for i in range(6) for j in range(i + 1, 6) if i % 3 != j % 3},
            [(0, 1), (2, 3), (4, 5)], id="tripartite",
        ),
    ])
    def test_tight_shapes_certify(self, n, ones, want):
        weights = tied_weights(n, ones)
        scores, _ = _exact_scores(weights)
        assert sorted(_certified_fold(weights, np.zeros(n))) == want == sorted(solve_dp(n, scores))

    @pytest.mark.parametrize("n, ones", [
        # Hubs 0-2 and others 3, 4: a component of five; a tied triangle
        # 5-7 beside it.
        pytest.param(8, {
            **{(i, j): 1.0 for i in range(3) for j in range(i + 1, 5)},
            **{(i, j): 1.0 for i in range(5, 8) for j in range(i + 1, 8)},
        }, id="odd-hubs"),
        # A tied triangle whose rows all want it, and a fourth node that
        # wants the triangle too.
        pytest.param(4, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}, id="triangle"),
        # Hubs 0-4 around others 5-11: the others' part holds more than
        # half, so the tight graph has no perfect matching.
        pytest.param(12, {(i, j): 1.0 for i in range(5) for j in range(i + 1, 12)}, id="5-hubs-7-others"),
    ])
    def test_unmatched_tight_shapes_fall_back(self, n, ones):
        weights = tied_weights(n, ones)
        scores, _ = _exact_scores(weights)
        want = sorted(solve_dp(n, scores))
        pairs = _certified_fold(weights, np.zeros(n))
        assert pairs is None or sorted(pairs) == want
        nodes = [f"t{i:02d}" for i in range(n)]
        got = min_weight_perfect_matching(graph_from_matrix(nodes, weights))
        assert got == tuple((nodes[i], nodes[j]) for i, j in want)


@st.composite
def tight_graphs(draw):
    """A symmetric boolean adjacency matrix of 1-10 vertices with a false
    diagonal: either any such matrix, or a union of complete multipartite
    components with random part sizes, its vertices in random order."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 10))
        tight = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                tight[i, j] = tight[j, i] = draw(st.booleans())
        return tight
    sizes = st.lists(st.integers(1, 3), min_size=2, max_size=4)
    labels = [  # (component, part) of each vertex
        (c, p) for c, parts in enumerate(draw(st.lists(sizes, min_size=1, max_size=2)))
        for p, size in enumerate(parts) for _ in range(size)
    ][:10]
    labels = draw(st.permutations(labels))
    n = len(labels)
    tight = np.zeros((n, n), dtype=bool)
    for i, (ci, pi) in enumerate(labels):
        for j, (cj, pj) in enumerate(labels):
            tight[i, j] = ci == cj and pi != pj
    return tight


def readable_by_the_tie_rule(adjacent):
    """Whether every connected component is complete multipartite, even,
    and has no part holding more than half of it.  Within a complete
    multipartite component, non-adjacency is an equivalence whose classes
    are the parts."""
    n = len(adjacent)
    seen = set()
    for root in range(n):
        if root in seen:
            continue
        component, todo = {root}, [root]
        while todo:
            u = todo.pop()
            new = {w for w in range(n) if adjacent[u][w]} - component
            component |= new
            todo += new
        seen |= component
        apart = {u: frozenset(w for w in component if not adjacent[u][w]) for u in component}
        if any(apart[w] != apart[u] for u in component for w in apart[u]):
            return False
        if len(component) % 2 or any(2 * len(c) > len(component) for c in apart.values()):
            return False
    return True


def lexicographic_matching(adjacent):
    """The lexicographically smallest perfect matching of a graph as a
    sorted pair list, by brute force, or None if it has none."""
    def match(free):
        if not free:
            return []
        v, rest = free[0], free[1:]
        for w in rest:
            if adjacent[v][w]:
                tail = match([x for x in rest if x != w])
                if tail is not None:
                    return [(v, w)] + tail
        return None

    return match(list(range(len(adjacent))))


class TestTieRule:
    """``_tight_matching`` reads exactly the tight graphs whose components
    are complete multipartite, even and without a part over half."""

    @settings(max_examples=500, deadline=None)
    @given(tight=tight_graphs())
    # 0 and 1 share the neighbours 2 and 3, and each has one more: the
    # part {2, 3} spans {0, 1, 2, 3} but does not make it a component.
    @example(tight=tied_weights(6, dict.fromkeys([(0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4)],
                                                 1.0)) == 1.0)
    def test_tie_rule_is_the_lexicographic_matching_or_none(self, tight):
        adjacent = tight.tolist()
        got = _tight_matching(tight)
        readable = readable_by_the_tie_rule(adjacent)
        event(f"readable: {readable}")
        if readable:
            assert got is not None and sorted(got) == lexicographic_matching(adjacent)
        else:
            assert got is None


#: The largest float below ``2**58``: magnitudes at the top of the
#: certificate's int64 scale.
TOP = 2.0**58 - 32.0


@st.composite
def odd_rosters(draw):
    """An odd roster of 3-33 threads, with ids on both sides of
    :data:`IDLE_NODE` in sort order, under the reference or a random
    model: category vectors drawn freely, seeded random ones with
    distinct values, or copies of up to four drawn vectors and the
    uniform prior, so that rows tie."""
    n = draw(st.sampled_from(range(3, 34, 2)))
    model = draw(st.one_of(st.just(REFERENCE_COEFFICIENTS), coefficient_models()))
    kind = draw(st.sampled_from(["seeded", "drawn", "copies"]))
    if kind == "drawn":
        vectors = draw(st.lists(category_vectors(), min_size=n, max_size=n))
    elif kind == "seeded":
        vectors = model_vectors(random.Random(draw(st.integers(0, 2**32 - 1))), n)
    else:
        pool = draw(st.lists(category_vectors(), min_size=1, max_size=4)) + [UNIFORM_VECTOR]
        vectors = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return model, sorted(f"{'Tt'[i % 2]}{i:02d}" for i in range(n)), vectors


def strict_fold(weights, prices, margin):
    """Whether every row's least ``weights[i][j] - prices[j]`` (``j != i``)
    leads its runner-up by more than ``margin`` and the least entries pair
    the rows up."""
    sigma = []
    for i, row in enumerate(weights):
        costs = sorted((w - p, j) for j, (w, p) in enumerate(zip(row, prices)) if j != i)
        if len(costs) > 1 and costs[1][0] - costs[0][0] <= margin:
            return False
        sigma.append(costs[0][1])
    return all(sigma[j] == i for i, j in enumerate(sigma))


class TestIdlePricing:
    """Odd rosters: the idle node and the highest-priced thread priced
    inside their windows (``matcher._idle_prices``)."""

    @settings(max_examples=120, deadline=None)
    @given(case=odd_rosters())
    def test_odd_rosters_match_the_blossom_and_certify_inside_the_windows(self, case):
        model, ids, vectors = case
        graph = decision_graph(model, ids, vectors)
        n = len(graph.nodes)
        scores, _ = _exact_scores(graph.matrix)
        want = sorted(_solve_blossom(n, scores))
        if n <= 12:
            assert sorted(solve_dp(n, scores)) == want
        assert min_weight_perfect_matching(graph) == tuple(
            sorted((graph.nodes[i], graph.nodes[j]) for i, j in want)
        )
        # Both windows open and the rest's own fold strict, each by a
        # margin far above the certificate's int64 units, and every weight
        # on the coarsest scale any of these prices can need: then the
        # certificate settles the decision on its own.
        h, sub, *windows = idle_windows(model, vectors)
        rest = [graph.nodes.index(a) for k, a in enumerate(ids) if k != h]
        weights = graph.matrix[np.ix_(rest, rest)].tolist()
        prices = fold_prices(model, category_matrix(vectors)).tolist()
        bound = max(1.0, graph.matrix.max(), *map(abs, prices + sub))
        margin = math.ldexp(bound, -40)
        scale = 58 - math.frexp(4 * bound)[1]
        premise = (
            all(low + margin < high for low, high in windows)
            and strict_fold(weights, sub, margin)
            and all(math.ldexp(w, scale).is_integer() for w in graph.matrix.ravel().tolist())
        )
        event(f"windows open: {premise}")
        if premise:
            pairs = _certified_fold(graph.matrix, graph.prices)
            assert pairs is not None and sorted(pairs) == want

    @pytest.mark.parametrize("n", [15, 33, 63])
    def test_reference_odd_rosters_certify(self, n):
        # As test_fold_prices_certify_model_graphs on even rosters: distinct
        # vectors, and half the threads at the uniform prior.  (A copy of
        # the idle node's thread ties with it, so those rosters may not.)
        ids = [f"t{i:02d}" for i in range(n)]
        for seed in range(10):
            distinct = model_vectors(random.Random(seed), n)
            for vectors in (distinct, distinct[: n // 2] + [UNIFORM_VECTOR] * (n - n // 2)):
                graph = decision_graph(REFERENCE_COEFFICIENTS, ids, vectors)
                assert _certified_fold(graph.matrix, graph.prices) is not None


def python_costs(weights, prices):
    """``R = S - P`` of the fold certificate and the lift, in Python
    integers: the values its int64 arrays must hold."""
    n = len(prices)
    e = 58 - math.frexp(max(max(map(max, weights)), max(prices), -min(prices)))[1]
    s = [[int(math.ldexp(w, e)) for w in row] for row in weights]
    p = [int(math.ldexp(x, e)) for x in prices]  # rounded toward zero
    r = [[s[i][j] - p[j] for j in range(n)] for i in range(n)]
    lift = [0] * n
    for value in set(p):
        group = [i for i in range(n) if p[i] == value]
        if len(group) < 2:
            continue
        row = r[group[0]]
        least = min(x for j, x in enumerate(row) if j != group[0])
        near = {j: x - least for j, x in enumerate(row) if j != group[0] and x - least <= _LIFT_SLACK}
        for j, step in near.items():
            lift[j] = max(lift[j], step)
        own = [step for j, step in near.items() if j in group]
        for j in group:
            lift[j] = max(lift[j], max(own, default=0))
    return r, lift


@st.composite
def extreme_cost_instances(draw):
    """A 2-10 node graph at the top of the certificate's int64 scale:
    weights up to ``TOP`` and prices at about ``+-TOP``, shared by copies,
    with many entries within ``_LIFT_SLACK`` of each other, all scaled by
    a common power of two no greater than 1."""
    n = draw(st.sampled_from(range(2, 11, 2)))
    near = st.integers(0, _LIFT_SLACK // 32).map(lambda k: 32.0 * k)
    level = st.sampled_from([0.0, 2.0**57, TOP - _LIFT_SLACK])
    weights = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            weights[i, j] = weights[j, i] = draw(level) + draw(near)
    pool = draw(st.lists(st.sampled_from([TOP, -TOP, 0.0]).flatmap(
        lambda x: near.map(lambda d: x - d if x > 0 else x + d)), min_size=1, max_size=3))
    prices = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    t = draw(st.sampled_from([-40, -8, 0]))
    return np.ldexp(weights, t), np.ldexp(prices, t)


class TestInt64Headroom:
    """numpy int64 array arithmetic wraps without a warning, so the
    certificate's costs are checked against Python integers at the top of
    its scale."""

    def check(self, weights, prices):
        r, lift = python_costs(weights.tolist(), prices.tolist())
        reduced, units = _scaled_costs(weights, prices)
        got_lift = _lift(reduced, units)
        lifted = reduced - got_lift
        n = len(prices)
        off = ~np.eye(n, dtype=bool)
        assert reduced[off].tolist() == [r[i][j] for i in range(n) for j in range(n) if i != j]
        assert got_lift.tolist() == lift
        assert lifted[off].tolist() == [
            r[i][j] - lift[j] for i in range(n) for j in range(n) if i != j
        ]
        assert all(abs(r[i][j] - lift[j]) < 2**60 for i in range(n) for j in range(n))
        return r, lift

    def test_planted_extremes(self):
        # Copies {0, 1} at price -TOP and {2, 3} at +TOP: row 0 has its
        # least entry at column 2 and column 3 exactly the slack above it;
        # edges of weight TOP against price -TOP give R near 2**59.
        weights = np.full((6, 6), TOP)
        weights[0, 2] = weights[2, 0] = 0.0
        weights[0, 3] = weights[3, 0] = float(_LIFT_SLACK)
        np.fill_diagonal(weights, 0.0)
        prices = np.array([-TOP, -TOP, TOP, TOP, 0.0, 2.0**57])
        r, lift = self.check(weights, prices)
        assert max(lift) == _LIFT_SLACK
        assert max(map(max, r)) == 2 * int(TOP) and min(map(min, r)) == -int(TOP)

    @settings(max_examples=200, deadline=None)
    @given(instance=extreme_cost_instances())
    def test_int64_costs_equal_python_integers(self, instance):
        self.check(*instance)


class TestCertificate:
    """The blossom result's dual certificate check on hand-built duals.

    Six vertices; the matching {01, 23, 45} weighs 10 per edge (``w2``
    is twice the weight), every other edge 0, and all duals 5 make it
    tight and every other edge slack by 10.
    """

    def setup_method(self):
        self.n = 6
        self.w2 = [[0] * 6 for _ in range(6)]
        for u in (0, 2, 4):
            self.w2[u][u + 1] = self.w2[u + 1][u] = 10
        self.mate = [1, 0, 3, 2, 5, 4]
        self.lab = [5] * 6

    def check(self, blossoms=None):
        _check_certificate(self.n, self.w2, self.mate, self.lab, blossoms or {})

    def test_valid_certificate_passes(self):
        self.check()
        # A positive dual on the full blossom {0, 1, 2}, offset on the
        # vertex duals so that 01 and 23 stay tight.
        self.lab = [4, 4, 4, 6, 5, 5, 2]
        self.check({6: [0, 1, 2]})

    def test_untight_matched_edge_rejected(self):
        self.mate = [2, 3, 0, 1, 5, 4]
        with pytest.raises(MatchingError, match="not tight"):
            self.check()

    def test_negative_slack_rejected(self):
        self.lab[0] = 3
        with pytest.raises(MatchingError, match="negative reduced slack"):
            self.check()

    def test_positive_dual_on_non_full_blossom_rejected(self):
        self.lab += [2]
        with pytest.raises(MatchingError, match="not full"):
            self.check({6: [0, 2, 4]})

    def test_negative_blossom_dual_rejected(self):
        self.lab += [-2]
        with pytest.raises(MatchingError, match="negative dual"):
            self.check({6: [0, 1, 2]})

    def test_imperfect_matching_rejected(self):
        self.mate = [1, 0, -1, -1, 5, 4]
        with pytest.raises(MatchingError, match="no perfect matching"):
            self.check()


class TestEndToEndWithInterferenceModel:
    def _roster_vectors(self):
        return {
            "app0": CategoryVector(fe=0.10, be=0.70, fdc=0.20),
            "app1": CategoryVector(fe=0.55, be=0.15, fdc=0.30),
            "app2": CategoryVector(fe=0.25, be=0.35, fdc=0.40),
            "app3": CategoryVector(fe=0.40, be=0.40, fdc=0.20),
            "app4": CategoryVector(fe=0.05, be=0.85, fdc=0.10),
            "app5": CategoryVector(fe=0.60, be=0.10, fdc=0.30),
        }

    def _graph(self, vectors, scale=1.0):
        """The roster's graph with every predicted slowdown scaled by ``scale``."""
        apps = sorted(vectors)
        weights = np.zeros((len(apps), len(apps)))
        for i, a in enumerate(apps):
            for j, b in enumerate(apps[i + 1 :], start=i + 1):
                (*_, slowdown_a), (*_, slowdown_b) = predict_pair(REFERENCE_COEFFICIENTS, vectors[a], vectors[b])
                weights[i, j] = weights[j, i] = slowdown_a * scale + slowdown_b * scale
        return graph_from_matrix(apps, weights)

    def test_uniform_slowdown_scaling_preserves_selection(self):
        vectors = self._roster_vectors()
        base = min_weight_perfect_matching(self._graph(vectors))
        for k in (2.0, 0.25, 3.0):
            assert min_weight_perfect_matching(self._graph(vectors, scale=k)) == base

    def test_model_driven_matching_agrees_with_oracle(self):
        vectors = self._roster_vectors()
        apps = sorted(vectors)
        graph = decision_graph(REFERENCE_COEFFICIENTS, apps, [vectors[a] for a in apps])
        assert min_weight_perfect_matching(graph) == oracle_best(graph)
