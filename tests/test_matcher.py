"""Tests for pairing-graph construction and minimum-weight perfect
matching, checked against an independent exhaustive-enumeration oracle
using exact rational arithmetic."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synpa import (
    CategoryTriple,
    CategoryVector,
    IDLE_NODE,
    MatchingError,
    PairPrediction,
    REFERENCE_COEFFICIENTS,
    SynergyGraph,
    build_graph,
    graph_from_matrix,
    min_weight_perfect_matching,
    pair_weight_matrix,
    predict_pair,
)
from synpa.matcher import (
    _assignment_start,
    _check_certificate,
    _exact_scores,
    _solve_blossom,
    _solve_dp,
)

from conftest import category_vectors, coefficient_models

_ZERO_TRIPLE = CategoryTriple(fe=0.0, be=0.0, fdc=0.0)


def make_prediction(slowdown_i, slowdown_j):
    return PairPrediction(
        smt_i=_ZERO_TRIPLE,
        smt_j=_ZERO_TRIPLE,
        slowdown_i=slowdown_i,
        slowdown_j=slowdown_j,
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


def model_graph(rng, n):
    """Pairing graph of ``n`` random category vectors under the reference
    model: near-additive weights, a cost per thread plus a small pair term."""
    vectors = []
    for _ in range(n):
        parts = [rng.random() + 1e-3 for _ in range(3)]
        total = sum(parts)
        vectors.append(CategoryVector(*(x / total for x in parts)))
    ids = [f"t{i:02d}" for i in range(n)]
    return graph_from_matrix(ids, pair_weight_matrix(REFERENCE_COEFFICIENTS, vectors))


class TestBuildGraph:
    def test_four_apps_six_edges(self):
        apps = ["a", "b", "c", "d"]
        predictions = {
            (x, y): make_prediction(1.1, 1.2)
            for i, x in enumerate(apps)
            for y in apps[i + 1 :]
        }
        graph = build_graph(predictions)
        assert graph.nodes == ("a", "b", "c", "d")
        assert len(edge_weights(graph)) == 6

    def test_edge_weight_is_sum_of_slowdowns(self):
        graph = build_graph(
            {
                ("a", "b"): make_prediction(1.2, 1.4),
                ("a", "c"): make_prediction(1.0, 1.0),
                ("b", "c"): make_prediction(1.0, 1.0),
                ("a", "d"): make_prediction(1.0, 1.0),
                ("b", "d"): make_prediction(1.0, 1.0),
                ("c", "d"): make_prediction(1.0, 1.0),
            }
        )
        assert edge_weights(graph)[("a", "b")] == pytest.approx(2.6, abs=1e-12)

    def test_odd_roster_adds_idle_node(self):
        predictions = {
            ("a", "b"): make_prediction(1.3, 1.2),
            ("a", "c"): make_prediction(1.4, 1.1),
            ("b", "c"): make_prediction(1.5, 1.6),
        }
        graph = build_graph(predictions)
        assert len(graph.nodes) == 4
        assert IDLE_NODE in graph.nodes
        for app in ("a", "b", "c"):
            assert edge_weights(graph)[(IDLE_NODE, app)] == 1.0

    def test_even_roster_has_no_idle_node(self):
        predictions = {("a", "b"): make_prediction(1.0, 1.0)}
        graph = build_graph(predictions)
        assert IDLE_NODE not in graph.nodes

    def test_missing_pair_rejected(self):
        predictions = {
            ("a", "b"): make_prediction(1.0, 1.0),
            ("a", "c"): make_prediction(1.0, 1.0),
            ("a", "d"): make_prediction(1.0, 1.0),
            ("b", "c"): make_prediction(1.0, 1.0),
            ("b", "d"): make_prediction(1.0, 1.0),
            # (c, d) missing
        }
        with pytest.raises(MatchingError):
            build_graph(predictions)

    def test_self_pair_rejected(self):
        with pytest.raises(MatchingError):
            build_graph({("a", "a"): make_prediction(1.0, 1.0)})

    def test_reserved_idle_id_rejected(self):
        with pytest.raises(MatchingError):
            build_graph({(IDLE_NODE, "a"): make_prediction(1.0, 1.0)})

    def test_negative_weight_rejected(self):
        with pytest.raises(MatchingError):
            build_graph({("a", "b"): make_prediction(-2.0, 0.5)})

    def test_non_finite_weight_rejected(self):
        with pytest.raises(MatchingError):
            build_graph({("a", "b"): make_prediction(math.inf, 1.0)})


class TestSynergyGraph:
    def test_weight_lookup_is_symmetric(self):
        graph = build_graph({("a", "b"): make_prediction(1.0, 1.5)})
        assert graph.matrix == [[0.0, 2.5], [2.5, 0.0]]

    def test_reversed_key_is_canonicalized(self):
        graph = build_graph({("b", "a"): make_prediction(1.0, 1.5)})
        assert graph.nodes == ("a", "b")
        assert graph.matrix[0][1] == 2.5

    def test_missing_edge_rejected(self):
        # An odd roster: the idle padding must not fill the missing pair.
        with pytest.raises(MatchingError):
            build_graph(
                {("a", "b"): make_prediction(1.0, 1.0), ("a", "c"): make_prediction(1.0, 1.0)}
            )

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
        # 14 nodes exceeds the subset-DP cutoff and exercises the
        # general matching backend; 135135 matchings enumerated.  The
        # tie instances have several minimum-weight matchings, so the
        # blossom path must apply the lexicographic tie-break too.
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
        scores = _exact_scores(matrix)
        assert sorted(_solve_dp(n, scores)) == sorted(_solve_blossom(n, scores))

    @pytest.mark.parametrize("n", [32, 64])
    def test_large_instance_matches_networkx(self, n):
        nx = pytest.importorskip("networkx")
        graphs = (
            random_graph(random.Random(n), n),
            random_graph(random.Random(n + 1), n, ties=True),
            model_graph(random.Random(n + 2), n),
        )
        for graph in graphs:
            scores = _exact_scores(graph.matrix)
            top = max(max(row) for row in scores) + 1
            oracle = nx.Graph()
            for i in range(n):
                for j in range(i + 1, n):
                    oracle.add_edge(i, j, weight=top - scores[i][j])
            mate = nx.max_weight_matching(oracle, maxcardinality=True)
            want = tuple(sorted((graph.nodes[min(p)], graph.nodes[max(p)]) for p in mate))
            assert min_weight_perfect_matching(graph) == want

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
        graph = SynergyGraph(("a", "b", "c"), ones)
        with pytest.raises(MatchingError):
            min_weight_perfect_matching(graph)

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
        predictions = {
            ("a", "b"): make_prediction(1.0, 1.1),  # weight 2.1
            ("a", "c"): make_prediction(1.4, 1.4),  # weight 2.8
            ("b", "c"): make_prediction(1.4, 1.5),  # weight 2.9
        }
        graph = build_graph(predictions)
        result = min_weight_perfect_matching(graph)
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
        matrix = graph_from_matrix(ids, pair_weight_matrix(model, vectors)).matrix
    else:
        n = draw(st.sampled_from([2, 4, 6, 8, 10, 12]))
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        matrix = random_graph(rng, n, ties=kind == "ties").matrix
    return len(matrix), _exact_scores(matrix)


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
        assert sorted(_solve_blossom(n, scores)) == sorted(_solve_dp(n, scores))

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
        scores = _exact_scores(matrix)
        _, mate = _assignment_start(10, scores)
        free = [v for v in range(10) if mate[v] == -1]
        assert free == [2, 5]
        assert sorted(_solve_blossom(10, scores)) == sorted(_solve_dp(10, scores))

    def test_model_driven_start_is_perfect(self):
        # On these graphs the fractional optimum is integral, so the start
        # alone is the matching and no blossom state is built.  A start
        # that lost this would still be optimal, only slow, and no
        # optimality test would notice.
        for seed in range(20):
            scores = _exact_scores(model_graph(random.Random(seed), 16).matrix)
            _, mate = _assignment_start(16, scores)
            assert -1 not in mate


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

    def _predictions(self, vectors, scale=1.0):
        apps = sorted(vectors)
        predictions = {}
        for i, a in enumerate(apps):
            for b in apps[i + 1 :]:
                pred = predict_pair(REFERENCE_COEFFICIENTS, vectors[a], vectors[b])
                predictions[(a, b)] = make_prediction(
                    pred.slowdown_i * scale, pred.slowdown_j * scale
                )
        return predictions

    def test_uniform_slowdown_scaling_preserves_selection(self):
        vectors = self._roster_vectors()
        base = min_weight_perfect_matching(build_graph(self._predictions(vectors)))
        for k in (2.0, 0.25, 3.0):
            scaled = min_weight_perfect_matching(
                build_graph(self._predictions(vectors, scale=k))
            )
            assert scaled == base

    def test_model_driven_matching_agrees_with_oracle(self):
        vectors = self._roster_vectors()
        graph = build_graph(self._predictions(vectors))
        assert min_weight_perfect_matching(graph) == oracle_best(graph)
