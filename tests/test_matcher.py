"""Tests for pairing-graph construction and minimum-weight perfect
matching, checked against an independent exhaustive-enumeration oracle
using exact rational arithmetic."""

import math
import random
from fractions import Fraction

import pytest

from synpa import (
    CategoryTriple,
    CategoryVector,
    IDLE_NODE,
    Matching,
    MatchingError,
    PairPrediction,
    REFERENCE_COEFFICIENTS,
    SynergyGraph,
    build_graph,
    canonical_total,
    min_weight_perfect_matching,
    predict_pair,
)

_ZERO_TRIPLE = CategoryTriple(fe=0.0, be=0.0, fdc=0.0)


def make_prediction(slowdown_i, slowdown_j):
    return PairPrediction(
        smt_i=_ZERO_TRIPLE,
        smt_j=_ZERO_TRIPLE,
        slowdown_i=slowdown_i,
        slowdown_j=slowdown_j,
    )


def graph_from_weights(weights):
    nodes = sorted({n for pair in weights for n in pair})
    return SynergyGraph(nodes=tuple(nodes), weights=dict(weights))


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


def oracle_best(graph):
    """Exact-arithmetic argmin: minimum total weight, ties broken toward
    the lexicographically smallest sorted pair list."""
    fracs = {edge: Fraction(w) for edge, w in graph.weights.items()}
    denom = 1
    for f in fracs.values():
        denom = max(denom, f.denominator)
    ints = {
        edge: f.numerator * (denom // f.denominator) for edge, f in fracs.items()
    }
    best_key = None
    for pairs in enumerate_matchings(list(graph.nodes)):
        total = sum(ints[p] for p in pairs)
        key = (total, pairs)
        if best_key is None or key < best_key:
            best_key = key
    return best_key[1]


def random_graph(rng, n, dyadic=False):
    nodes = [f"t{i:02d}" for i in range(n)]
    weights = {}
    for i in range(n):
        for j in range(i + 1, n):
            if dyadic:
                w = rng.randrange(64, 256) / 64.0
            else:
                w = rng.uniform(1.0, 3.0)
            weights[(nodes[i], nodes[j])] = w
    return SynergyGraph(nodes=tuple(nodes), weights=weights)


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
        assert len(graph.weights) == 6

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
        assert graph.weight("a", "b") == pytest.approx(2.6, abs=1e-12)

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
            assert graph.weight(IDLE_NODE, app) == 1.0

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
        graph = graph_from_weights({("a", "b"): 2.5})
        assert graph.weight("a", "b") == 2.5
        assert graph.weight("b", "a") == 2.5

    def test_reversed_key_is_canonicalized(self):
        graph = SynergyGraph(nodes=("a", "b"), weights={("b", "a"): 2.5})
        assert graph.weight("a", "b") == 2.5

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(MatchingError):
            SynergyGraph(nodes=("a", "a"), weights={})

    def test_conflicting_duplicate_edge_rejected(self):
        with pytest.raises(MatchingError):
            SynergyGraph(
                nodes=("a", "b"), weights={("a", "b"): 1.0, ("b", "a"): 2.0}
            )

    def test_missing_edge_rejected(self):
        with pytest.raises(MatchingError):
            SynergyGraph(
                nodes=("a", "b", "c"),
                weights={("a", "b"): 1.0, ("a", "c"): 1.0},
            )

    def test_unknown_node_edge_rejected(self):
        with pytest.raises(MatchingError):
            SynergyGraph(
                nodes=("a", "b"),
                weights={("a", "b"): 1.0, ("a", "c"): 1.0},
            )

    def test_self_edge_rejected(self):
        with pytest.raises(MatchingError):
            SynergyGraph(nodes=("a", "b"), weights={("a", "a"): 1.0, ("a", "b"): 1.0})

    def test_non_finite_weight_rejected(self):
        with pytest.raises(MatchingError):
            SynergyGraph(nodes=("a", "b"), weights={("a", "b"): math.nan})


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
        result = min_weight_perfect_matching(graph)
        assert result.pairs == (("a", "b"), ("c", "d"))
        assert result.total_weight == 4.0

    def test_all_equal_weights_lexicographic_tie_break(self):
        for names in (["a", "b", "c", "d"], ["a", "b", "c", "d", "e", "f"]):
            weights = {
                (x, y): 1.0 for i, x in enumerate(names) for y in names[i + 1 :]
            }
            result = min_weight_perfect_matching(graph_from_weights(weights))
            want = tuple(
                (names[i], names[i + 1]) for i in range(0, len(names), 2)
            )
            assert result.pairs == want

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
        result = min_weight_perfect_matching(graph)
        assert result.pairs == (("a", "b"), ("c", "d"))
        assert result.total_weight == 4.0

    def test_eight_nodes_match_enumeration_oracle(self):
        # 105 perfect matchings per instance, spanning many seeds.
        for seed in range(1000):
            rng = random.Random(seed)
            graph = random_graph(rng, 8)
            result = min_weight_perfect_matching(graph)
            want_pairs = oracle_best(graph)
            assert result.pairs == want_pairs
            assert result.total_weight == canonical_total(graph, want_pairs)

    @pytest.mark.parametrize("n", [2, 4, 6, 10])
    def test_small_sizes_match_enumeration_oracle(self, n):
        for seed in range(25):
            rng = random.Random(10_000 + 31 * n + seed)
            graph = random_graph(rng, n)
            result = min_weight_perfect_matching(graph)
            assert result.pairs == oracle_best(graph)

    def test_large_instance_matches_enumeration_oracle(self):
        # 14 nodes exceeds the subset-DP cutoff and exercises the
        # general matching backend; 135135 matchings enumerated.
        for seed in (3, 4):
            rng = random.Random(seed)
            graph = random_graph(rng, 14)
            result = min_weight_perfect_matching(graph)
            want_pairs = oracle_best(graph)
            assert result.pairs == want_pairs
            assert result.total_weight == canonical_total(graph, want_pairs)

    def test_dyadic_ties_match_enumeration_oracle(self):
        # Coarse dyadic weights produce frequent exact ties, forcing the
        # tie-break rule to agree with the oracle's.
        for seed in range(200):
            rng = random.Random(seed)
            graph = random_graph(rng, 6, dyadic=True)
            result = min_weight_perfect_matching(graph)
            assert result.pairs == oracle_best(graph)

    def test_perfectness(self):
        for seed in range(20):
            rng = random.Random(777 + seed)
            n = rng.choice([2, 4, 6, 8, 10, 14])
            graph = random_graph(rng, n)
            result = min_weight_perfect_matching(graph)
            seen = [node for pair in result.pairs for node in pair]
            assert sorted(seen) == sorted(graph.nodes)
            assert len(result.pairs) == n // 2

    def test_total_is_canonical_sum(self):
        rng = random.Random(5)
        graph = random_graph(rng, 8)
        result = min_weight_perfect_matching(graph)
        assert result.total_weight == canonical_total(graph, result.pairs)

    def test_odd_node_count_rejected(self):
        graph = graph_from_weights(
            {("a", "b"): 1.0, ("a", "c"): 1.0, ("b", "c"): 1.0}
        )
        with pytest.raises(MatchingError):
            min_weight_perfect_matching(graph)

    def test_empty_graph(self):
        graph = SynergyGraph(nodes=(), weights={})
        result = min_weight_perfect_matching(graph)
        assert result.pairs == ()
        assert result.total_weight == 0.0

    def test_partner_lookup(self):
        matching = Matching(pairs=(("a", "b"), ("c", "d")), total_weight=0.0)
        assert matching.partner_of("a") == "b"
        assert matching.partner_of("b") == "a"
        assert matching.partner_of("d") == "c"
        assert matching.partner_of("zz") is None

    def test_add_constant_leaves_selection_unchanged(self):
        # Adding c to every edge adds the same c * (n/2) to every
        # perfect matching, so the argmin is invariant; dyadic weights
        # keep the shift exact in float arithmetic.
        for seed in range(50):
            rng = random.Random(seed)
            graph = random_graph(rng, 8, dyadic=True)
            base = min_weight_perfect_matching(graph)
            shifted = SynergyGraph(
                nodes=graph.nodes,
                weights={e: w + 0.5 for e, w in graph.weights.items()},
            )
            assert min_weight_perfect_matching(shifted).pairs == base.pairs

    def test_scale_leaves_selection_unchanged(self):
        for seed in range(50):
            rng = random.Random(seed)
            graph = random_graph(rng, 8, dyadic=True)
            base = min_weight_perfect_matching(graph)
            for k in (2.0, 0.25):
                scaled = SynergyGraph(
                    nodes=graph.nodes,
                    weights={e: w * k for e, w in graph.weights.items()},
                )
                assert min_weight_perfect_matching(scaled).pairs == base.pairs

    def test_idle_pairing_leaves_worst_fit_alone(self):
        predictions = {
            ("a", "b"): make_prediction(1.0, 1.1),  # weight 2.1
            ("a", "c"): make_prediction(1.4, 1.4),  # weight 2.8
            ("b", "c"): make_prediction(1.4, 1.5),  # weight 2.9
        }
        graph = build_graph(predictions)
        result = min_weight_perfect_matching(graph)
        # Best total pairs a with b (2.1 + 1.0) and leaves c alone.
        assert (IDLE_NODE, "c") in result.pairs
        assert ("a", "b") in result.pairs
        assert result.total_weight == pytest.approx(3.1, abs=1e-12)


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
            assert scaled.pairs == base.pairs

    def test_model_driven_matching_agrees_with_oracle(self):
        vectors = self._roster_vectors()
        graph = build_graph(self._predictions(vectors))
        result = min_weight_perfect_matching(graph)
        assert result.pairs == oracle_best(graph)
