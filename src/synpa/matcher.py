"""Minimum-weight perfect matching of threads onto 2-way SMT cores.

Nodes are thread ids; every unordered pair carries a weight equal to
the predicted combined slowdown if the two threads share a core.  The
assignment for the next quantum is the perfect matching minimizing the
total weight.

Exactness and determinism
-------------------------
Edge weights (floats, hence dyadic rationals) are converted *exactly*
to integers over a common denominator, and a strictly dominated
tie-break term is folded into each integer so that the optimal matching
is unique: among all minimum-weight matchings, the one whose sorted
pair list is lexicographically smallest wins.  Small instances are
solved by exact dynamic programming over subsets; larger ones by the
Blossom algorithm (networkx) on the same integers.  Both backends see a
unique optimum, so results never depend on backend, iteration order, or
hashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite
from typing import Mapping, Sequence

import networkx as nx

from .errors import MatchingError
from .interference import PairPrediction

#: Node id used to pad an odd roster; the thread paired with it runs alone.
IDLE_NODE = "__idle__"

#: Weight of an edge to the idle node: the thread's slowdown alone is 1.
IDLE_WEIGHT = 1.0

#: Instances up to this size use the subset-DP solver.
_DP_MAX_NODES = 12


@dataclass(frozen=True)
class SynergyGraph:
    """Complete weighted graph over thread ids."""

    nodes: tuple[str, ...]
    weights: Mapping[tuple[str, str], float]

    def __post_init__(self) -> None:
        if len(set(self.nodes)) != len(self.nodes):
            raise MatchingError("duplicate node ids")
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes)))
        canon: dict[tuple[str, str], float] = {}
        for (a, b), w in self.weights.items():
            if a == b:
                raise MatchingError(f"self edge on node {a!r}")
            key = (a, b) if a < b else (b, a)
            if key in canon and canon[key] != w:
                raise MatchingError(f"conflicting weights for edge {key}")
            canon[key] = float(w)
        object.__setattr__(self, "weights", canon)
        nodes = self.nodes
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                w = canon.get((a, b))
                if w is None:
                    raise MatchingError(f"missing edge ({a!r}, {b!r})")
                if not isfinite(w):
                    raise MatchingError(f"edge ({a!r}, {b!r}) has non-finite weight {w!r}")
        for key in list(canon):
            if key[0] not in nodes or key[1] not in nodes:
                raise MatchingError(f"edge {key} references unknown node")

    def weight(self, a: str, b: str) -> float:
        key = (a, b) if a < b else (b, a)
        return self.weights[key]


def build_graph(predictions: Mapping[tuple[str, str], PairPrediction]) -> SynergyGraph:
    """Build the pairing graph from per-pair predictions.

    Edge weight is the sum of both directed slowdowns.  An odd number
    of threads is padded with :data:`IDLE_NODE`; edges to it weigh
    :data:`IDLE_WEIGHT` for every thread, since a thread sharing a core
    with nobody runs at isolated speed.
    """
    nodes: set[str] = set()
    for a, b in predictions:
        nodes.add(a)
        nodes.add(b)
    if IDLE_NODE in nodes:
        raise MatchingError(f"{IDLE_NODE!r} is reserved for odd-roster padding")
    weights: dict[tuple[str, str], float] = {}
    for (a, b), pred in predictions.items():
        if a == b:
            raise MatchingError(f"self pairing for thread {a!r}")
        w = pred.slowdown_i + pred.slowdown_j
        if not isfinite(w) or w < 0.0:
            raise MatchingError(f"pair ({a!r}, {b!r}) has invalid weight {w!r}")
        weights[(a, b) if a < b else (b, a)] = w
    node_list = sorted(nodes)
    if len(node_list) % 2 == 1:
        for a in node_list:
            weights[(IDLE_NODE, a)] = IDLE_WEIGHT
        node_list.append(IDLE_NODE)
    return SynergyGraph(nodes=tuple(sorted(node_list)), weights=weights)


@dataclass(frozen=True)
class Matching:
    """A perfect matching: sorted pairs and their canonical total weight."""

    pairs: tuple[tuple[str, str], ...]
    total_weight: float

    def partner_of(self, node: str) -> str | None:
        for a, b in self.pairs:
            if a == node:
                return b
            if b == node:
                return a
        return None


def canonical_total(graph: SynergyGraph, pairs: Sequence[tuple[str, str]]) -> float:
    """Sum pair weights in sorted-pair order (the one reported total)."""
    ordered = sorted(tuple(sorted(p)) for p in pairs)
    total = 0.0
    for a, b in ordered:
        total += graph.weight(a, b)
    return total


def _exact_scores(
    graph: SynergyGraph,
) -> tuple[list[str], dict[tuple[int, int], int]]:
    """Map edge weights to integers encoding weight-then-lexicographic order.

    Weights become exact integers over a common power-of-two
    denominator, then each is scaled by ``K = 2**(M+1)`` (``M`` = number
    of pairs) and a per-pair bonus ``2**(M-1-rank)`` is subtracted,
    ``rank`` being the pair's lexicographic index.  Minimizing the total
    score minimizes the true weight first and breaks exact ties toward
    the lexicographically smallest sorted pair list, making the optimum
    unique.
    """
    nodes = list(graph.nodes)
    n = len(nodes)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = len(pairs)
    fracs = {
        (i, j): Fraction(graph.weight(nodes[i], nodes[j])) for (i, j) in pairs
    }
    denom = 1
    for f in fracs.values():
        denom = max(denom, f.denominator)  # all denominators are powers of two
    big_k = 1 << (m + 1)
    scores: dict[tuple[int, int], int] = {}
    for rank, (i, j) in enumerate(pairs):
        f = fracs[(i, j)]
        w_int = f.numerator * (denom // f.denominator)
        scores[(i, j)] = w_int * big_k - (1 << (m - 1 - rank))
    return nodes, scores


def _solve_dp(n: int, scores: dict[tuple[int, int], int]) -> list[tuple[int, int]]:
    """Exact subset-DP perfect matching on integer scores."""
    full = (1 << n) - 1
    best: dict[int, int] = {0: 0}
    choice: dict[int, tuple[int, int]] = {}

    def solve(mask: int) -> int:
        cached = best.get(mask)
        if cached is not None:
            return cached
        i = (mask & -mask).bit_length() - 1
        rest_base = mask ^ (1 << i)
        best_val: int | None = None
        best_pair = (-1, -1)
        j_bits = rest_base
        while j_bits:
            j = (j_bits & -j_bits).bit_length() - 1
            j_bits &= j_bits - 1
            val = scores[(i, j)] + solve(rest_base ^ (1 << j))
            if best_val is None or val < best_val:
                best_val = val
                best_pair = (i, j)
        assert best_val is not None
        best[mask] = best_val
        choice[mask] = best_pair
        return best_val

    solve(full)
    pairs = []
    mask = full
    while mask:
        i, j = choice[mask]
        pairs.append((i, j))
        mask ^= (1 << i) | (1 << j)
    return pairs


def _solve_blossom(n: int, scores: dict[tuple[int, int], int]) -> list[tuple[int, int]]:
    """Blossom-based solve: maximize the complemented integer scores."""
    top = max(scores.values()) + 1
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for (i, j), s in scores.items():
        graph.add_edge(i, j, weight=top - s)
    mate = nx.max_weight_matching(graph, maxcardinality=True)
    if 2 * len(mate) != n:
        raise MatchingError("no perfect matching found")  # unreachable: complete graph
    return [(i, j) if i < j else (j, i) for i, j in mate]


def min_weight_perfect_matching(graph: SynergyGraph) -> Matching:
    """Return the unique optimal perfect matching of the graph.

    Optimal means minimum total weight, ties broken toward the
    lexicographically smallest sorted pair list.  Raises
    :class:`MatchingError` on an odd node count.
    """
    n = len(graph.nodes)
    if n == 0:
        return Matching(pairs=(), total_weight=0.0)
    if n % 2 == 1:
        raise MatchingError(f"cannot perfectly match {n} nodes; pad with {IDLE_NODE!r}")
    nodes, scores = _exact_scores(graph)
    if n <= _DP_MAX_NODES:
        index_pairs = _solve_dp(n, scores)
    else:
        index_pairs = _solve_blossom(n, scores)
    pairs = tuple(
        sorted(tuple(sorted((nodes[i], nodes[j]))) for i, j in index_pairs)
    )
    return Matching(pairs=pairs, total_weight=canonical_total(graph, pairs))
