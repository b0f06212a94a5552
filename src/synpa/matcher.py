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
solved by exact dynamic programming over subsets; larger ones by a
dense primal-dual weighted blossom algorithm (Edmonds 1965; Galil 1986)
on the same integers, whose result is checked against its dual
certificate.  Both backends see a unique optimum, so results never
depend on backend, iteration order, or hashing.

The blossom algorithm starts from an optimal fractional matching, as
Blossom V (Kolmogorov 2009) and Cook & Rohe (1999) do: an exact
assignment-problem solve gives feasible duals and the tight cycles of
an optimal permutation, whose alternate edges are matched.  On the
interference model's weights the start is nearly always perfect, hence
optimal, and the solve ends at its certificate check; odd cycles leave
one free vertex each for the blossom phases.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import MatchingError
from .interference import PairPrediction

#: Node id used to pad an odd roster; the thread paired with it runs alone.
IDLE_NODE = "__idle__"

#: Weight of an edge to the idle node: the thread's slowdown alone is 1.
IDLE_WEIGHT = 1.0

#: Instances up to this size use the subset-DP solver.
_DP_MAX_NODES = 8


@dataclass(frozen=True)
class SynergyGraph:
    """Complete weighted graph over thread ids, held as a dense matrix.

    ``nodes`` is sorted, and ``matrix[i][j]`` is the weight of the edge
    between ``nodes[i]`` and ``nodes[j]``; the matrix is symmetric with
    a zero diagonal.  Build it with :func:`graph_from_matrix`, which
    validates both.
    """

    nodes: tuple[str, ...]
    matrix: list[list[float]]


def build_graph(predictions: Mapping[tuple[str, str], PairPrediction]) -> SynergyGraph:
    """Build the pairing graph from per-pair predictions.

    Edge weight is the sum of both directed slowdowns, and every pair of
    threads needs a prediction.  The weights go through
    :func:`graph_from_matrix`, which validates and pads them.
    """
    nodes = sorted({a for pair in predictions for a in pair})
    n = len(nodes)
    index = {a: i for i, a in enumerate(nodes)}
    weights = np.zeros((n, n))
    for (a, b), pred in predictions.items():
        if a == b:
            raise MatchingError(f"self pairing for thread {a!r}")
        w = pred.slowdown_i + pred.slowdown_j
        weights[index[a], index[b]] = weights[index[b], index[a]] = w
    if len({frozenset(pair) for pair in predictions}) != n * (n - 1) // 2:
        raise MatchingError("predictions must cover every pair of threads")
    return graph_from_matrix(nodes, weights)


def graph_from_matrix(app_ids: Sequence[str], weights: np.ndarray) -> SynergyGraph:
    """The pairing graph of the sorted, distinct ``app_ids``.

    ``weights[i][j]`` is the combined slowdown of the ``i``-th and
    ``j``-th id; it must be symmetric, finite and non-negative off the
    diagonal, which is ignored.  An odd roster is padded with
    :data:`IDLE_NODE` at its sorted position; edges to it weigh
    :data:`IDLE_WEIGHT` for every thread, since a thread sharing a core
    with nobody runs at isolated speed.
    """
    nodes = list(app_ids)
    if nodes != sorted(set(nodes)):
        raise MatchingError("app ids must be sorted and distinct")
    if IDLE_NODE in nodes:
        raise MatchingError(f"{IDLE_NODE!r} is reserved for odd-roster padding")
    matrix = np.array(weights, dtype=float)
    if matrix.shape != (len(nodes), len(nodes)):
        raise MatchingError(f"weight matrix has shape {matrix.shape} for {len(nodes)} ids")
    if len(nodes) % 2 == 1:
        at = bisect_left(nodes, IDLE_NODE)
        nodes.insert(at, IDLE_NODE)
        matrix = np.insert(matrix, at, IDLE_WEIGHT, axis=0)
        matrix = np.insert(matrix, at, IDLE_WEIGHT, axis=1)
    np.fill_diagonal(matrix, 0.0)
    if not np.isfinite(matrix).all() or (matrix < 0.0).any():
        raise MatchingError("weight matrix has non-finite or negative weights")
    if not (matrix == matrix.T).all():
        raise MatchingError("weight matrix is not symmetric")
    return SynergyGraph(tuple(nodes), matrix.tolist())


def _exact_scores(matrix: Sequence[Sequence[float]]) -> list[list[int]]:
    """Map edge weights to integers encoding weight-then-lexicographic order.

    Weights become exact integers over a common power-of-two
    denominator, then each is scaled by ``K = B**n`` and a tie-break
    bonus ``(n - 1 - j) * B**(n - 1 - i)`` is subtracted for the pair
    ``i < j``, with ``B`` the least power of two ``>= n``.  Two perfect
    matchings that first differ, in sorted pair order, at the partner
    of vertex ``i`` differ in bonus by at least ``B**(n - 1 - i)`` from
    that pair, more than all later pairs can give back, and every total
    bonus is below ``K``.  Minimizing the total score therefore
    minimizes the true weight first and breaks exact ties toward the
    lexicographically smallest sorted pair list, making the optimum
    unique.  The result is a dense symmetric matrix; its diagonal is 0.
    """
    n = len(matrix)
    b = (n - 1).bit_length()
    ratios = [[w.as_integer_ratio() for w in row[i + 1 :]] for i, row in enumerate(matrix)]
    # Every denominator is a power of two; shift all onto the largest.
    top = max((d.bit_length() for row in ratios for _, d in row), default=1)
    scores = [[0] * n for _ in range(n)]
    for i, row in enumerate(ratios):
        si = scores[i]
        place = b * (n - 1 - i)
        for j, (num, den) in enumerate(row, start=i + 1):
            s = (num << (top - den.bit_length() + b * n)) - ((n - 1 - j) << place)
            si[j] = scores[j][i] = s
    return scores


def _solve_dp(n: int, scores: list[list[int]]) -> list[tuple[int, int]]:
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
        row = scores[i]
        best_val: int | None = None
        best_pair = (-1, -1)
        j_bits = rest_base
        while j_bits:
            j = (j_bits & -j_bits).bit_length() - 1
            j_bits &= j_bits - 1
            val = row[j] + solve(rest_base ^ (1 << j))
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


def _assignment_start(n: int, scores: list[list[int]]) -> tuple[list[int], list[int]]:
    """Vertex duals and a partial matching from an optimal assignment.

    Solves the assignment problem on ``scores`` with the diagonal
    forbidden (priced so high that no optimal assignment uses it) by
    shortest augmenting paths, in O(n**3) on exact integers.  That is
    the bipartite double cover of the fractional perfect-matching LP; its
    row and column potentials ``u``, ``v`` satisfy
    ``u[i] + v[j] <= scores[i][j]`` off the diagonal, so
    ``lab[i] = -2 * (u[i] + v[i])`` is a feasible, even dual for
    ``w2 = -4 * score``.  The scores are symmetric, so with the optimal
    permutation ``sigma`` its inverse is optimal too, and complementary
    slackness makes every edge on ``sigma``'s cycles tight.  Alternate
    edges of each cycle are matched, each only if tight under ``lab``:
    even cycles are matched fully, and each odd cycle leaves one vertex
    free.  Returns ``(lab, mate)`` with ``mate[v] == -1`` for a free
    vertex.
    """
    hi = max(max(row) for row in scores)
    lo = min(min(row) for row in scores)
    cost = [row[:] for row in scores]
    for i in range(n):
        cost[i][i] = (n + 1) * hi - n * lo + 1
    # Rows are added one at a time, each by a Dijkstra search over the
    # reduced costs ``cost[i][j] - v[j]`` (Jonker & Volgenant 1987).  An
    # assigned row's column always has its least reduced cost, so the
    # row dual is implicit: ``u[i] = cost[i][sigma[i]] - v[sigma[i]]``.
    v = [0] * n
    owner = [-1] * n  # the row assigned to each column
    sigma = [-1] * n  # the column assigned to each row
    for root in range(n):
        row = cost[root]
        dist = [row[j] - v[j] for j in range(n)]
        pred = [root] * n
        todo = list(range(n))
        done = []
        while True:
            j = min(todo, key=dist.__getitem__)
            mu = dist[j]
            if owner[j] == -1:
                break
            todo.remove(j)
            done.append(j)
            i = owner[j]
            row = cost[i]
            base = mu - row[j] + v[j]
            for k in todo:
                dk = row[k] - v[k] + base
                if dk < dist[k]:
                    dist[k] = dk
                    pred[k] = i
        for k in done:
            v[k] += dist[k] - mu
        while True:  # augment along the shortest path back to the root
            i = pred[j]
            owner[j] = i
            j, sigma[i] = sigma[i], j
            if i == root:
                break
    lab = [-2 * (cost[i][sigma[i]] - v[sigma[i]] + v[i]) for i in range(n)]
    mate = [-1] * n
    seen = [False] * n
    for first in range(n):
        cycle = []
        x = first
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = sigma[x]
        for k in range(0, len(cycle) - 1, 2):
            a, b = cycle[k], cycle[k + 1]
            if lab[a] + lab[b] == -4 * scores[a][b]:
                mate[a], mate[b] = b, a
    return lab, mate


def _solve_blossom(n: int, scores: list[list[int]]) -> list[tuple[int, int]]:
    """Minimum-score perfect matching by the primal-dual blossom algorithm.

    Maximizes ``-score`` over perfect matchings of the complete graph on
    ``n`` (even) vertices, in O(n**3) with dense arrays.  Vertices are
    ``0..n-1``; blossoms take the slots ``n..2n-1``.  Edge weights are
    kept as ``w2 = -4 * score`` and duals as ``lab``: an edge's slack is
    ``lab[u] + lab[v] - w2[u][v]`` plus the ``lab`` of every blossom
    holding both ends, and a dual step of ``delta`` moves vertex duals
    by ``delta`` and blossom duals by ``2 * delta``.  Vertex duals are
    unbounded in sign, which makes every optimum perfect.

    The solve starts from an optimal fractional matching
    (:func:`_assignment_start`).  The factor 4 makes its duals all
    even, so all free vertices, and with them all tree vertices, share
    one parity and every step stays an integer.  A perfect start is
    optimal, as on nearly every graph of the model's near-additive
    weights: then only its certificate is checked and no blossom state
    is built.  Otherwise the phases below match the vertex each odd
    cycle left free.

    Per node ``x``: ``st[x]`` is the top-level blossom holding it (-1
    for a free blossom slot), ``label[x]`` is -1 (unreached), 0 (outer)
    or 1 (inner), ``mate[x]`` is the vertex across its matched edge,
    ``pa[x]`` the vertex through which an inner node was reached, and
    ``best[x]`` the outer vertex whose edge into ``x`` has the least
    slack, ``gap[x]``, at the current duals.  ``edge[x][y]`` is the
    original edge ``(u, v)`` standing for the pair of nodes (``u``
    inside ``x``, ``v`` inside ``y``).  ``flower[b]`` lists a blossom's
    children around its cycle, base first, and ``holder[b][v]`` is the
    child of ``b`` containing vertex ``v``.
    """
    w2 = [[-4 * s for s in row] for row in scores]
    lab, mate = _assignment_start(n, scores)
    if -1 not in mate:
        _check_certificate(n, w2, mate, lab, {})
        return [(u, v) for u, v in enumerate(mate) if u < v]
    size = 2 * n
    lab += [0] * n
    mate += [-1] * n

    edge: list[list[tuple[int, int] | None]] = [[None] * size for _ in range(size)]
    for u in range(n):
        row = edge[u]
        for v in range(n):
            if v != u:
                row[v] = (u, v)
    st = list(range(n)) + [-1] * n
    pa = [-1] * size
    label = [-1] * size
    best = [-1] * size
    gap = [0] * size
    flower: list[list[int]] = [[] for _ in range(size)]
    holder = [[-1] * n for _ in range(size)]
    for u in range(n):
        holder[u][u] = u
    seen = [0] * size
    stamp = 0
    queue: deque[int] = deque()
    n_x = n

    def set_best(x: int) -> None:
        bx, gx = -1, 0
        for u in range(n):
            su = st[u]
            if su != x and label[su] == 0:
                v = edge[u][x][1]
                d = lab[u] + lab[v] - w2[u][v]
                if bx == -1 or d < gx:
                    bx, gx = u, d
        best[x], gap[x] = bx, gx

    def push(x: int) -> None:
        if x < n:
            queue.append(x)
        else:
            for c in flower[x]:
                push(c)

    def set_st(x: int, b: int) -> None:
        st[x] = b
        if x >= n:
            for c in flower[x]:
                set_st(c, b)

    def rotate_to(b: int, xr: int) -> int:
        """Position of child ``xr`` in ``flower[b]``, made even by reversing."""
        fl = flower[b]
        pr = fl.index(xr)
        if pr % 2 == 1:
            fl[1:] = fl[:0:-1]
            return len(fl) - pr
        return pr

    def set_mate(u: int, v: int) -> None:
        eu, ev = edge[u][v]
        mate[u] = ev
        if u >= n:
            xr = holder[u][eu]
            pr = rotate_to(u, xr)
            fl = flower[u]
            for i in range(pr):
                set_mate(fl[i], fl[i ^ 1])
            set_mate(xr, v)
            flower[u] = fl[pr:] + fl[:pr]

    def augment(u: int, v: int) -> None:
        while True:
            xnv = st[mate[u]] if mate[u] != -1 else -1
            set_mate(u, v)
            if xnv == -1:
                return
            nxt = st[pa[xnv]]
            set_mate(xnv, nxt)
            u, v = nxt, xnv

    def lowest_common(u: int, v: int) -> int:
        nonlocal stamp
        stamp += 1
        while u != -1 or v != -1:
            if u != -1:
                if seen[u] == stamp:
                    return u
                seen[u] = stamp
                u = st[mate[u]] if mate[u] != -1 else -1
                if u != -1:
                    u = st[pa[u]]
            u, v = v, u
        return -1

    def add_blossom(u: int, lca: int, v: int) -> None:
        nonlocal n_x
        b = n
        while b < n_x and st[b] != -1:
            b += 1
        if b == n_x:
            n_x += 1
        lab[b] = 0
        label[b] = 0
        mate[b] = mate[lca]
        fl = [lca]
        x = u
        while x != lca:
            y = st[mate[x]]
            fl += (x, y)
            push(y)
            x = st[pa[y]]
        fl[1:] = fl[:0:-1]
        x = v
        while x != lca:
            y = st[mate[x]]
            fl += (x, y)
            push(y)
            x = st[pa[y]]
        flower[b] = fl
        set_st(b, b)
        row_b = edge[b]
        for x in range(n_x):
            row_b[x] = edge[x][b] = None
        hold_b = holder[b]
        for x in range(n):
            hold_b[x] = -1
        least: list[int | None] = [None] * n_x
        for xs in fl:
            row_xs = edge[xs]
            for x in range(n_x):
                cand = row_xs[x]
                if cand is None:
                    continue
                cu, cv = cand
                d = lab[cu] + lab[cv] - w2[cu][cv]
                if least[x] is None or d < least[x]:
                    least[x] = d
                    row_b[x] = cand
                    edge[x][b] = edge[x][xs]
            for x, h in enumerate(holder[xs]):
                if h != -1:
                    hold_b[x] = xs
        set_best(b)

    def expand_blossom(b: int) -> None:
        fl = flower[b]
        for c in fl:
            set_st(c, c)
        xr = holder[b][edge[b][pa[b]][0]]
        pr = rotate_to(b, xr)
        for i in range(0, pr, 2):
            xs, xns = fl[i], fl[i + 1]
            pa[xs] = edge[xns][xs][0]
            label[xs] = 1
            label[xns] = 0
            best[xs] = -1
            set_best(xns)
            push(xns)
        label[xr] = 1
        pa[xr] = pa[b]
        for xs in fl[pr + 1 :]:
            label[xs] = -1
            set_best(xs)
        st[b] = -1

    def on_tight(u0: int, v0: int) -> bool:
        """Grow, shrink or augment across the tight edge ``(u0, v0)``."""
        u, v = st[u0], st[v0]
        if label[v] == -1:
            pa[v] = u0
            label[v] = 1
            nu = st[mate[v]]
            best[v] = best[nu] = -1
            label[nu] = 0
            push(nu)
        elif label[v] == 0:
            lca = lowest_common(u, v)
            if lca == -1:
                augment(u, v)
                augment(v, u)
                return True
            add_blossom(u, lca, v)
        return False

    def phase() -> bool:
        """Grow alternating trees until one augmentation; False if perfect."""
        for x in range(n_x):
            label[x] = -1
            best[x] = -1
        queue.clear()
        for x in range(n_x):
            if st[x] == x and mate[x] == -1:
                pa[x] = -1
                label[x] = 0
                push(x)
        if not queue:
            return False
        while True:
            while queue:
                u = queue.popleft()
                if label[st[u]] == 1:
                    continue
                lu, wu = lab[u], w2[u]
                for v in range(n):
                    sv = st[v]
                    if sv != st[u]:  # on_tight may shrink u into a new blossom
                        d = lu + lab[v] - wu[v]
                        if d == 0:
                            if on_tight(u, v):
                                return True
                        elif best[sv] == -1 or d < gap[sv]:
                            best[sv] = u
                            gap[sv] = d
            delta = None
            for b in range(n, n_x):
                if st[b] == b and label[b] == 1:
                    d = lab[b] // 2
                    if delta is None or d < delta:
                        delta = d
            for x in range(n_x):
                if st[x] == x and best[x] != -1 and label[x] != 1:
                    d = gap[x] if label[x] == -1 else gap[x] // 2
                    if delta is None or d < delta:
                        delta = d
            if delta is None:
                raise MatchingError("no perfect matching found")  # unreachable: complete graph
            for u in range(n):
                s = label[st[u]]
                if s == 0:
                    lab[u] -= delta
                elif s == 1:
                    lab[u] += delta
            for b in range(n, n_x):
                if st[b] == b:
                    if label[b] == 0:
                        lab[b] += 2 * delta
                    elif label[b] == 1:
                        lab[b] -= 2 * delta
            queue.clear()
            x = 0
            while x < n_x:
                b = best[x]
                if st[x] == x and b != -1:
                    u, v = edge[b][x]
                    gap[x] = d = lab[u] + lab[v] - w2[u][v]
                    if d == 0 and st[b] != x and on_tight(u, v):
                        return True
                x += 1
            for b in range(n, n_x):
                if st[b] == b and label[b] == 1 and lab[b] == 0:
                    expand_blossom(b)

    while phase():
        pass

    blossoms = {b: _leaves(b, n, flower) for b in range(n, n_x) if st[b] != -1}
    _check_certificate(n, w2, mate[:n], lab, blossoms)
    return [(u, v) for u, v in enumerate(mate[:n]) if u < v]


def _leaves(b: int, n: int, flower: list[list[int]]) -> list[int]:
    if b < n:
        return [b]
    return [v for c in flower[b] for v in _leaves(c, n, flower)]


def _check_certificate(
    n: int,
    w2: list[list[int]],
    mate: list[int],
    lab: list[int],
    blossoms: Mapping[int, list[int]],
) -> None:
    """Verify the blossom result against its dual certificate.

    ``mate`` must be a perfect matching; every blossom dual must be
    non-negative; every edge's reduced slack, counting the duals of the
    blossoms holding both ends, must be non-negative and zero on
    matched edges; and every blossom with a positive dual must be full
    (``(size - 1) / 2`` matched edges inside).  Together these prove the
    matching is a maximum-weight perfect one.  Any violation is a
    solver bug and raises :class:`MatchingError`.
    """
    if any(v == -1 or v == u or mate[v] != u for u, v in enumerate(mate)):
        raise MatchingError("blossom solver returned no perfect matching")
    slack = [[lab[u] + lab[v] - w2[u][v] for v in range(n)] for u in range(n)]
    for b, leaves in blossoms.items():
        z = lab[b]
        if z < 0:
            raise MatchingError(f"blossom {b} has negative dual {z}")
        if z == 0:
            continue
        inside = set(leaves)
        # Each matched edge inside is counted from both of its ends.
        if sum(1 for u in leaves if mate[u] in inside) != len(leaves) - 1:
            raise MatchingError(f"blossom {b} has positive dual but is not full")
        for u in leaves:
            row = slack[u]
            for v in leaves:
                row[v] += z
    for u in range(n):
        row = slack[u]
        for v in range(u + 1, n):
            if row[v] < 0:
                raise MatchingError(f"edge ({u}, {v}) has negative reduced slack")
        if row[mate[u]] != 0:
            raise MatchingError(f"matched edge ({u}, {mate[u]}) is not tight")


def min_weight_perfect_matching(graph: SynergyGraph) -> tuple[tuple[str, str], ...]:
    """Return the sorted pairs of the unique optimal perfect matching.

    Optimal means minimum total weight, ties broken toward the
    lexicographically smallest sorted pair list.  Raises
    :class:`MatchingError` on an odd node count.
    """
    n = len(graph.nodes)
    if n % 2 == 1:
        raise MatchingError(f"cannot perfectly match {n} nodes; pad with {IDLE_NODE!r}")
    if n == 0:
        return ()
    nodes = graph.nodes
    scores = _exact_scores(graph.matrix)
    if n <= _DP_MAX_NODES:
        index_pairs = _solve_dp(n, scores)
    else:
        index_pairs = _solve_blossom(n, scores)
    return tuple(sorted((nodes[i], nodes[j]) for i, j in index_pairs))
