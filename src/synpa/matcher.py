"""Minimum-weight perfect matching of threads onto 2-way SMT cores.

Nodes are thread ids; every unordered pair carries a weight equal to
the predicted combined slowdown if the two threads share a core, and
every node a price.  The assignment for the next quantum is the perfect
matching minimizing the total weight.  A decision takes two calls:
:func:`build_graph` sums the weights from the model's co-run slowdown
matrix and prices the nodes from the threads' category matrix (both in
:mod:`synpa.interference`), and :func:`min_weight_perfect_matching`
solves the graph it returns.

Exactness and determinism
-------------------------
Most decisions end at the fold certificate (:func:`_certified_fold`).
In exact int64 units, the edges that are a cheapest partner of both
their ends at the given prices form a tight graph, and any perfect
matching of it is optimal (dual feasibility and complementary
slackness).  When each thread's cheapest partner is unique and the
choice is mutual, that graph is the unique optimum.  Threads that share
one estimate tie instead; their near-least columns are lifted in price,
and when every component of the tight graph is complete multipartite,
even and has no part holding more than half of it, its
lexicographically smallest perfect matching is read off directly.
The rest go to one exact solver.  There, edge weights (floats, hence
dyadic rationals) become *exact* integers over a common denominator,
each with a strictly dominated tie-break term folded in, so that the
optimum is unique: among all minimum-weight matchings, the one whose
sorted pair list is lexicographically smallest wins.  A dense
primal-dual weighted blossom algorithm (Edmonds 1965; Galil 1986)
solves these integers and checks its result against its dual
certificate.  A certified optimum is unique, hence the tie-broken one,
so results never depend on the path, iteration order, or hashing.

The blossom algorithm starts from an optimal fractional matching, as
Blossom V (Kolmogorov 2009) and Cook & Rohe (1999) do: an exact
assignment-problem solve gives feasible duals and the tight cycles of
an optimal permutation, whose alternate edges are matched.  On the
interference model's weights the start is nearly always perfect, hence
optimal, and the solve ends at its certificate check; odd cycles leave
one free vertex each for the blossom phases.  The assignment solve's
column duals start at the graph's prices (the model's fold prices,
:func:`synpa.interference.fold_prices`, in a graph from
:func:`build_graph`), which cut its searches short and never change the
result.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import MatchingError
from .interference import ModelCoefficients, fold_prices

#: Node id used to pad an odd roster; the thread paired with it runs alone.
IDLE_NODE = "__idle__"

#: Weight of an edge to the idle node: the thread's slowdown alone is 1.
IDLE_WEIGHT = 1.0


@dataclass(frozen=True, eq=False)
class SynergyGraph:
    """Complete weighted graph over thread ids, with one price per node.

    ``nodes`` is sorted, distinct and even in number; ``matrix[i, j]``
    weighs the edge between ``nodes[i]`` and ``nodes[j]`` (finite,
    non-negative, symmetric, zero diagonal); ``prices[i]`` is a finite
    price of ``nodes[i]``.  Both are read-only float64 copies.  Other
    input raises :class:`MatchingError`.
    """

    nodes: tuple[str, ...]
    matrix: np.ndarray
    prices: np.ndarray

    def __post_init__(self) -> None:
        nodes = tuple(self.nodes)
        n = len(nodes)
        if list(nodes) != sorted(set(nodes)):
            raise MatchingError("node ids must be sorted and distinct")
        if n % 2 == 1:
            raise MatchingError(f"cannot perfectly match {n} nodes; pad with {IDLE_NODE!r}")
        matrix = np.array(self.matrix, dtype=float)
        prices = np.array(self.prices, dtype=float)
        if matrix.shape != (n, n) or not (
            matrix.min(initial=0.0) >= 0.0 and matrix.max(initial=0.0) < math.inf
            and (matrix == matrix.T).all() and not matrix.diagonal().any()
        ):
            raise MatchingError(
                f"weights must be a finite, non-negative, symmetric {n} x {n} matrix "
                "with a zero diagonal"
            )
        if prices.shape != (n,) or not np.isfinite(prices).all():
            raise MatchingError(f"prices must be {n} finite floats, one per node")
        matrix.flags.writeable = prices.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "prices", prices)


def build_graph(
    model: ModelCoefficients, app_ids: Sequence[str], st: np.ndarray, slowdown: np.ndarray
) -> SynergyGraph:
    """The pairing graph of one decision.

    Row ``i`` of ``st``, a :func:`synpa.interference.category_matrix`,
    estimates the isolated behavior of the ``i``-th of the sorted,
    distinct ``app_ids``, and ``slowdown`` is the model's
    :func:`synpa.interference.co_run_slowdowns` of ``st``, which replay
    also logs.  Edges weigh each pair's predicted combined
    slowdown ``slowdown[i, j] + slowdown[j, i]``, and nodes carry the
    model's fold prices (:func:`synpa.interference.fold_prices`), which
    usually certify the optimum.  No weight overflows: each slowdown is
    at most the model's ``max_slowdown``.  An even roster's graph is
    built directly; :func:`graph_from_matrix` pads an odd one, priced by
    :func:`_idle_prices` unless one of its windows is inverted.
    """
    weights = slowdown + slowdown.T
    weights.flat[:: len(weights) + 1] = 0.0  # the diagonal
    prices = fold_prices(model, st)
    if len(app_ids) % 2 == 0 and IDLE_NODE not in app_ids:
        return SynergyGraph(tuple(app_ids), weights, prices)
    idle_price = 0.0
    if len(app_ids) > 1 and (priced := _idle_prices(model, st, weights, prices)) is not None:
        prices, idle_price = priced
    return graph_from_matrix(app_ids, weights, prices, idle_price)


def _idle_prices(
    model: ModelCoefficients, st: np.ndarray, weights: np.ndarray, prices: np.ndarray
) -> tuple[np.ndarray, float] | None:
    """An odd roster's prices and the idle node's price, chosen so that
    the idle node and the thread ``h`` with the highest fold price pick
    each other, or None when a window below is inverted.

    The idle node's reduced costs are ``IDLE_WEIGHT - P_j``, so its row
    picks the highest-priced thread.  The roster without ``h`` takes its
    own fold prices ``P``, with row minima ``m_i`` of ``S - P`` among
    themselves.  ``P_h`` goes to the middle of ``[max_j P_j, min_i (S[i,
    h] - m_i)]``, so the idle row picks ``h`` and no other row prefers
    ``h``, and the idle price to the middle of ``[IDLE_WEIGHT - min_j
    (S[h, j] - P_j), IDLE_WEIGHT - max_i m_i]``, so ``h`` picks the idle
    node and no other row prefers it.  This holds for any weights ``S``
    and prices ``P``; the rest's own fold then settles the other pairs.
    A price on a window's bound ties, and :func:`_certified_fold` judges
    the result as it judges any prices.
    """
    h = int(prices.argmax())
    rest = np.arange(len(prices)) != h
    sub = fold_prices(model, st[rest])
    reduced = weights[rest][:, rest] - sub
    reduced.flat[:: len(reduced) + 1] = math.inf
    least = reduced.min(axis=1)
    column = weights[rest, h]  # S[i, h] = S[h, i]
    low_h, high_h = sub.max(), (column - least).min()
    low_idle, high_idle = IDLE_WEIGHT - (column - sub).min(), IDLE_WEIGHT - least.max()
    if not (low_h <= high_h and low_idle <= high_idle):
        return None
    priced = prices.copy()
    priced[rest] = sub
    priced[h] = (low_h + high_h) / 2
    return priced, (low_idle + high_idle) / 2


def graph_from_matrix(
    app_ids: Sequence[str],
    weights: np.ndarray,
    prices: Sequence[float] | None = None,
    idle_price: float = 0.0,
) -> SynergyGraph:
    """The pairing graph of the sorted, distinct ``app_ids``.

    ``weights[i][j]`` is the combined slowdown of the ``i``-th and
    ``j``-th id; it must be symmetric, finite and non-negative off the
    diagonal, which is ignored.  ``prices`` holds one finite price per
    id (zeros if not given).  An odd roster is padded with
    :data:`IDLE_NODE` at its sorted position, in the weights and the
    prices alike: edges to it weigh :data:`IDLE_WEIGHT` for every
    thread, since a thread sharing a core with nobody runs at isolated
    speed, and its price is ``idle_price`` (prices never change the
    result).
    """
    nodes = list(app_ids)
    n = len(nodes)
    if IDLE_NODE in nodes:
        raise MatchingError(f"{IDLE_NODE!r} is reserved for odd-roster padding")
    # The graph copies both arrays; copy here only what must change first.
    matrix = np.asarray(weights, dtype=float)
    prices = np.zeros(n) if prices is None else np.asarray(prices, dtype=float)
    if matrix.shape != (n, n) or prices.shape != (n,):
        raise MatchingError(f"{n} ids need {n} x {n} weights and {n} prices")
    if n % 2 == 1:
        at = bisect_left(nodes, IDLE_NODE)
        nodes.insert(at, IDLE_NODE)
        matrix = np.insert(matrix, at, IDLE_WEIGHT, axis=0)
        matrix = np.insert(matrix, at, IDLE_WEIGHT, axis=1)
        prices = np.insert(prices, at, idle_price)
    diagonal = matrix.diagonal()
    if diagonal.tobytes() != bytes(diagonal.nbytes):  # anything but 0.0 there
        matrix = matrix.copy()
        np.fill_diagonal(matrix, 0.0)
    return SynergyGraph(tuple(nodes), matrix, prices)


def _exact_scores(matrix: Sequence[Sequence[float]]) -> tuple[list[list[int]], int]:
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
    unique.  Returns the scores, a dense symmetric matrix whose diagonal
    is 0, and ``shift``: a weight ``w`` scores ``w * 2**shift`` before
    its tie-break.
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
    return scores, top - 1 + b * n


def _score_units(prices: Sequence[float], shift: int) -> list[int]:
    """``prices`` in the units of :func:`_exact_scores`, rounded down.

    The scaling by ``2**shift`` is done on integers: a float product
    overflows for huge prices or tiny weights.
    """
    ratios = (float(p).as_integer_ratio() for p in prices)
    return [(num << shift) // den for num, den in ratios]


def _assignment_start(
    n: int, scores: list[list[int]], prices: Sequence[int] | None = None
) -> tuple[list[int], list[int]]:
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

    The column duals start at ``prices`` (zero if not given).  Shortest
    augmenting paths from an empty assignment are exact from any
    starting column duals, so the prices change only how far each row's
    search runs: where every row's least reduced cost ``scores[i][j] -
    prices[j]`` lies at a distinct column, each row takes that column
    and no search grows.
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
    v = list(prices) if prices is not None else [0] * n
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


def _solve_blossom(
    n: int, scores: list[list[int]], prices: Sequence[int] | None = None
) -> list[tuple[int, int]]:
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
    (:func:`_assignment_start`, from the column ``prices``).  The factor
    4 makes its duals all even, so all free vertices, and with them all
    tree vertices, share one parity and every step stays an integer.  A
    perfect start is optimal, as on nearly every graph of the model's
    near-additive weights: then only its certificate is checked and no
    blossom state is built.  Otherwise the phases below match the vertex
    each odd cycle left free.

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
    lab, mate = _assignment_start(n, scores, prices)
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


#: The fold certificate's cost of pairing a node with itself: none is least.
_SELF = np.iinfo(np.int64).max


def _certified_fold(weights: np.ndarray, prices: np.ndarray) -> list[tuple[int, int]] | None:
    """The optimal pairs if the nodes' cheapest partners prove them, else None.

    Weights and prices are scaled by a power of two ``2**e >= 1`` that
    puts every magnitude below ``2**58``, or they fall back.  The scaled
    weights ``S`` must be exact integers; the prices ``P`` are rounded
    toward zero (any integers serve).  So ``R[i, j] = S[i, j] - P[j]``
    off the diagonal is below ``2**59`` in magnitude, well inside int64.

    For any integer prices, take ``m_i = min_j R[i, j]`` and duals ``y_i
    = (m_i + P_i) / 2``.  ``S`` is symmetric, so every edge's reduced
    cost ``S[i, j] - y_i - y_j = ((R[i, j] - m_i) + (R[j, i] - m_j)) /
    2`` is at least 0, and it is 0 exactly on the *tight graph* ``T``,
    the edges that are a least entry of both their rows.  A perfect
    matching weighs ``sum(y)`` plus the reduced costs of its edges, so
    if ``T`` has a perfect matching, the optimal matchings are exactly
    ``T``'s perfect matchings, and the tie-broken optimum is the
    lexicographically smallest of them.

    First the given prices: if each row has a unique least entry
    ``R[i, sigma(i)]`` and ``sigma`` is an involution without a fixed
    point, ``T`` is ``sigma``'s pairs alone, the unique optimum.
    Otherwise rows tie, mostly because threads share one estimate and
    hence one price and one row.  The prices of such copies' near-least
    columns are lifted (:func:`_lift`, at most ``2**20``, so ``R`` stays
    below ``2**60`` in magnitude: numpy's int64 array arithmetic wraps
    without a warning, and this bound is what keeps it exact), and the
    pairs are ``T``'s lexicographically smallest perfect matching when
    :func:`_tight_matching` can read it off ``T``'s components.
    """
    costs = _scaled_costs(weights, prices)
    if costs is None:
        return None
    reduced, units = costs
    sigma = reduced.argmin(axis=1).tolist()
    unique = np.count_nonzero(reduced == reduced.min(axis=1, keepdims=True)) == len(sigma)
    if unique and all(sigma[j] == i for i, j in enumerate(sigma)):
        return [(i, j) for i, j in enumerate(sigma) if i < j]
    reduced -= _lift(reduced, units)
    reduced.flat[:: len(reduced) + 1] = _SELF
    least = reduced == reduced.min(axis=1, keepdims=True)
    return _tight_matching(least & least.T)


def _scaled_costs(weights: np.ndarray, prices: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(R, P)`` of :func:`_certified_fold` in int64, or None off the scale.

    ``R``'s diagonal is :data:`_SELF`.
    """
    e = 58 - math.frexp(max(weights.max(), prices.max(), -prices.min()))[1]
    scaled = np.ldexp(weights, e)
    if e < 0 or not (scaled == np.trunc(scaled)).all():
        return None
    units = np.ldexp(prices, e).astype(np.int64)
    reduced = scaled.astype(np.int64) - units
    reduced.flat[:: len(reduced) + 1] = _SELF
    return reduced, units


#: How far above its least entry, in the scaled units of
#: :func:`_certified_fold`, a tied row's column counts as near-least.
_LIFT_SLACK = 2**20


def _lift(reduced: np.ndarray, units: np.ndarray) -> np.ndarray:
    """Column price lifts that level the rows of threads sharing a price.

    Threads with equal integer prices ``units`` are candidate copies.
    For each such group, take its first row ``r`` of ``reduced`` and its
    least entry ``u``: every column ``j`` with ``r[j] <= u +
    _LIFT_SLACK`` gets the step ``r[j] - u``, and every column of the
    group takes the largest step among its near columns, so that the
    first row's own column, which that row cannot price, moves with its
    copies.  A column's lift is its largest step over all groups, in
    ``[0, _LIFT_SLACK]``.  Lifted prices are integer prices too, so a
    lift decides only how often the certificate succeeds, never what it
    returns.
    """
    groups: dict[int, list[int]] = {}
    for i, unit in enumerate(units.tolist()):
        groups.setdefault(unit, []).append(i)
    lift = np.zeros(len(units), dtype=np.int64)
    for members in groups.values():
        if len(members) < 2:
            continue
        row = reduced[members[0]]
        least = row.min()
        # 0 off the near columns, the diagonal included; no entry overflows.
        steps = np.where(row <= least + _LIFT_SLACK, row, least) - least
        np.maximum(lift, steps, out=lift)
        lift[members] = np.maximum(lift[members], steps[members].max())
    return lift


def _tight_matching(tight: np.ndarray) -> list[tuple[int, int]] | None:
    """The lexicographically smallest perfect matching of ``tight``, or None.

    ``tight`` is a symmetric boolean adjacency matrix with a false
    diagonal.  Vertices with the same neighbours form a *part*.  Each
    connected component must be complete multipartite (every vertex
    adjacent to exactly the vertices of the component outside its own
    part), even, and with no part over half of it, else the result is
    None.  Such a component has a perfect matching, and keeps one after
    a pair is taken while no part holds over half of what is left.  So
    the smallest free vertex takes the smallest free vertex of another
    part, from a part that holds half of what is left if there is one.
    A matching's sorted pair list lists the partners of ever-later
    smallest free vertices, and components are independent, so these
    choices make the lexicographically smallest perfect matching.
    """
    masks = [int.from_bytes(row, "little")  # row i's tight neighbours as bits
             for row in np.packbits(tight, axis=1, bitorder="little").tolist()]
    if 0 in masks:  # a vertex without a tight edge
        return None
    pairs = []
    parts: dict[int, list[int]] = {}
    for v, reach in enumerate(masks):
        if reach & (reach - 1) == 0 and masks[w := reach.bit_length() - 1] == 1 << v:  # one edge
            if v < w:
                pairs.append((v, w))
            continue
        parts.setdefault(reach, []).append(v)
    # A part and its neighbours span its component, so the components are
    # complete multipartite exactly when the parts spanning a set cover it.
    components: dict[int, list[list[int]]] = {}
    for reach, part in parts.items():
        components.setdefault(reach | sum(1 << v for v in part), []).append(part)
    for span, group in components.items():
        left = [len(part) for part in group]
        size = span.bit_count()
        if size % 2 or sum(left) != size or 2 * max(left) > size:
            return None
        part_of = {v: k for k, part in enumerate(group) for v in part}
        free = sorted(v for part in group for v in part)
        while 2 * max(left) < len(free):
            v = free.pop(0)
            w = next(x for x in free if part_of[x] != part_of[v])
            free.remove(w)
            left[part_of[v]] -= 1
            left[part_of[w]] -= 1
            pairs.append((v, w))
        # A part holds half of what is left, and keeps doing so: its k-th
        # smallest vertex takes the k-th smallest of the others.
        big = left.index(max(left))
        mine = [x for x in free if part_of[x] == big]
        others = [x for x in free if part_of[x] != big]
        pairs += [(min(a, b), max(a, b)) for a, b in zip(mine, others)]
    return pairs


def min_weight_perfect_matching(graph: SynergyGraph) -> tuple[tuple[str, str], ...]:
    """Return the sorted pairs of the unique optimal perfect matching.

    Optimal means minimum total weight, ties broken toward the
    lexicographically smallest sorted pair list.  The graph's prices are
    first tried as the fold certificate's prices
    (:func:`_certified_fold`); if it rejects them, the blossom solver's
    assignment start begins from them as column duals.  The model's fold
    prices, which :func:`build_graph` attaches, usually certify; prices
    can make the solve faster and never change the result.
    """
    nodes = graph.nodes
    if not nodes:
        return ()
    index_pairs = _certified_fold(graph.matrix, graph.prices)
    if index_pairs is None:
        scores, shift = _exact_scores(graph.matrix.tolist())
        units = _score_units(graph.prices.tolist(), shift)
        index_pairs = _solve_blossom(len(nodes), scores, units)
    return tuple(sorted((nodes[i], nodes[j]) for i, j in index_pairs))
