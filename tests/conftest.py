"""Shared fixtures and synthetic-corpus builders for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from synpa import (
    CATEGORIES,
    CategoryCoefficients,
    CategoryTriple,
    CategoryVector,
    ModelCoefficients,
    TraceHeader,
    build_graph,
    category_matrix,
    co_run_slowdowns,
    fold_prices,
    format_trace,
    predict_pair,
)
from synpa.counters import sample_from_fractions
from synpa.interference import MAX_COEFFICIENT
from synpa.matcher import IDLE_WEIGHT, _exact_scores, _solve_blossom

#: On CI (the ``CI`` environment variable is set) no property fails on a
#: slow runner's deadline, and a failure prints the blob that replays it
#: with ``@reproduce_failure``.
settings.register_profile("ci", deadline=None, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

CYCLES = 10**8
WIDTH = 4


@st.composite
def category_vectors(draw):
    """Arbitrary normalized category vectors, zeros included."""
    parts = [draw(st.floats(0.0, 1.0)) for _ in CATEGORIES]
    total = sum(parts)
    if total == 0.0:
        parts, total = [1.0, 1.0, 1.0], 3.0
    return CategoryVector(**{name: x / total for name, x in zip(CATEGORIES, parts)})


def coefficient_models():
    """Interference models with every coefficient in [-2, 2]."""
    coeff = st.floats(-2.0, 2.0)
    category = st.builds(CategoryCoefficients, alpha=coeff, beta=coeff, gamma=coeff, rho=coeff)
    return st.builds(ModelCoefficients, fdc=category, fe=category, be=category)


def forward_models():
    """In-domain interference models for the forward direction:
    coefficients in [-2, 2], anywhere up to +/-``MAX_COEFFICIENT`` and at
    it, exact zeros of either sign, and tiny non-zero values, so that
    terms vanish or underflow, clamps meet ``-0.0`` and every magnitude
    the model domain allows is reached."""
    tiny = st.floats(5e-324, 1e-300)
    coeff = st.one_of(
        st.floats(-2.0, 2.0), st.floats(-MAX_COEFFICIENT, MAX_COEFFICIENT),
        st.sampled_from([0.0, -0.0, MAX_COEFFICIENT, -MAX_COEFFICIENT]),
        tiny, tiny.map(float.__neg__),
    )
    category = st.builds(CategoryCoefficients, alpha=coeff, beta=coeff, gamma=coeff, rho=coeff)
    return st.builds(ModelCoefficients, fdc=category, fe=category, be=category)


def decision_graph(model, app_ids, vectors):
    """The pairing graph of ``vectors`` as the engine builds it: one
    category matrix, its co-run slowdowns, then :func:`build_graph`."""
    st = category_matrix(vectors)
    return build_graph(model, app_ids, st, co_run_slowdowns(model, st))


def co_run_triples(model, st_i, st_j):
    """Both threads' co-run categories of :func:`predict_pair`, as triples."""
    return tuple(CategoryTriple(fe=fe, be=be, fdc=fdc) for fdc, fe, be, _ in predict_pair(model, st_i, st_j))


def blossom_decision(graph):
    """The blossom solver's pairs on ``graph``'s exact scores, as sorted id
    pairs: the decision every path of the matcher must reach."""
    scores, _ = _exact_scores(graph.matrix)
    pairs = _solve_blossom(len(graph.nodes), scores)
    return tuple(sorted((graph.nodes[i], graph.nodes[j]) for i, j in pairs))


def idle_windows(model, vectors):
    """The idle pricing of an odd roster of ``vectors``, in plain floats:
    the index ``h`` of the thread with the highest fold price, the fold
    prices of the roster without ``h``, and the open windows ``(low,
    high)`` for ``h``'s price and for the idle node's price
    (``matcher._idle_prices``)."""
    st = category_matrix(vectors)
    slowdown = co_run_slowdowns(model, st).tolist()
    weight = [[slowdown[i][j] + slowdown[j][i] for j in range(len(st))] for i in range(len(st))]
    prices = fold_prices(model, st).tolist()
    h = prices.index(max(prices))
    rest = [i for i in range(len(st)) if i != h]
    sub = fold_prices(model, st[rest]).tolist()
    least = [min(weight[i][j] - p for j, p in zip(rest, sub) if j != i) for i in rest]
    window_h = (max(sub), min(weight[i][h] - m for i, m in zip(rest, least)))
    window_idle = (
        IDLE_WEIGHT - min(weight[h][j] - p for j, p in zip(rest, sub)), IDLE_WEIGHT - max(least)
    )
    return h, sub, window_h, window_idle


def write_profile_corpus(
    dirpath: str,
    model: ModelCoefficients,
    apps: dict[str, CategoryVector],
    pairs: list[tuple[str, str]],
    n_iso: int = 40,
    n_paired: int = 30,
    cycles: int = CYCLES,
) -> list[str]:
    """Write isolated + paired profile files consistent with ``model``.

    Apps run a constant behavior vector.  Isolated files commit the
    full dispatch rate per quantum; paired files commit rate/slowdown
    and observe the model's co-run fractions, so training on this corpus
    recovers ``model`` up to counter-rounding error (~1e-8 relative).
    """
    paths = []
    for app_id, vec in sorted(apps.items()):
        header = TraceHeader(
            dispatch_width=WIDTH,
            quantum_ms=100.0,
            threads=(app_id,),
            mode="isolated",
        )
        samples = []
        committed = {}
        for q in range(n_iso):
            s = sample_from_fractions(
                q, app_id, fe=vec.fe, be=1 - vec.fe - vec.fdc, fdc=vec.fdc, cycles=cycles,
                dispatch_width=WIDTH,
            )
            samples.append(s)
            committed[(q, app_id)] = s.inst_spec
        path = os.path.join(dirpath, f"iso-{app_id}.profile")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_trace(header, samples, committed))
        paths.append(path)

    for a, b in pairs:
        header = TraceHeader(
            dispatch_width=WIDTH,
            quantum_ms=100.0,
            threads=(a, b),
            mode="paired",
        )
        pred_a, pred_b = predict_pair(model, apps[a], apps[b])
        samples = []
        committed = {}
        for q in range(n_paired):
            for app_id, vec, (smt_fdc, smt_fe, smt_be, _) in ((a, apps[a], pred_a), (b, apps[b], pred_b)):
                # fe + be + fdc, not the kernel's fdc + fe + be: these sums
                # fix the corpus bytes.
                slowdown = smt_fe + smt_be + smt_fdc
                fe, fdc = smt_fe / slowdown, smt_fdc / slowdown
                s = sample_from_fractions(
                    q, app_id, fe=fe, be=1 - fe - fdc, fdc=fdc, cycles=cycles,
                    dispatch_width=WIDTH,
                )
                samples.append(s)
                committed[(q, app_id)] = max(
                    1, round(cycles * WIDTH * vec.fdc / slowdown)
                )
        path = os.path.join(dirpath, f"pair-{a}-{b}.profile")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_trace(header, samples, committed))
        paths.append(path)
    return paths


#: Three constant-behavior apps whose pairwise co-runs give a rank-4
#: design matrix in every category (all three category values distinct
#: across apps, and the symmetric parts non-collinear).
CORPUS_APPS = {
    "appa": CategoryVector(fe=0.20, be=0.30, fdc=0.50),
    "appb": CategoryVector(fe=0.40, be=0.15, fdc=0.45),
    "appc": CategoryVector(fe=0.10, be=0.65, fdc=0.25),
}

CORPUS_PAIRS = [("appa", "appb"), ("appa", "appc"), ("appb", "appc")]


@pytest.fixture
def profile_corpus(tmp_path):
    """Profile files generated from the built-in reference model."""
    from synpa import REFERENCE_COEFFICIENTS

    paths = write_profile_corpus(
        str(tmp_path), REFERENCE_COEFFICIENTS, CORPUS_APPS, CORPUS_PAIRS
    )
    return paths
