"""The quality-table tool (``tests/quality.py``): a few of its runs are
the same on every run and equal the committed ``QUALITY.json``."""

import itertools
import json
import pathlib

import pytest

import quality

QUALITY = pathlib.Path(__file__).resolve().parent.parent / "QUALITY.json"


def runs():
    """Two engine seeds of two policies on one 8-app workload."""
    with quality.workdir():
        path = quality.workload("mixed", 8, 3)
        return {policy: [quality.simulate(path, policy, seed, "0.02") for seed in (1, 2)]
                for policy in ("synpa", "random")}


def test_runs_are_the_same_on_every_run_and_in_the_committed_table():
    first = runs()
    assert runs() == first
    table = json.loads(QUALITY.read_text(encoding="utf-8"))
    for policy, got in first.items():
        want = table["rows"][f"mixed8-w3-n0.02-{policy}"]["runs"][:2]
        if table["python"] != quality.PYTHON:  # see quality's docstring
            want = [dict(w, fairness=pytest.approx(w["fairness"], rel=1e-12)) for w in want]
        assert got == want


def test_pairings_are_every_perfect_matching_once():
    apps = [f"a{k}" for k in range(8)]
    found = list(quality.pairings(apps))
    assert len(found) == 105  # 7 * 5 * 3
    assert all(sorted(itertools.chain(*p)) == apps for p in found)
    assert len({json.dumps(quality._canonical(p)) for p in found}) == 105


def test_differences_name_each_value():
    want = {"rows": {"r": {"runs": [{"turnaround": 55}]}}, "only": 1}
    got = {"rows": {"r": {"runs": [{"turnaround": 56}]}}}
    assert quality.differences(want, got) == [
        "only: only in the file", "rows.r.runs[0].turnaround: 55 in the file, 56 now",
    ]
    assert quality.differences(want, want) == []
