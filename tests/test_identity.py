"""The byte-identity tool (``tests/identity.py``): its manifest of a few
calls is the same on every run, and its comparison names what differs."""

import json

import identity

CALLS = [
    ["gen-workload", "--recipe", "mixed", "--seed", "3", "--size", "15", "--iso-quanta", "20",
     "--out", "wl.json"],
    ["simulate", "--workload", "wl.json", "--seed", "1", "--noise-sigma", "0.02",
     "--out", "run.jsonl", "--metrics", "run.metrics.json", "--export-trace", "run.trace"],
    ["replay", "--trace", "run.trace", "--seed", "1", "--out", "replayed.jsonl"],
]


def test_manifest_is_the_same_on_every_run():
    first = identity.run_calls(CALLS)
    assert identity.run_calls(CALLS) == first
    entries = [json.loads(line) for line in first]
    assert [entry["argv"] for entry in entries] == CALLS
    assert [entry["exit"] for entry in entries] == [0, 0, 0]
    assert [sorted(entry["files"]) for entry in entries] == [
        ["wl.json"], ["run.jsonl", "run.metrics.json", "run.trace"], ["replayed.jsonl"],
    ]


def test_compare_names_each_difference(tmp_path):
    first = identity.run_calls(CALLS[:1])
    entry = json.loads(first[0])
    moved = dict(entry, stdout="0" * 64, files={"wl.json": "0" * 64})
    a, b = tmp_path / "a.manifest", tmp_path / "b.manifest"
    a.write_text(first[0] + "\n")
    b.write_text(json.dumps(moved, sort_keys=True) + "\n")
    call = "call 1: synpa " + " ".join(CALLS[0])
    assert identity.compare(first, [b.read_text().strip()]) == [
        f"{call}: stdout differs", f"{call}: file wl.json differs",
    ]
    assert identity._main(["--compare", str(a), str(a)]) == 0
    assert identity._main(["--compare", str(a), str(b)]) == 1


def test_the_matrix_runs_every_trace_under_every_policy():
    calls = identity.matrix()
    kinds = [argv[0] for argv in calls]
    workloads = len(identity.RECIPES) * len(identity.SIZES)
    runs = workloads * len(identity.NOISES) * len(identity.POLICIES)
    assert kinds.count("gen-workload") == kinds.count("report") == workloads
    assert kinds.count("simulate") == runs
    assert kinds.count("replay") == runs * len(identity.POLICIES)


def test_the_extra_calls_are_the_same_on_every_run():
    # The matrix's first gen-workload and simulate write what the extra
    # calls reuse.
    calls = identity.matrix()[:2] + identity.extras()
    first = identity.run_calls(calls)
    assert identity.run_calls(calls) == first
    entries = [json.loads(line) for line in first]
    refused = [" ".join(entry["argv"][:2]) for entry in entries if entry["exit"]]
    assert refused == [
        "train corpus/iso-appa.profile", "simulate --workload", "replay --trace",
        "report mixed8-synpa-n0.jsonl", "simulate --workload",
    ]
    assert all(entry["exit"] == 1 and not entry["files"] for entry in entries if entry["exit"])
