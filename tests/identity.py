"""Byte-identity matrix of the ``synpa`` command line.

A change that should not move any output is checked by running one fixed
matrix of CLI calls before and after it and comparing what each call
printed and wrote::

    PYTHONPATH=src python tests/identity.py --out parent.manifest   # at the parent
    PYTHONPATH=src python tests/identity.py --out change.manifest   # with the change
    python tests/identity.py --compare parent.manifest change.manifest

``--out`` runs the matrix in process (``synpa.cli.main``) inside a
temporary directory, with every path relative to it, and writes one
JSON line per call: its argv, its exit code and the sha256 of its
stdout, its stderr and every file it wrote.  ``--compare`` prints the
calls and files that differ and exits 1 if any do.

The matrix: ``gen-workload --seed 3 --iso-quanta 20``, mixed and backend
at 8, 15, 16, 33 and 63 apps; each workload simulated at seed 1 under
all three policies at noise 0 and 0.02, with ``--metrics`` and
``--export-trace``; every trace replayed under all three policies; and
one ``report`` per workload over its logs.  Then the calls of
:func:`extras`: ``train`` on the test suite's profile corpus
(``conftest.write_profile_corpus``) and a simulation with what it
trained, ``train`` on the isolated profiles alone, a multi-run
``simulate``, a replay of a trace in which one thread arrives late, two
missing inputs, and two outputs refused for naming an input.  A call
whose name starts with ``@`` is a step of this tool that writes an input
(:data:`STEPS`), hashed like a call's outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from typing import Iterable, Sequence

POLICIES = ("synpa", "random", "static")
RECIPES = ("mixed", "backend")
SIZES = (8, 15, 16, 33, 63)
NOISES = ("0", "0.02")


def matrix() -> list[list[str]]:
    """Every call of the matrix, in order, with paths relative to the
    directory it runs in."""
    calls = []
    for recipe in RECIPES:
        for size in SIZES:
            wl = f"{recipe}{size}"
            calls.append(["gen-workload", "--recipe", recipe, "--seed", "3", "--size", str(size),
                          "--iso-quanta", "20", "--out", f"{wl}.json"])
            logs = []
            for noise in NOISES:
                for policy in POLICIES:
                    run = f"{wl}-{policy}-n{noise}"
                    calls.append(["simulate", "--workload", f"{wl}.json", "--seed", "1",
                                  "--policy", policy, "--noise-sigma", noise, "--out", f"{run}.jsonl",
                                  "--metrics", f"{run}.metrics.json", "--export-trace", f"{run}.trace"])
                    logs.append(f"{run}.jsonl")
                    for replay in POLICIES:
                        out = f"{run}.{replay}"
                        calls.append(["replay", "--trace", f"{run}.trace", "--policy", replay,
                                      "--out", f"{out}.jsonl", "--metrics", f"{out}.metrics.json"])
                        logs.append(f"{out}.jsonl")
            calls.append(["report", *logs, "--out", f"{wl}.aggregate.json", "--csv", f"{wl}.csv"])
    return calls


#: The workload whose files the extra calls reuse.
EXTRA = "mixed8"


def extras() -> list[list[str]]:
    """The calls after the matrix, which reuse its first workload, that
    workload's ``synpa`` log at noise 0 and its trace."""
    from conftest import CORPUS_APPS, CORPUS_PAIRS  # --compare alone runs without it

    isolated = [f"corpus/iso-{app}.profile" for app in CORPUS_APPS]
    profiles = [*isolated, *(f"corpus/pair-{a}-{b}.profile" for a, b in CORPUS_PAIRS)]
    wl, run = f"{EXTRA}.json", f"{EXTRA}-synpa-n0"
    return [
        ["@profile-corpus", "corpus"],
        ["train", *profiles, "--out", "trained.json", "--report", "trained.fit.json",
         "--seed", "3"],
        ["train", *profiles, "--out", "trained-all.json", "--split", "1.0"],
        ["simulate", "--workload", wl, "--seed", "1", "--coefficients", "trained.json",
         "--out", "trained.jsonl", "--metrics", "trained.metrics.json"],
        ["train", *isolated, "--out", "iso.json"],
        ["simulate", "--workload", wl, "--policy", "synpa", "random", "--seed", "1", "2",
         "--out", "multi"],
        ["@late-thread", f"{run}.trace", "late.trace", "5"],
        ["replay", "--trace", "late.trace", "--out", "late.jsonl", "--metrics", "late.metrics.json"],
        ["simulate", "--workload", "missing.json", "--out", "missing.jsonl"],
        ["replay", "--trace", "missing.trace", "--out", "missing-replay.jsonl"],
        ["report", f"{run}.jsonl", "--csv", f"{run}.jsonl"],
        ["@copy", wl, "overlap/runs.csv"],
        ["simulate", "--workload", "overlap/runs.csv", "--policy", "synpa", "random",
         "--out", "overlap"],
    ]


def _profile_corpus(directory: str) -> None:
    """The test suite's profile corpus, written into a new ``directory``."""
    from conftest import CORPUS_APPS, CORPUS_PAIRS, write_profile_corpus
    from synpa import REFERENCE_COEFFICIENTS

    os.makedirs(directory)
    write_profile_corpus(directory, REFERENCE_COEFFICIENTS, CORPUS_APPS, CORPUS_PAIRS)


def _late_thread(source: str, target: str, quanta: str) -> None:
    """``source`` copied to ``target`` without the first ``quanta`` rows
    of its roster's last thread, which then arrives late."""
    with open(source, encoding="utf-8") as fh:
        header, columns, *rows = fh.read().splitlines()
    late = json.loads(header)["threads"][-1]

    def kept(row: str) -> bool:
        quantum, thread = row.split(",")[:2]
        return thread != late or int(quantum) >= int(quanta)

    rows = list(filter(kept, rows))
    with open(target, "w", encoding="utf-8") as fh:
        fh.write("\n".join([header, columns, *rows]) + "\n")


def _copy(source: str, target: str) -> None:
    os.makedirs(os.path.dirname(target), exist_ok=True)
    shutil.copyfile(source, target)


#: The tool's own steps, by the name a call gives them.
STEPS = {"@profile-corpus": _profile_corpus, "@late-thread": _late_thread, "@copy": _copy}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stats(root: str) -> dict[str, tuple[int, int]]:
    """Each file under ``root`` by relative path: its mtime and size."""
    out = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            st = os.stat(path)
            out[os.path.relpath(path, root)] = (st.st_mtime_ns, st.st_size)
    return out


def run_calls(calls: Iterable[Sequence[str]]) -> list[str]:
    """The manifest lines of ``calls``, run in order in one new temporary
    directory that is the working directory meanwhile."""
    from synpa.cli import main  # --compare alone runs without the package

    lines = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            before = _stats(".")
            for argv in calls:
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    if argv[0] in STEPS:
                        STEPS[argv[0]](*argv[1:])
                        code = 0
                    else:
                        try:
                            code = main(list(argv))
                        except SystemExit as exc:  # argparse refusing the call
                            code = exc.code if isinstance(exc.code, int) else 1
                after = _stats(".")
                files = {}
                for name in sorted(after):
                    if before.get(name) != after[name]:
                        with open(name, "rb") as fh:
                            files[name] = _sha256(fh.read())
                before = after
                lines.append(json.dumps({
                    "argv": list(argv), "exit": code,
                    "stdout": _sha256(stdout.getvalue().encode()),
                    "stderr": _sha256(stderr.getvalue().encode()), "files": files,
                }, sort_keys=True))
        finally:
            os.chdir(here)
    return lines


def compare(a: Sequence[str], b: Sequence[str]) -> list[str]:
    """What differs between two manifests' lines, one message per call or
    file; empty when they are equal."""
    diffs = []
    left = [json.loads(line) for line in a]
    right = [json.loads(line) for line in b]
    if len(left) != len(right):
        diffs.append(f"{len(left)} calls against {len(right)}")
    for k, (x, y) in enumerate(zip(left, right), start=1):
        call = f"call {k}: synpa {' '.join(x['argv'])}"
        if x["argv"] != y["argv"]:
            diffs.append(f"{call}: against synpa {' '.join(y['argv'])}")
            continue
        diffs += [f"{call}: {key} differs" for key in ("exit", "stdout", "stderr") if x[key] != y[key]]
        for name in sorted(set(x["files"]) | set(y["files"])):
            if x["files"].get(name) != y["files"].get(name):
                diffs.append(f"{call}: file {name} differs")
    return diffs


def _main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", metavar="MANIFEST", help="run the matrix and write its manifest")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two manifests")
    args = parser.parse_args(argv)
    if args.out is not None:
        lines = run_calls(matrix() + extras())
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
        files = sum(len(json.loads(line)["files"]) for line in lines)
        print(f"{len(lines)} calls, {files} files written: manifest in {args.out}")
        return 0
    texts = []
    for path in args.compare:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read().splitlines())
    diffs = compare(*texts)
    for line in diffs:
        print(line)
    files = sum(len(json.loads(line)["files"]) for line in texts[0])
    print(f"{len(texts[0])} calls, {files} files: {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(_main())
