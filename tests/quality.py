"""Schedule-quality table of the ``synpa`` simulator: every run counted.

Each row is one workload, noise level and policy over ten engine seeds,
with every run's turnaround (quanta until the last app first completes)
and fairness, and their mean, sample standard deviation, min, max and
``n``.  No run is dropped::

    PYTHONPATH=src python tests/quality.py --out QUALITY.json
    PYTHONPATH=src python tests/quality.py --check QUALITY.json

``--out`` runs the matrix in process (``synpa.cli.main``) inside a
temporary directory and writes the table with sorted keys, together
with whether the measured package differs from the commit of the
checkout that holds it and, when it does not, that commit's ``git
rev-parse HEAD``.  ``--check`` runs the matrix again, compares
everything but those two fields, prints what differs and exits 1 if
anything does.

The table holds the Python version (major.minor) it was written under,
and ``--check`` under another version exits 1 before it runs anything.
The simulator's fairness and the table's spread are ``statistics``
standard deviations, whose square root is rounded once from Python 3.11
on and twice before, so their last bits may differ between versions.

The matrix: ``gen-workload --iso-quanta 30``, recipes mixed, backend and
frontend at 8, 16 and 33 apps, workload seeds 3, 4 and 5; each workload
simulated with ``--metrics`` at noise 0 and 0.02 under ``synpa``,
``random`` and ``static`` at engine seeds 1-10.

Two references a dynamic allocator must beat come from fixed pairings.
``static`` pairs the workload file's apps in order and keeps the pairs,
so running it on the file with its apps permuted holds any pairing for
the whole run; its turnaround depends on neither the engine seed nor the
noise, so one run per pairing suffices.  Every 8-app workload runs all
105 pairings: the table gives the best, median and worst turnaround, the
winning pairing and how many pairings beat ``synpa``'s mean at each
noise level.  Every 16-app workload runs a pair-swap search from
``static``'s order that takes the first improving swap; its result is an
upper bound on the best fixed pairing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Iterator, Sequence

RECIPES = ("mixed", "backend", "frontend")
SIZES = (8, 16, 33)
WORKLOAD_SEEDS = (3, 4, 5)
NOISES = ("0", "0.02")
POLICIES = ("synpa", "random", "static")
SEEDS = tuple(range(1, 11))
ISO_QUANTA = "30"
#: The run behind each fixed pairing; ``static`` ignores both.
FIXED_SEED, FIXED_NOISE = 1, "0.02"
#: Fields of the table that describe the checkout, not the runs.
CHECKOUT = ("git_head", "git_dirty")
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"

Pairing = list[list[str]]


def _cli(*argv: str) -> None:
    """One ``synpa`` call in process, its output discarded; a failed call
    raises."""
    from synpa.cli import main  # --help alone runs without the package

    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"synpa {' '.join(argv)}: exit {code}: {stderr.getvalue()}")


@contextlib.contextmanager
def workdir() -> Iterator[None]:
    """A new temporary directory as the working directory meanwhile."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(here)


def workload(recipe: str, size: int, seed: int) -> str:
    """Generate one workload file in the working directory; its name."""
    name = f"{recipe}{size}-w{seed}.json"
    _cli("gen-workload", "--recipe", recipe, "--seed", str(seed), "--size", str(size),
         "--iso-quanta", ISO_QUANTA, "--out", name)
    return name


def simulate(path: str, policy: str, seed: int, noise: str) -> dict:
    """One simulation's turnaround and fairness."""
    _cli("simulate", "--workload", path, "--policy", policy, "--seed", str(seed),
         "--noise-sigma", noise, "--out", "run.jsonl", "--metrics", "run.metrics.json")
    with open("run.metrics.json", encoding="utf-8") as fh:
        metrics = json.load(fh)
    return {"seed": seed, "turnaround": metrics["turnaround_quanta"],
            "fairness": metrics["fairness"]}


def summary(values: Sequence[float]) -> dict:
    return {"mean": statistics.mean(values), "stdev": statistics.stdev(values),
            "min": min(values), "max": max(values), "n": len(values)}


def row(path: str, noise: str, policy: str, seeds: Sequence[int] = SEEDS) -> dict:
    """Every run of one policy on one workload at one noise level."""
    runs = [simulate(path, policy, seed, noise) for seed in seeds]
    out = {"runs": runs}
    for metric in ("turnaround", "fairness"):
        out[metric] = summary([r[metric] for r in runs])
    return out


def pairings(apps: Sequence[str]) -> Iterator[Pairing]:
    """Every perfect matching of ``apps``: the first app with each other
    one in turn, and the rest paired recursively."""
    if not apps:
        yield []
        return
    first, rest = apps[0], apps[1:]
    for k, partner in enumerate(rest):
        for tail in pairings(rest[:k] + rest[k + 1:]):
            yield [[first, partner], *tail]


def run_fixed(doc: dict, pairing: Pairing) -> dict:
    """``static``'s run of workload ``doc`` with its apps reordered so
    that it holds ``pairing``."""
    apps = {app["app_id"]: app for app in doc["apps"]}
    with open("fixed.json", "w", encoding="utf-8") as fh:
        json.dump(dict(doc, apps=[apps[a] for pair in pairing for a in pair]), fh)
    result = simulate("fixed.json", "static", FIXED_SEED, FIXED_NOISE)
    return {"turnaround": result["turnaround"], "fairness": result["fairness"]}


def read_workload(path: str) -> tuple[dict, list[str]]:
    """A workload file and its app ids in the file's order, which
    ``static`` pairs."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc, [app["app_id"] for app in doc["apps"]]


def _best(scored: Sequence[tuple[Pairing, dict]]) -> dict:
    """The lowest turnaround, then the highest fairness, then the first."""
    pairing, result = min(scored, key=lambda s: (s[1]["turnaround"], -s[1]["fairness"]))
    return dict(result, pairing=pairing)


def enumerate_pairings(path: str, synpa_means: dict[str, float]) -> dict:
    """Every fixed pairing of an 8-app workload."""
    doc, order = read_workload(path)
    scored = [(p, run_fixed(doc, p)) for p in pairings(order)]
    turnarounds = [result["turnaround"] for _, result in scored]
    return {
        "best": _best(scored), "median": statistics.median(turnarounds),
        "worst": max(turnarounds), "runs": len(scored), "turnarounds": turnarounds,
        "better_than_synpa_mean": {noise: sum(t < mean for t in turnarounds)
                                   for noise, mean in synpa_means.items()},
    }


def _canonical(pairing: Pairing) -> Pairing:
    return sorted(sorted(pair) for pair in pairing)


def _swaps(pairing: Pairing) -> Iterator[Pairing]:
    """Pairs ``(a, b)`` and ``(c, d)``, in pairing order, become ``(a, c),
    (b, d)`` and then ``(a, d), (b, c)``."""
    for i, j in itertools.combinations(range(len(pairing)), 2):
        (a, b), (c, d) = pairing[i], pairing[j]
        rest = [pair for k, pair in enumerate(pairing) if k not in (i, j)]
        for swap in ([[a, c], [b, d]], [[a, d], [b, c]]):
            yield _canonical(rest + swap)


def swap_search(path: str) -> dict:
    """First-improvement pair-swap search from ``static``'s pairing of a
    workload: the first swap that lowers the turnaround is taken and the
    scan starts over, until no swap does.  Each pairing runs once."""
    doc, order = read_workload(path)
    seen: dict[str, dict] = {}

    def score(pairing: Pairing) -> dict:
        key = json.dumps(pairing)
        if key not in seen:
            seen[key] = run_fixed(doc, pairing)
        return seen[key]

    current = _canonical([order[k:k + 2] for k in range(0, len(order), 2)])
    while True:
        bar = score(current)["turnaround"]
        better = next((p for p in _swaps(current) if score(p)["turnaround"] < bar), None)
        if better is None:
            return {"upper_bound": dict(score(current), pairing=current), "runs": len(seen)}
        current = better


def measure() -> dict:
    """The whole table, without the checkout fields."""
    rows, fixed, search = {}, {}, {}
    with workdir():
        for recipe in RECIPES:
            for size in SIZES:
                for wseed in WORKLOAD_SEEDS:
                    path = workload(recipe, size, wseed)
                    name = path[:-len(".json")]
                    for noise in NOISES:
                        for policy in POLICIES:
                            rows[f"{name}-n{noise}-{policy}"] = row(path, noise, policy)
                    if size == 8:
                        means = {noise: rows[f"{name}-n{noise}-synpa"]["turnaround"]["mean"]
                                 for noise in NOISES}
                        fixed[name] = enumerate_pairings(path, means)
                    elif size == 16:
                        search[name] = swap_search(path)
    return {
        "matrix": {"recipes": list(RECIPES), "sizes": list(SIZES),
                   "workload_seeds": list(WORKLOAD_SEEDS), "iso_quanta": ISO_QUANTA,
                   "noises": list(NOISES), "policies": list(POLICIES), "seeds": list(SEEDS),
                   "fixed_seed": FIXED_SEED, "fixed_noise": FIXED_NOISE},
        "rows": rows, "fixed_pairings": fixed, "pair_swap_search": search,
        "python": PYTHON,
    }


def checkout() -> dict:
    """Whether the measured package differs from the commit of the
    checkout holding it, and that commit when it does not (both None
    outside git)."""
    import synpa

    package = os.path.dirname(os.path.abspath(synpa.__file__))

    def git(*argv: str) -> str | None:
        try:
            done = subprocess.run(["git", "-C", package, *argv], capture_output=True,
                                  text=True, check=True)
        except (OSError, subprocess.CalledProcessError):
            return None
        return done.stdout.strip()

    status = git("status", "--porcelain", "--", ".")
    dirty = None if status is None else bool(status)
    return {"git_head": git("rev-parse", "HEAD") if dirty is False else None,
            "git_dirty": dirty}


def differences(want, got, path: str = "") -> list[str]:
    """Where two parsed tables differ, one line per value."""
    if isinstance(want, dict) and isinstance(got, dict):
        out = []
        for key in sorted(set(want) | set(got)):
            where = f"{path}.{key}" if path else key
            if key not in got or key not in want:
                out.append(f"{where}: only in {'the file' if key in want else 'this run'}")
            else:
                out += differences(want[key], got[key], where)
        return out
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        return [line for k, (w, g) in enumerate(zip(want, got))
                for line in differences(w, g, f"{path}[{k}]")]
    return [] if want == got else [f"{path}: {json.dumps(want)} in the file, {json.dumps(got)} now"]


def _main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", metavar="QUALITY", help="run the matrix and write the table")
    group.add_argument("--check", metavar="QUALITY", help="run the matrix and compare")
    args = parser.parse_args(argv)
    if args.check is not None:
        with open(args.check, encoding="utf-8") as fh:
            want = {k: v for k, v in json.load(fh).items() if k not in CHECKOUT}
        if want.get("python") != PYTHON:
            print(f"{args.check} was written under Python {want.get('python')}, this is {PYTHON}")
            return 1
    start = time.perf_counter()
    table = measure()
    seconds = time.perf_counter() - start
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(dict(table, **checkout()), fh, sort_keys=True, indent=1)
            fh.write("\n")
        print(f"{len(table['rows'])} rows in {seconds:.0f} s: table in {args.out}")
        return 0
    diffs = differences(want, table)
    for line in diffs:
        print(line)
    print(f"{len(table['rows'])} rows in {seconds:.0f} s: {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(_main())
