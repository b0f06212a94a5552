"""Offline training of the interference model from profiling runs.

Inputs are *profile files*: per-quantum counter rows plus committed
instruction counts, recorded once per app in isolation and once per app
pair under co-execution.  Committed-instruction alignment matches each
co-run quantum to the isolated quantum covering the same point in the
program, which both supplies the regressors (the isolated vectors) and
rescales the observed co-run fractions by the locally measured
slowdown so they are expressed relative to isolated execution — the
quantity the forward model predicts.

:func:`aligned_samples` reads a set of profile files into per-thread
:class:`ProfileRecord` lists and joins each paired run with its apps'
isolated runs through :func:`align`; :func:`fit` fits each category by
one least-squares solve on the regressors ``[1, c_i, c_j, c_i * c_j]``.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .counters import TraceHeader, read_counter_file
from .dispatch import CATEGORIES, CategoryTriple, CategoryVector, characterize, normalize
from .errors import AlignmentError, ConfigError, FitError, RankDeficientError, TraceError
from .interference import CategoryCoefficients, ModelCoefficients


@dataclass(frozen=True)
class ProfileRecord:
    """One profiled quantum: behavior vector and instructions committed."""

    vector: CategoryVector
    committed: int


@dataclass(frozen=True)
class AlignedSample:
    """One co-run quantum joined with both apps' isolated behavior.

    ``smt_ij``/``smt_ji`` are the observed co-run categories rescaled by
    the instruction-derived slowdown, i.e. expressed relative to
    isolated execution (their sum is the local slowdown).
    """

    st_i: CategoryVector
    st_j: CategoryVector
    smt_ij: CategoryTriple
    smt_ji: CategoryTriple
    slowdown_i: float
    slowdown_j: float


@dataclass(frozen=True)
class AlignmentResult:
    samples: tuple[AlignedSample, ...]
    dropped: int  # co-run quanta beyond the isolated profiles' coverage


def align(
    iso_i: Sequence[ProfileRecord], iso_j: Sequence[ProfileRecord],
    paired_i: Sequence[ProfileRecord], paired_j: Sequence[ProfileRecord],
) -> AlignmentResult:
    """Join a paired run of apps ``i`` and ``j`` (records of the same
    quanta) with both apps' isolated records.

    Each app's cumulative committed count at a co-run quantum locates
    the first isolated quantum whose cumulative count reaches it: that
    quantum supplies the isolated vector, and the ratio of the two
    quanta's committed counts the local slowdown that rescales the
    observed co-run fractions.  Co-run quanta past either isolated run
    are dropped (counted in the result).
    """
    cum_i = list(accumulate(r.committed for r in iso_i))
    cum_j = list(accumulate(r.committed for r in iso_j))
    samples: list[AlignedSample] = []
    dropped = 0
    done_i = done_j = 0
    for rec_i, rec_j in zip(paired_i, paired_j, strict=True):
        done_i += rec_i.committed
        done_j += rec_j.committed
        qi = bisect_left(cum_i, done_i)
        qj = bisect_left(cum_j, done_j)
        if qi == len(cum_i) or qj == len(cum_j):
            dropped += 1
            continue
        slow_i = iso_i[qi].committed / rec_i.committed
        slow_j = iso_j[qj].committed / rec_j.committed
        samples.append(AlignedSample(
            st_i=iso_i[qi].vector, st_j=iso_j[qj].vector,
            smt_ij=_scale(rec_i.vector, slow_i), smt_ji=_scale(rec_j.vector, slow_j),
            slowdown_i=slow_i, slowdown_j=slow_j,
        ))
    return AlignmentResult(samples=tuple(samples), dropped=dropped)


def _scale(vector: CategoryVector, factor: float) -> CategoryTriple:
    return CategoryTriple(fe=vector.fe * factor, be=vector.be * factor, fdc=vector.fdc * factor)


def _read_profile(path: str) -> tuple[TraceHeader, list[list[ProfileRecord]]]:
    """A profile file's header and its threads' records, in roster order.

    An isolated file holds one thread and a paired file two, which run
    in the same quanta; every record has a committed count of at least
    1 (cumulative progress is strictly increasing).
    """
    header, samples, committed = read_counter_file(path)
    if header.mode is None:
        raise TraceError(f"{path}: profile file must declare a mode in its header")
    records: dict[str, list[ProfileRecord]] = {t: [] for t in header.threads}
    first: dict[str, int] = {}  # each thread's first quantum
    for sample, done in zip(samples, committed):
        first.setdefault(sample.thread_id, sample.quantum_index)
        vector = normalize(characterize(sample, header.dispatch_width))
        records[sample.thread_id].append(ProfileRecord(vector=vector, committed=done))
    runs = [records[t] for t in header.threads]

    if header.mode == "isolated" and len(runs) != 1:
        raise TraceError(f"{path}: isolated profile must hold exactly one thread")
    if header.mode == "paired":
        if len(runs) != 2:
            raise TraceError(f"{path}: paired profile must hold exactly two threads")
        if len(runs[0]) != len(runs[1]):
            raise TraceError(f"{path}: paired threads cover different numbers of quanta "
                             f"({len(runs[0])} vs {len(runs[1])})")
    for app, run in zip(header.threads, runs):
        if not run:
            raise TraceError(f"profile for {app!r} has no records")
        for idx, record in enumerate(run):
            if record.committed < 1:
                raise TraceError(f"profile {app!r} quantum {idx}: committed count must be >= 1 "
                                 "(cumulative progress is strictly increasing)")
    # The parser keeps each thread's quanta contiguous, so two runs of
    # one length share every quantum exactly when they start together.
    if len(set(first.values())) > 1:
        lone = min(first, key=first.get)
        raise TraceError(f"{path}: paired threads must share every quantum, "
                         f"but quantum {first[lone]} holds only {lone!r}")
    return header, runs


def aligned_samples(paths: Iterable[str]) -> AlignmentResult:
    """Read profile files and align each paired run with its apps'
    isolated runs.

    Alignment compares committed instructions per quantum, so the files
    must share one dispatch width and quantum length.  Each app needs
    exactly one isolated profile and each pair at most one paired run;
    a file set that breaks this or yields no sample is a ConfigError,
    and a paired run that overlaps no isolated quantum an AlignmentError.
    """
    isolated: dict[str, list[ProfileRecord]] = {}
    paired: dict[tuple[str, str], list[list[ProfileRecord]]] = {}  # apps in sorted order
    first = None  # (path, shape) of the first file
    for path in paths:
        header, runs = _read_profile(path)
        shape = f"dispatch_width {header.dispatch_width}, quantum_ms {header.quantum_ms}"
        if first is None:
            first = (path, shape)
        elif shape != first[1]:
            raise ConfigError(f"{path}: {shape} differ from {first[0]}: {first[1]}")
        if header.mode == "isolated":
            (app,) = header.threads
            if app in isolated:
                raise ConfigError(f"duplicate isolated profile for {app!r}")
            isolated[app] = runs[0]
        else:
            a, b = header.threads
            key = (min(a, b), max(a, b))
            if key in paired:
                raise ConfigError(f"duplicate paired profile for {a!r} with {b!r}")
            paired[key] = runs if a < b else runs[::-1]

    samples: list[AlignedSample] = []
    dropped = 0
    for (a, b), (run_a, run_b) in sorted(paired.items()):
        for app in (a, b):
            if app not in isolated:
                raise ConfigError(f"no isolated baseline profile for {app!r}")
        result = align(isolated[a], isolated[b], run_a, run_b)
        if not result.samples:
            raise AlignmentError(f"no overlap between paired run ({a!r}, {b!r}) "
                                 "and the isolated profiles")
        samples.extend(result.samples)
        dropped += result.dropped
    if not samples:
        raise ConfigError("profiles produced no training samples")
    return AlignmentResult(samples=tuple(samples), dropped=dropped)


@dataclass(frozen=True)
class FitReport:
    """Trained coefficients plus holdout quality and bookkeeping."""

    coefficients: ModelCoefficients
    mse: dict[str, float]
    n_samples: int
    n_train: int
    n_validation: int
    split: float
    seed: int

    def to_json(self) -> str:
        doc = {
            "coefficients": self.coefficients.as_dict(),
            "mse": {k: self.mse[k] for k in CATEGORIES},
            "n_samples": self.n_samples,
            "n_train": self.n_train,
            "n_validation": self.n_validation,
            "split": self.split,
            "seed": self.seed,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _sample_key(sample: AlignedSample) -> tuple[float, ...]:
    return (
        sample.st_i.fdc, sample.st_i.fe, sample.st_i.be,
        sample.st_j.fdc, sample.st_j.fe, sample.st_j.be,
        sample.smt_ij.fdc, sample.smt_ij.fe, sample.smt_ij.be,
        sample.smt_ji.fdc, sample.smt_ji.fe, sample.smt_ji.be,
    )


def _rows(samples: list[AlignedSample], category: str) -> tuple[np.ndarray, np.ndarray]:
    """Regression rows for one category; each sample contributes both
    directions of the pair."""
    xs = []
    ys = []
    for s in samples:
        ci = s.st_i.get(category)
        cj = s.st_j.get(category)
        xs.append((1.0, ci, cj, ci * cj))
        ys.append(s.smt_ij.get(category))
        xs.append((1.0, cj, ci, cj * ci))
        ys.append(s.smt_ji.get(category))
    return np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)


def fit(samples, split: float = 0.8, seed: int = 0) -> FitReport:
    """Fit per-category coefficients by least squares on aligned samples.

    ``split`` is the training fraction; the rest is held out for the
    reported per-category MSE (with ``split == 1.0`` the MSE is
    computed on the training rows).  The split shuffles a canonical
    content-sorted ordering with the given seed, so the result is
    independent of the order samples are passed in.
    """
    if seed < 0:
        raise FitError(f"seed must be >= 0, got {seed}")
    samples = list(samples)
    if not samples:
        raise FitError("cannot fit a model from zero aligned samples")
    if not 0.0 < split <= 1.0:
        raise FitError(f"split must be in (0, 1], got {split}")

    ordered = sorted(samples, key=_sample_key)
    perm = np.random.default_rng(seed).permutation(len(ordered))
    shuffled = [ordered[i] for i in perm]
    n_train = int(round(split * len(shuffled)))
    n_train = min(max(n_train, 1), len(shuffled))
    train = shuffled[:n_train]
    holdout = shuffled[n_train:]
    validation = holdout if holdout else train

    coeffs: dict[str, CategoryCoefficients] = {}
    for category in CATEGORIES:
        # rcond=None counts as zero every singular value below
        # eps * max(M, N) * s_max: a rank below 4 leaves a coefficient free.
        theta, _, rank, _ = np.linalg.lstsq(*_rows(train, category), rcond=None)
        if rank < 4:
            raise RankDeficientError(category)
        alpha, beta, gamma, rho = map(float, theta)
        coeffs[category] = CategoryCoefficients(alpha=alpha, beta=beta, gamma=gamma, rho=rho)

    model = ModelCoefficients(
        **coeffs, provenance=f"trained-n{len(samples)}-split{split}-seed{seed}"
    )
    return FitReport(
        coefficients=model,
        mse=evaluate(model, validation),
        n_samples=len(samples),
        n_train=len(train),
        n_validation=len(holdout),
        split=split,
        seed=seed,
    )


def evaluate(model: ModelCoefficients, samples) -> dict[str, float]:
    """Per-category mean squared error of the model on aligned samples.

    Uses the affine form directly (no clamping), mirroring how the
    model is fitted.
    """
    samples = list(samples)
    if not samples:
        raise FitError("cannot evaluate on zero samples")
    out: dict[str, float] = {}
    for category in CATEGORIES:
        c = model.category(category)
        theta = np.array([c.alpha, c.beta, c.gamma, c.rho])
        x, y = _rows(samples, category)
        residual = x @ theta - y
        out[category] = float(np.mean(residual * residual))
    return out
