"""Offline training of the interference model from profiling runs.

Inputs are *profiles*: per-quantum category vectors plus committed
instruction counts, recorded once per app in isolation and once per app
pair under co-execution.  Committed-instruction alignment matches each
co-run quantum to the isolated quantum covering the same point in the
program, which both supplies the regressors (the isolated vectors) and
rescales the observed co-run fractions by the locally measured
slowdown so they are expressed relative to isolated execution — the
quantity the forward model predicts.

Fitting is per-category ordinary least squares on the regressors
``[1, c_i, c_j, c_i * c_j]`` via the normal equations, with a
pseudo-inverse fallback for ill-conditioned systems.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .counters import TraceHeader, read_counter_file
from .dispatch import CATEGORIES, CategoryTriple, CategoryVector, characterize, normalize
from .errors import AlignmentError, FitError, RankDeficientError, TraceError
from .interference import CategoryCoefficients, ModelCoefficients

#: Condition-number threshold above which OLS switches to the pseudo-inverse.
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class ProfileRecord:
    """One profiled quantum: behavior vector and instructions committed."""

    vector: CategoryVector
    committed: int


@dataclass(frozen=True)
class Profile:
    """Per-quantum history of one app from a profiling run."""

    app_id: str
    mode: str  # "isolated" | "paired"
    partner: str | None
    records: tuple[ProfileRecord, ...]
    dispatch_width: int
    quantum_ms: float

    def __post_init__(self) -> None:
        if self.mode not in ("isolated", "paired"):
            raise TraceError(f"unknown profile mode {self.mode!r}")
        if self.mode == "paired" and not self.partner:
            raise TraceError("paired profile must name its partner app")
        if self.mode == "isolated" and self.partner:
            raise TraceError("isolated profile cannot have a partner")
        if not self.records:
            raise TraceError(f"profile for {self.app_id!r} has no records")
        for idx, record in enumerate(self.records):
            if record.committed < 1:
                raise TraceError(
                    f"profile {self.app_id!r} quantum {idx}: committed count "
                    "must be >= 1 (cumulative progress is strictly increasing)"
                )

    @property
    def cumulative(self) -> tuple[int, ...]:
        out = []
        total = 0
        for record in self.records:
            total += record.committed
            out.append(total)
        return tuple(out)


def load_profiles(path: str) -> list[Profile]:
    """Load the profile(s) stored in one file.

    Isolated files hold one thread and yield one profile; paired files
    hold the two co-running threads and yield two profiles that name
    each other as partner.
    """
    header, samples, committed = read_counter_file(path, require_committed=True)
    if header.mode is None:
        raise TraceError(f"{path}: profile file must declare a mode in its header")

    per_thread: dict[str, list[tuple[CategoryVector, int]]] = {
        t: [] for t in header.threads
    }
    for sample, done in zip(samples, committed):
        vector = normalize(characterize(sample, header.dispatch_width))
        per_thread[sample.thread_id].append((vector, done))

    if header.mode == "isolated":
        if len(header.threads) != 1:
            raise TraceError(f"{path}: isolated profile must hold exactly one thread")
        app = header.threads[0]
        return [_build_profile(app, "isolated", None, per_thread[app], header)]

    if len(header.threads) != 2:
        raise TraceError(f"{path}: paired profile must hold exactly two threads")
    a, b = header.threads
    if len(per_thread[a]) != len(per_thread[b]):
        raise TraceError(
            f"{path}: paired threads cover different numbers of quanta "
            f"({len(per_thread[a])} vs {len(per_thread[b])})"
        )
    return [
        _build_profile(a, "paired", b, per_thread[a], header),
        _build_profile(b, "paired", a, per_thread[b], header),
    ]


def _build_profile(
    app: str,
    mode: str,
    partner: str | None,
    rows: list[tuple[CategoryVector, int]],
    header: TraceHeader,
) -> Profile:
    return Profile(
        app_id=app,
        mode=mode,
        partner=partner,
        records=tuple(ProfileRecord(vector=v, committed=c) for v, c in rows),
        dispatch_width=header.dispatch_width,
        quantum_ms=header.quantum_ms,
    )


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


def _align_index(iso_cumulative: tuple[int, ...], smt_cum: int) -> int | None:
    """Index of the isolated quantum whose cumulative count brackets
    ``smt_cum`` (first quantum reaching it), or None past coverage."""
    idx = bisect_left(iso_cumulative, smt_cum)
    if idx >= len(iso_cumulative):
        return None
    return idx


def align(
    iso_i: Profile, iso_j: Profile, paired_i: Profile, paired_j: Profile
) -> AlignmentResult:
    """Join a paired run with both apps' isolated profiles.

    For each co-run quantum, each app's cumulative committed count
    locates the isolated quantum covering the same program position;
    that quantum supplies the isolated vector, and the ratio of
    committed-per-quantum rates supplies the local slowdown used to
    rescale the observed co-run fractions.  Co-run quanta past either
    isolated profile's coverage are dropped (counted in the result).
    """
    if iso_i.mode != "isolated" or iso_j.mode != "isolated":
        raise AlignmentError("iso_i/iso_j must be isolated profiles")
    if paired_i.mode != "paired" or paired_j.mode != "paired":
        raise AlignmentError("paired_i/paired_j must come from a paired run")
    if paired_i.app_id != iso_i.app_id or paired_j.app_id != iso_j.app_id:
        raise AlignmentError("profile app ids do not line up")
    if paired_i.partner != paired_j.app_id or paired_j.partner != paired_i.app_id:
        raise AlignmentError("paired profiles do not name each other as partner")
    if len(paired_i.records) != len(paired_j.records):
        raise AlignmentError("paired profiles cover different numbers of quanta")

    cum_i = iso_i.cumulative
    cum_j = iso_j.cumulative
    samples: list[AlignedSample] = []
    dropped = 0
    done_i = 0
    done_j = 0
    for rec_i, rec_j in zip(paired_i.records, paired_j.records):
        done_i += rec_i.committed
        done_j += rec_j.committed
        qi = _align_index(cum_i, done_i)
        qj = _align_index(cum_j, done_j)
        if qi is None or qj is None:
            dropped += 1
            continue
        slow_i = iso_i.records[qi].committed / rec_i.committed
        slow_j = iso_j.records[qj].committed / rec_j.committed
        samples.append(
            AlignedSample(
                st_i=iso_i.records[qi].vector,
                st_j=iso_j.records[qj].vector,
                smt_ij=_scale(rec_i.vector, slow_i),
                smt_ji=_scale(rec_j.vector, slow_j),
                slowdown_i=slow_i,
                slowdown_j=slow_j,
            )
        )
    if not samples:
        raise AlignmentError(
            f"no overlap between paired run ({paired_i.app_id!r}, "
            f"{paired_j.app_id!r}) and the isolated profiles"
        )
    return AlignmentResult(samples=tuple(samples), dropped=dropped)


def _scale(vector: CategoryVector, factor: float) -> CategoryTriple:
    return CategoryTriple(
        fe=vector.fe * factor, be=vector.be * factor, fdc=vector.fdc * factor
    )


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
    used_pinv: dict[str, bool]

    def to_json(self) -> str:
        doc = {
            "coefficients": json.loads(self.coefficients.to_json()),
            "mse": {k: self.mse[k] for k in CATEGORIES},
            "n_samples": self.n_samples,
            "n_train": self.n_train,
            "n_validation": self.n_validation,
            "split": self.split,
            "seed": self.seed,
            "used_pinv": {k: self.used_pinv[k] for k in CATEGORIES},
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
    """Fit per-category coefficients by OLS on aligned samples.

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
    used_pinv: dict[str, bool] = {}
    for category in CATEGORIES:
        x_train, y_train = _rows(train, category)
        if np.linalg.matrix_rank(x_train) < 4:
            raise RankDeficientError(category)
        gram = x_train.T @ x_train
        pinv = bool(np.linalg.cond(gram) > CONDITION_LIMIT)
        if pinv:
            theta = np.linalg.pinv(x_train) @ y_train
        else:
            theta = np.linalg.solve(gram, x_train.T @ y_train)
        used_pinv[category] = pinv
        coeffs[category] = CategoryCoefficients(
            alpha=float(theta[0]),
            beta=float(theta[1]),
            gamma=float(theta[2]),
            rho=float(theta[3]),
        )

    model = ModelCoefficients(
        fdc=coeffs["fdc"],
        fe=coeffs["fe"],
        be=coeffs["be"],
        provenance=f"trained-n{len(samples)}-split{split}-seed{seed}",
    )
    return FitReport(
        coefficients=model,
        mse=evaluate(model, validation),
        n_samples=len(samples),
        n_train=len(train),
        n_validation=len(holdout),
        split=split,
        seed=seed,
        used_pinv=used_pinv,
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
