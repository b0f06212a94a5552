"""Exception hierarchy shared across the package.

Every error raised on a bad input or a violated contract derives from
:class:`SynpaError`, so callers (and the CLI) can distinguish domain
failures from programming bugs.  :func:`read_text` and
:func:`write_text` are the package's only file access, so a path that
cannot be read or written is a :class:`ConfigError` naming it.
"""

from __future__ import annotations


class SynpaError(Exception):
    """Base class for all domain errors raised by this package."""


class TraceError(SynpaError):
    """Malformed trace or profile file."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class RosterError(SynpaError):
    """Trace contents disagree with the declared thread roster."""


class DegenerateSampleError(SynpaError):
    """A counter sample cannot be characterized (e.g. zero cycles)."""


class ModelError(SynpaError):
    """Invalid interference-model coefficients or inputs."""


class FitError(SynpaError):
    """Training failed (empty input, degenerate split, ...)."""


class RankDeficientError(FitError):
    """The regression design matrix does not have full column rank."""

    def __init__(self, category: str):
        super().__init__(
            f"design matrix for category {category!r} is rank deficient; "
            "samples do not span the regressor space"
        )
        self.category = category


class AlignmentError(SynpaError):
    """Profiles cannot be aligned (no overlap, mismatched runs, ...)."""


class MatchingError(SynpaError):
    """The pairing graph is unusable (odd node count, missing edges, ...)."""


class ConfigError(SynpaError):
    """Invalid engine or CLI configuration."""


class WorkloadError(SynpaError):
    """Workload generation could not satisfy the requested recipe."""


def read_text(path: str) -> str:
    """The whole text of a UTF-8 file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}") from None


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, replacing the file."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from None
