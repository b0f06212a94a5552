"""Exception hierarchy shared across the package.

Every error raised on a bad input or a violated contract derives from
:class:`SynpaError`, so callers (and the CLI) can distinguish domain
failures from programming bugs.
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
