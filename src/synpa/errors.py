"""Exception hierarchy shared across the package, and its file boundary.

Every error raised on a bad input or a violated contract derives from
:class:`SynpaError`, so callers (and the CLI) can distinguish domain
failures from programming bugs.  :func:`read_text` and
:func:`write_text` are the package's only file access, so a path that
cannot be read or written is a :class:`ConfigError` naming it;
:func:`check_writable` fails such a path, and an output that is also
an input or another output of the same call, before anything is written.

Every JSON document the package reads (workload, coefficient, run-log
and trace or profile header) becomes typed values here and only here:
:func:`json_document` parses the text, requires an object and checks its
``version`` (:func:`json_version`); :func:`json_object`, :func:`json_list`, :func:`json_string`,
:func:`json_number` and :func:`whole_number` read its fields.  Each
reader raises the format's ``error`` (see :func:`failing`), so a bad
field is reported as that format's :class:`SynpaError`.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Callable, Iterable


class SynpaError(Exception):
    """Base class for all domain errors raised by this package."""


class TraceError(SynpaError):
    """Malformed trace or profile file."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class RosterError(TraceError):
    """A trace row names a thread the header's roster does not declare."""


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


def check_writable(*paths: str | None, inputs: Iterable[str | None] = ()) -> None:
    """Fail as :func:`write_text` would on a directory or a path in a
    missing directory, and fail an output that resolves to one of the
    call's ``inputs`` or to an earlier output; unset paths (``None``)
    are skipped."""
    taken = {os.path.realpath(path): "an input" for path in filter(None, inputs)}
    for path in filter(None, paths):
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path!r}: is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"cannot write {path!r}: its directory does not exist")
        real = os.path.realpath(path)
        if real in taken:
            raise ConfigError(f"cannot write {path!r}: it is also {taken[real]} of this call")
        taken[real] = "another output"


#: Turns a message into the reading format's error.
Fail = Callable[[str], SynpaError]


def failing(kind: type[SynpaError], prefix: str) -> Fail:
    """The ``error`` of a format whose messages start with ``prefix``."""
    return lambda message: kind(f"{prefix}: {message}")


def json_document(text: str, error: Fail, version: int | None = None) -> dict:
    """The JSON object ``text`` holds, of ``version`` if given (see
    :func:`json_version`)."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # bad JSON, or an integer of over 4300 digits
        raise error(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise error("not a JSON object")
    if version is not None:
        json_version(doc, version, error)
    return doc


def json_version(doc: dict, version: int, error: Fail) -> None:
    """Fail unless ``doc``'s ``version`` is the whole number ``version``."""
    if whole_number(doc.get("version"), "version", error) != version:
        raise error(f"unsupported version {doc['version']}, expected {version}")


def json_object(value: object, field: str, error: Fail, keys: Iterable | None = None) -> dict:
    """``value`` if it is a JSON object, with exactly ``keys`` if given."""
    if not isinstance(value, dict):
        raise error(f"{field} must be a JSON object")
    if keys is not None and set(value) != set(keys):
        raise error(f"{field} must have exactly the keys {sorted(keys)}")
    return value


def json_list(value: object, field: str, error: Fail) -> list:
    """``value`` if it is a JSON list."""
    if not isinstance(value, list):
        raise error(f"{field} must be a JSON list")
    return value


def json_string(value: object, field: str, error: Fail) -> str:
    """``value`` if it is a JSON string."""
    if not isinstance(value, str):
        raise error(f"{field} must be a string")
    return value


def json_number(value: object, field: str, error: Fail) -> float:
    """``value`` as a float if it is a JSON number within float range (a
    bool or a string is not)."""
    try:
        if type(value) in (int, float):
            return float(value)
    except OverflowError:  # an integer beyond float range
        pass
    raise error(f"{field} must be a number within float range")


def whole_number(value: object, field: str, error: Fail) -> int:
    """``value`` as an int if it is a whole JSON number within float range
    (``1e9`` is valid)."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max or value % 1:
        raise error(f"{field} must be a whole number within float range")
    return int(value)
