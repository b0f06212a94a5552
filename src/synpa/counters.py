"""Hardware-counter samples and the trace and profile file formats.

A trace file carries one JSON header line followed by CSV rows, one row
per (quantum, thread):

    {"version": 1, "dispatch_width": 4, "quantum_ms": 100.0, "threads": ["a", "b"]}
    quantum,thread,cpu_cycles,inst_spec,stall_frontend,stall_backend
    0,a,1000,1200,200,300
    ...

Profile files (see :mod:`synpa.trainer`) use the same layout with an
extra ``committed_instructions`` column and a ``mode`` field in the
header.  Counter values are nonnegative integers below 2**64, as in a
64-bit hardware counter; rows are ordered by ``(quantum, thread)`` and
each thread occupies a contiguous range of quanta.  Replay reads a
whole trace at once with :func:`open_trace`, which hands the engine its
samples grouped by quantum.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from .errors import (
    RosterError, TraceError, json_document, json_list, json_number, json_string, read_text,
    whole_number,
)

TRACE_VERSION = 1

#: CSV columns common to traces and profiles, in file order.
TRACE_COLUMNS = (
    "quantum",
    "thread",
    "cpu_cycles",
    "inst_spec",
    "stall_frontend",
    "stall_backend",
)

#: Extra column present only in profile files.
COMMITTED_COLUMN = "committed_instructions"

_COUNTER_FIELDS = ("cpu_cycles", "inst_spec", "stall_frontend", "stall_backend")

#: Counter values are below this bound: hardware PMU counters are 64-bit.
COUNTER_LIMIT = 2**64


@dataclass(frozen=True)
class RawCounterSample:
    """One quantum's worth of dispatch-stage counters for one thread."""

    quantum_index: int
    thread_id: str
    cpu_cycles: int
    inst_spec: int
    stall_frontend: int
    stall_backend: int

    def __post_init__(self) -> None:
        # One chained test; the loop below names a failing field.
        if (
            type(self.quantum_index) is int and 0 <= self.quantum_index < COUNTER_LIMIT
            and type(self.cpu_cycles) is int and 0 <= self.cpu_cycles < COUNTER_LIMIT
            and type(self.inst_spec) is int and 0 <= self.inst_spec < COUNTER_LIMIT
            and type(self.stall_frontend) is int and 0 <= self.stall_frontend < COUNTER_LIMIT
            and type(self.stall_backend) is int and 0 <= self.stall_backend < COUNTER_LIMIT
            and self.thread_id
        ):
            return
        for name in ("quantum_index",) + _COUNTER_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TraceError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise TraceError(f"{name} must be nonnegative, got {value}")
            if value >= COUNTER_LIMIT:
                raise TraceError(f"{name} must be below 2**64")
        if not self.thread_id:
            raise TraceError("thread_id must be a non-empty string")


@dataclass(frozen=True)
class TraceHeader:
    """Parsed JSON header of a trace or profile file, the file's line 1:
    its errors name that line."""

    dispatch_width: int
    quantum_ms: float
    threads: tuple[str, ...]
    mode: str | None = None  # "isolated" | "paired" (profiles only)

    def __post_init__(self) -> None:
        if self.dispatch_width < 1:
            raise TraceError(f"dispatch_width must be >= 1, got {self.dispatch_width}", line=1)
        if not (math.isfinite(self.quantum_ms) and self.quantum_ms > 0):
            raise TraceError(
                f"quantum_ms must be positive and finite, got {self.quantum_ms}", line=1
            )
        if len(set(self.threads)) != len(self.threads):
            raise TraceError("duplicate thread ids in header roster", line=1)
        if self.mode not in (None, "isolated", "paired"):
            raise TraceError(f"unknown profile mode {self.mode!r}", line=1)

    def to_json(self) -> str:
        doc = {
            "version": TRACE_VERSION,
            "dispatch_width": self.dispatch_width,
            "quantum_ms": self.quantum_ms,
            "threads": list(self.threads),
        }
        if self.mode is not None:
            doc["mode"] = self.mode
        return json.dumps(doc, sort_keys=True)


def _parse_header(line: str) -> TraceHeader:
    error = functools.partial(TraceError, line=1)
    doc = json_document(line, error, version=TRACE_VERSION)
    threads = json_list(doc.get("threads"), "threads", error)
    mode = doc.get("mode")  # profiles only
    return TraceHeader(
        dispatch_width=whole_number(doc.get("dispatch_width"), "dispatch_width", error),
        quantum_ms=json_number(doc.get("quantum_ms"), "quantum_ms", error),
        threads=tuple(json_string(t, "threads", error) for t in threads),
        mode=None if mode is None else json_string(mode, "mode", error),
    )


def read_counter_file(
    path: str, *, require_committed: bool = False
) -> tuple[TraceHeader, list[RawCounterSample], list[int]]:
    """Parse a trace or profile file.

    Returns ``(header, samples, committed)`` where ``committed`` is the
    per-row committed-instruction column (empty for plain traces).
    Raises :class:`ConfigError` when the file cannot be read,
    :class:`TraceError` with a line number on malformed input and
    :class:`RosterError` when rows disagree with the header roster.
    """
    return parse_counter_text(read_text(path), require_committed=require_committed)


def _count(field: str, name: str) -> int:
    """A count field of a CSV row: ASCII digits only, as the trace writer
    emits them (``int`` alone would take signs, spaces and underscores)."""
    if field.isascii() and field.isdigit():
        return int(field)
    raise ValueError(f"{name} must be ASCII digits, got {field!r}")


def parse_counter_text(
    text: str, *, require_committed: bool = False
) -> tuple[TraceHeader, list[RawCounterSample], list[int]]:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise TraceError("empty file: missing JSON header", line=1)
    header = _parse_header(lines[0])

    expected_cols = TRACE_COLUMNS + ((COMMITTED_COLUMN,) if require_committed else ())
    if len(lines) < 2 or not lines[1].strip():
        raise TraceError("missing CSV column header", line=2)
    reader = csv.reader(io.StringIO("\n".join(lines[1:])))
    cols = tuple(c.strip() for c in next(reader))
    if cols != expected_cols:
        raise TraceError(
            f"unexpected columns {cols!r}; expected {expected_cols!r}", line=2
        )

    samples: list[RawCounterSample] = []
    committed: list[int] = []
    for offset, row in enumerate(reader):
        lineno = offset + 3
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(expected_cols):
            raise TraceError(
                f"expected {len(expected_cols)} fields, found {len(row)}", line=lineno
            )
        try:
            sample = RawCounterSample(
                quantum_index=_count(row[0], "quantum"),
                thread_id=row[1],
                cpu_cycles=_count(row[2], "cpu_cycles"),
                inst_spec=_count(row[3], "inst_spec"),
                stall_frontend=_count(row[4], "stall_frontend"),
                stall_backend=_count(row[5], "stall_backend"),
            )
        except ValueError as exc:
            raise TraceError(f"bad counter value: {exc}", line=lineno) from None
        except TraceError as exc:
            raise TraceError(str(exc), line=lineno) from None
        samples.append(sample)
        if require_committed:
            try:
                done = _count(row[6], COMMITTED_COLUMN)
            except ValueError as exc:
                raise TraceError(f"bad committed count: {exc}", line=lineno) from None
            if not 0 <= done < COUNTER_LIMIT:
                raise TraceError("committed_instructions must be >= 0 and below 2**64", line=lineno)
            committed.append(done)

    _validate_roster(header, samples)
    return header, samples, committed


def _validate_roster(header: TraceHeader, samples: Sequence[RawCounterSample]) -> None:
    """Check roster membership, row ordering and per-thread contiguity."""
    roster = set(header.threads)
    last_key: tuple[int, str] | None = None
    seen: dict[str, list[int]] = {}
    for sample in samples:
        if sample.thread_id not in roster:
            raise RosterError(
                f"thread {sample.thread_id!r} not declared in header roster"
            )
        key = (sample.quantum_index, sample.thread_id)
        if last_key is not None and key <= last_key:
            raise TraceError(
                f"rows out of order: {key} follows {last_key} "
                "(must be sorted by (quantum, thread))"
            )
        last_key = key
        seen.setdefault(sample.thread_id, []).append(sample.quantum_index)

    for thread, quanta in sorted(seen.items()):
        for a, b in zip(quanta, quanta[1:]):
            if b != a + 1:
                raise TraceError(
                    f"thread {thread!r} has a gap between quanta {a} and {b}"
                )

    # Every quantum between the global first and last must have samples:
    # a silent quantum means some alive thread is missing.
    if samples:
        present = sorted({s.quantum_index for s in samples})
        for a, b in zip(present, present[1:]):
            if b != a + 1:
                raise TraceError(f"no samples for quantum {a + 1}")


def open_trace(path: str) -> tuple[TraceHeader, list[list[RawCounterSample]]]:
    """Read a trace file; returns its header and its samples grouped by quantum.

    Groups come in quantum order, each in thread order, as the parser
    enforces; no quantum between the first and the last is missing.
    """
    header, samples, _ = read_counter_file(path)
    return header, [list(g) for _, g in groupby(samples, key=attrgetter("quantum_index"))]


def format_trace(
    header: TraceHeader,
    samples: Iterable[RawCounterSample],
    committed: Mapping[tuple[int, str], int] | None = None,
) -> str:
    """Serialize samples to the on-disk format.

    Round trip guarantee: ``parse_counter_text(format_trace(h, s))``
    reproduces ``(h, s)``.  Pass ``committed`` (keyed by
    ``(quantum, thread)``) to emit the profile-file variant.
    """
    cols = TRACE_COLUMNS + ((COMMITTED_COLUMN,) if committed is not None else ())
    out = io.StringIO()
    out.write(header.to_json() + "\n")
    out.write(",".join(cols) + "\n")
    rows = sorted(samples, key=lambda s: (s.quantum_index, s.thread_id))
    for s in rows:
        base = (
            f"{s.quantum_index},{s.thread_id},{s.cpu_cycles},"
            f"{s.inst_spec},{s.stall_frontend},{s.stall_backend}"
        )
        if committed is not None:
            base += f",{committed[(s.quantum_index, s.thread_id)]}"
        out.write(base + "\n")
    return out.getvalue()
