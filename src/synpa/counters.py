"""Hardware-counter samples and the trace and profile file formats.

A trace file carries one JSON header line, a column line and one row
per (quantum, thread) of fixed comma-separated fields, never quoted:

    {"version": 1, "dispatch_width": 4, "quantum_ms": 100.0, "threads": ["a", "b"]}
    quantum,thread,cpu_cycles,inst_spec,stall_frontend,stall_backend
    0,a,1000,1200,200,300
    ...

A profile file (see :mod:`synpa.trainer`) has a ``mode`` in its header
and exactly then an extra ``committed_instructions`` column.  Thread ids
are non-empty and hold no comma or line break.  Counts are ASCII digits
below 2**64, as in a 64-bit hardware counter.  Rows are ordered by
``(quantum, thread)`` with no quantum skipped, and each thread's quanta
are contiguous.
:func:`parse_counter_text` checks each row as it reads it, in one pass,
and names the line of the first defect.  Replay reads a whole trace at
once with :func:`open_trace`, which hands the engine its samples
grouped by quantum.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Mapping

from .errors import (
    RosterError, TraceError, json_document, json_list, json_number, json_string, read_text,
    whole_number,
)

TRACE_VERSION = 1

_COUNTER_FIELDS = ("cpu_cycles", "inst_spec", "stall_frontend", "stall_backend")

#: Columns common to traces and profiles, in file order.
TRACE_COLUMNS = ("quantum", "thread") + _COUNTER_FIELDS

#: Extra column present only in profile files.
COMMITTED_COLUMN = "committed_instructions"

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


def sample_from_fractions(
    quantum_index: int, thread_id: str, *, fe: float, be: float, fdc: float,
    cycles: int, dispatch_width: int,
) -> RawCounterSample:
    """A sample of ``cycles`` cycles that ``characterize`` then ``normalize``
    read as ``(fe, be, fdc)``: fractions that are non-negative and sum to 1
    up to float rounding, or all 0 (every cycle a revealed back-end stall).
    It needs ``cycles >= 1``, exact as a float (up to 2**53, or any
    ``cycles_per_quantum``), and ``cycles * dispatch_width < 2**64``.  The
    sample never makes ``characterize`` clamp, and after ``normalize``
    each category is within ``2 / cycles`` of its input: ``fe`` is off by
    at most ``0.5 / cycles``, ``inst_spec`` loses at most one cycle of
    slots to the ``min``, and ``be`` is the rest."""
    stall_fe = round(cycles * fe)  # at most cycles: fe <= 1
    stall_be = min(round(cycles * be), cycles - stall_fe)
    inst = min(round(cycles * fdc * dispatch_width), (cycles - stall_fe - stall_be) * dispatch_width)
    return RawCounterSample(quantum_index, thread_id, cycles, inst, stall_fe, stall_be)


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
        for thread in self.threads:
            if not thread:
                raise TraceError("thread ids must be non-empty", line=1)
            if "," in thread or "".join(thread.splitlines()) != thread:
                raise TraceError(f"thread id {thread!r} holds a comma or a line break", line=1)
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


def read_counter_file(path: str) -> tuple[TraceHeader, list[RawCounterSample], list[int]]:
    """:func:`parse_counter_text` of a file; an unreadable one is a :class:`ConfigError`."""
    return parse_counter_text(read_text(path))


def _count(field: str, name: str) -> int:
    """A count field of a row: ASCII digits below 2**64, as the trace
    writer emits them (``int`` alone would take signs, spaces and
    underscores).  Leading zeros are stripped first, since ``int``
    refuses over 4300 characters; over 20 digits left is 2**64 or more."""
    if not (field.isascii() and field.isdigit()):
        raise TraceError(f"bad counter value: {name} must be ASCII digits, got {field!r}")
    digits = field.lstrip("0")
    if len(digits) <= 20:
        value = int(digits or "0")
        if value < COUNTER_LIMIT:
            return value
    raise TraceError(f"{name} must be below 2**64")


def parse_counter_text(text: str) -> tuple[TraceHeader, list[RawCounterSample], list[int]]:
    """Parse a trace or profile in one pass over its lines.

    Returns ``(header, samples, committed)`` where ``committed`` is the
    per-row committed-instruction column, which a file has exactly when
    its header has a ``mode`` (a profile); it is empty for a trace.
    Every defect is a :class:`TraceError` naming its line: a row of
    another field count, a count that is not ASCII digits below 2**64,
    a thread outside the roster (:class:`RosterError`), a row not after
    the previous one in ``(quantum, thread)`` order, a skipped quantum
    and a gap in one thread's quanta.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise TraceError("empty file: missing JSON header", line=1)
    header = _parse_header(lines[0])

    profile = header.mode is not None
    columns = TRACE_COLUMNS + ((COMMITTED_COLUMN,) if profile else ())
    if len(lines) < 2 or not lines[1].strip():
        raise TraceError("missing CSV column header", line=2)
    found = tuple(c.strip() for c in lines[1].split(","))
    if found != columns:
        raise TraceError(f"unexpected columns {found!r}; expected {columns!r}", line=2)

    roster = set(header.threads)
    latest: dict[str, int] = {}  # each thread's last quantum so far
    key: tuple[int, str] | None = None  # the previous row's (quantum, thread)
    samples: list[RawCounterSample] = []
    committed: list[int] = []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        row = line.split(",")
        if len(row) != len(columns):
            raise TraceError(f"expected {len(columns)} fields, found {len(row)}", line=lineno)
        try:
            sample = RawCounterSample(
                quantum_index=_count(row[0], "quantum"),
                thread_id=row[1],
                cpu_cycles=_count(row[2], "cpu_cycles"),
                inst_spec=_count(row[3], "inst_spec"),
                stall_frontend=_count(row[4], "stall_frontend"),
                stall_backend=_count(row[5], "stall_backend"),
            )
            if profile:
                committed.append(_count(row[6], COMMITTED_COLUMN))
        except TraceError as exc:
            raise TraceError(str(exc), line=lineno) from None
        quantum, thread = sample.quantum_index, sample.thread_id
        if thread not in roster:
            raise RosterError(f"thread {thread!r} not declared in header roster", line=lineno)
        if key is not None:
            if (quantum, thread) <= key:
                raise TraceError(
                    f"rows out of order: {(quantum, thread)} follows {key} "
                    "(must be sorted by (quantum, thread))",
                    line=lineno,
                )
            if quantum > key[0] + 1:
                raise TraceError(f"no samples for quantum {key[0] + 1}", line=lineno)
        if latest.get(thread, quantum - 1) != quantum - 1:
            raise TraceError(
                f"thread {thread!r} has a gap between quanta {latest[thread]} and {quantum}",
                line=lineno,
            )
        latest[thread] = quantum
        key = (quantum, thread)
        samples.append(sample)

    return header, samples, committed


def open_trace(path: str) -> tuple[TraceHeader, list[list[RawCounterSample]]]:
    """Read a trace file; returns its header and its samples grouped by quantum.

    Groups come in quantum order, each in thread order, as the parser
    enforces.  Replay observes threads through their rows alone, so a
    profile header and a roster thread without rows are a
    :class:`TraceError` on line 1.
    """
    header, samples, _ = read_counter_file(path)
    if header.mode is not None:
        raise TraceError(f"a profile (mode {header.mode!r}) is not a trace", line=1)
    quanta, sampled = [], set()
    for _, group in groupby(samples, key=attrgetter("quantum_index")):
        quanta.append(list(group))
        sampled.update(s.thread_id for s in quanta[-1])
    silent = [a for a in header.threads if a not in sampled]
    if silent:
        raise TraceError(f"threads with no sample rows: {silent}", line=1)
    return header, quanta


def format_trace(
    header: TraceHeader,
    samples: Iterable[RawCounterSample],
    committed: Mapping[tuple[int, str], int] | None = None,
) -> str:
    """Serialize samples to the on-disk format.

    Round trip guarantee: ``parse_counter_text(format_trace(h, s, c))``
    reproduces ``h`` and ``s``.  A profile header (one with a ``mode``)
    writes the committed column from ``committed``, keyed by
    ``(quantum, thread)``; a trace header writes none.
    """
    profile = header.mode is not None
    cols = TRACE_COLUMNS + ((COMMITTED_COLUMN,) if profile else ())
    out = [header.to_json(), ",".join(cols)]
    for s in sorted(samples, key=lambda s: (s.quantum_index, s.thread_id)):
        row = (
            f"{s.quantum_index},{s.thread_id},{s.cpu_cycles},"
            f"{s.inst_spec},{s.stall_frontend},{s.stall_backend}"
        )
        if profile:
            row += f",{committed[(s.quantum_index, s.thread_id)]}"
        out.append(row)
    return "\n".join(out) + "\n"
