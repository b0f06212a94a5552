"""The counter-file reader in two passes: the reference that
:func:`synpa.counters.parse_counter_text` must agree with
(``test_counters.TestReaderOracle``).

The first pass reads the rows with :mod:`csv` and checks each field;
the second checks the rows against each other: roster membership,
``(quantum, thread)`` order, each thread's contiguous quanta and no
skipped quantum.  The caller says whether the rows carry the committed
column.  The package checks the same rules in one pass, each row as it
reads it.
"""

from __future__ import annotations

import csv
import io
from typing import Sequence

from synpa.counters import (
    COMMITTED_COLUMN,
    COUNTER_LIMIT,
    TRACE_COLUMNS,
    RawCounterSample,
    TraceHeader,
    _parse_header,
)
from synpa.errors import RosterError, TraceError


def _count(field: str, name: str) -> int:
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
        raise TraceError(f"unexpected columns {cols!r}; expected {expected_cols!r}", line=2)

    samples: list[RawCounterSample] = []
    committed: list[int] = []
    for offset, row in enumerate(reader):
        lineno = offset + 3
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(expected_cols):
            raise TraceError(f"expected {len(expected_cols)} fields, found {len(row)}", line=lineno)
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
            raise RosterError(f"thread {sample.thread_id!r} not declared in header roster")
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
                raise TraceError(f"thread {thread!r} has a gap between quanta {a} and {b}")

    # Every quantum between the global first and last must have samples:
    # a silent quantum means some alive thread is missing.
    if samples:
        present = sorted({s.quantum_index for s in samples})
        for a, b in zip(present, present[1:]):
            if b != a + 1:
                raise TraceError(f"no samples for quantum {a + 1}")
