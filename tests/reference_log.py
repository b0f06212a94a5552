"""The run-log writer written record dict by record dict: the reference
that :meth:`synpa.engine.ScheduleLog.to_jsonl` must match byte for byte
(``test_engine.TestLogWriterOracle``), as ``reference_simulator.py`` is
for the simulator's step.

Here every record becomes a dict of dicts, one ``as_dict()`` per triple,
and ``json.dumps(sort_keys=True)`` sorts and encodes all of it.  The
package writes the same text through one record template per roster.
"""

from __future__ import annotations

import json

from synpa.engine import LOG_HEADER, LOG_SUMMARY, LOG_VERSION, ScheduleLog


def to_jsonl(log: ScheduleLog) -> str:
    header = {
        "kind": "schedule-log",
        "version": LOG_VERSION,
        "apps": list(log.apps),
        **{key: getattr(log, key) for key in LOG_HEADER},
    }
    records = (
        {
            "quantum": r.quantum,
            "pairs": [list(p) for p in r.pairs],
            "observed": {k: v.as_dict() for k, v in r.observed.items()},
            "estimates": {k: v.as_dict() for k, v in r.estimates.items()},
            "degraded": r.degraded,
            "committed": r.committed,
            "slowdown": r.slowdown,
            "migrations": r.migrations,
        }
        for r in log.records
    )
    summary = {key: getattr(log, key) for key in (*LOG_SUMMARY, "total_quanta")}
    # sort_keys orders every level, so the dicts go in as they are.
    docs = [header, *records, {"summary": summary}]
    return "".join(json.dumps(doc, sort_keys=True) + "\n" for doc in docs)
