"""In-memory span tracing around synpa's layer functions.

The tracer wraps each layer function at the name through which
``synpa.engine`` and ``synpa.cli`` call it, so a span is recorded per
call with its name, start, end and parent span.  Nothing inside synpa
changes: the wrappers are installed for a traced pass and removed after
it, so untraced passes run the unmodified functions.

A wrapped name that no longer exists (say, once prediction is
vectorized and ``predict_pair`` leaves ``synpa.engine``) is skipped and
reported as not measured instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: (module, attribute path, span name).  The attribute is looked up in the
#: namespace the caller resolves it from, which is why ``run`` and
#: ``compute_metrics`` are wrapped in ``synpa.cli`` and the rest in
#: ``synpa.engine``.  ``read_counter_file`` only feeds the row count.
TARGETS = (
    ("synpa.cli", "run", "engine.run"),
    ("synpa.cli", "compute_metrics", "harness.compute_metrics"),
    ("synpa.engine", "ScheduleLog.to_jsonl", "engine.to_jsonl"),
    ("synpa.engine", "sim_step", "engine.sim_step"),
    ("synpa.engine", "invert", "interference.invert"),
    ("synpa.engine", "predict_pair", "interference.predict_pair"),
    ("synpa.engine", "build_graph", "matcher.build_graph"),
    ("synpa.engine", "min_weight_perfect_matching", "matcher.solve"),
    ("synpa.engine", "open_trace", "counters.open_trace"),
    ("synpa.counters", "read_counter_file", "counters.read_counter_file"),
    ("synpa.engine", "characterize", "dispatch.characterize"),
    ("synpa.engine", "normalize", "dispatch.normalize"),
)

ROOT_SPAN = "cli.main"


def _count_result(name, counts, args, result):
    """Counts taken at the span boundary from arguments and results."""
    if name == "matcher.solve":
        counts["matcher.nodes"] = max(counts["matcher.nodes"], len(args[0].nodes))
    elif name == "interference.invert":
        counts["interference.degraded"] += bool(result.degraded)
    elif name == "dispatch.characterize":
        counts["dispatch.clamped"] += bool(result.clamped)
    elif name == "counters.read_counter_file":
        counts["counters.rows"] += len(result[1])
    elif name == "engine.to_jsonl":
        counts["engine.log_bytes"] += len(result.encode("utf-8"))


class Tracer:
    """Records spans as ``[id, parent id, name, start, end]`` lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._targets = []
        self.missing: list[str] = []
        for module_name, path, span in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            if owner is None or not callable(getattr(owner, attr, None)):
                self.missing.append(span)
                continue
            self._targets.append((owner, attr, span, getattr(owner, attr)))

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [len(self.spans), parent, name, perf_counter(), 0.0]
        self.spans.append(record)
        self._stack.append(record[0])
        return record

    def _close(self, record: list) -> None:
        record[4] = perf_counter()
        self._stack.pop()

    def _wrap(self, span: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            _count_result(span, self.counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every available target for the duration of the block."""
        for owner, attr, span, original in self._targets:
            setattr(owner, attr, self._wrap(span, original))
        try:
            yield self
        finally:
            for owner, attr, _, original in self._targets:
                setattr(owner, attr, original)


def summarize(spans: list[list]) -> tuple[dict, dict, list[float]]:
    """Self time and call count per layer, plus per-call solve times.

    Self time is a span's duration minus the time its direct children
    cover.  ``predict_pair`` calls made by the simulator's own stepping
    (parent ``engine.sim_step``) are ground truth, not allocator work:
    they stay inside ``engine.sim_step`` and are neither timed nor
    counted as ``interference.predict_pair``.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    names = {sid: name for sid, _, name, _, _ in spans}
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    solve_calls: list[float] = []
    for sid, parent, name, start, end in spans:
        duration = end - start
        if name == "interference.predict_pair" and names.get(parent) == "engine.sim_step":
            self_s["engine.sim_step"] += duration
            continue
        self_s[name] += duration - child_time[sid]
        calls[name] += 1
        if name == "matcher.solve":
            solve_calls.append(duration)
    return dict(self_s), dict(calls), solve_calls
