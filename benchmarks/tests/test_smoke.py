"""Smoke test of the benchmark at its smallest size.

    python -m pytest benchmarks/tests

Checks that every workload runs, passes its output checks and reports
every metric that BENCHMARK.json declares, with its unit.  It asserts
no timing threshold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN if cwd == ROOT else os.path.join(cwd, "benchmarks", "run.py"),
         *args],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_reports_every_metric(trace, section):
    proc = _run("--workload", "all", "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(summary["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, result in summary["workloads"].items():
        assert result["correct"] is True, name
        assert result["failed"] == 0 and result["attempted"] >= 1, name
        assert result["error_rate"] == 0.0, name
        got = {metric: value["unit"] for metric, value in result["metrics"].items()}
        assert got == expected, name
        for metric, value in result["metrics"].items():
            assert isinstance(value["value"], (int, float)), (name, metric)


def test_traced_run_names_the_layers_it_lost(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import synpa.engine
    import tracing

    monkeypatch.delattr(synpa.engine, "predict_pair")
    tracer = tracing.Tracer()
    assert tracer.missing == ["interference.predict_pair"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
