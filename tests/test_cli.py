"""End-to-end tests of the command-line interface.

Each test drives ``synpa.cli.main`` in-process and checks exit codes
(0 success, 1 domain error, 2 usage error), output files, and the
determinism contract: identical inputs and seeds give identical bytes.
"""

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import time

import pytest

import synpa
from synpa import (
    IDLE_NODE,
    AppClass,
    REFERENCE_COEFFICIENTS,
    ModelCoefficients,
    read_counter_file,
)
from synpa import matcher
from synpa.counters import sample_from_fractions
from synpa.cli import main
from synpa.harness import (
    WorkloadSpec,
    aggregate_runs,
    classify_app,
    compute_metrics,
    load_log_summary,
)

from conftest import write_profile_corpus, CORPUS_APPS, CORPUS_PAIRS


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def write_phase_workload(path, instructions, target):
    """Two apps, each cycling through two phases of ``instructions``."""
    vectors = ({"fe": 0.2, "be": 0.3, "fdc": 0.5}, {"fe": 0.6, "be": 0.2, "fdc": 0.2})
    phases = [{"instructions": instructions, "vector": v} for v in vectors]
    apps = [
        {"app_id": a, "class": "other", "target_instructions": target, "phases": phases}
        for a in ("a", "b")
    ]
    doc = {
        "version": 1, "name": "phases", "recipe": "mixed", "seed": 0, "quantum_ms": 100.0,
        "apps": apps,
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


@pytest.fixture(scope="module")
def workload_file(tmp_path_factory):
    """A small mixed workload shared by the simulate/replay/report tests."""
    path = tmp_path_factory.mktemp("wl") / "mixed.json"
    code = run_cli(
        "gen-workload",
        "--recipe", "mixed",
        "--seed", 1,
        "--iso-quanta", 6.0,
        "--out", path,
    )
    assert code == 0
    return path


class TestTrain:
    def test_recovers_reference_coefficients(self, profile_corpus, tmp_path, capsys):
        out = tmp_path / "coeffs.json"
        report_path = tmp_path / "fit.json"
        code = run_cli(
            "train", *profile_corpus,
            "--out", out, "--report", report_path, "--seed", 3,
        )
        assert code == 0
        got = ModelCoefficients.from_json(out.read_text(encoding="utf-8"))
        for name in ("fdc", "fe", "be"):
            want = getattr(REFERENCE_COEFFICIENTS, name)
            have = getattr(got, name)
            for field in ("alpha", "beta", "gamma", "rho"):
                assert abs(getattr(have, field) - getattr(want, field)) < 1e-6, (
                    name, field,
                )
        # spot-check against independently stated values, not just the
        # in-process constant
        assert abs(got.fdc.beta - 0.9060) < 1e-6
        assert abs(got.fe.beta - 1.4111) < 1e-6
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert set(report["mse"]) == {"fdc", "fe", "be"}
        assert all(v < 1e-12 for v in report["mse"].values())
        stdout = capsys.readouterr().out
        assert "holdout mse" in stdout
        assert str(out) in stdout

    def test_rank_deficient_corpus_is_domain_error(self, tmp_path, capsys):
        paths = write_profile_corpus(
            str(tmp_path), REFERENCE_COEFFICIENTS, CORPUS_APPS, CORPUS_PAIRS
        )
        # Drop the appa-appb co-run: without it the two remaining co-runs
        # leave the fdc regressors short of spanning their space.
        kept = [p for p in paths if "pair-appa-appb" not in p]
        code = run_cli("train", *kept, "--out", tmp_path / "c.json")
        captured = capsys.readouterr()
        assert code == 1
        assert "error: design matrix for category 'fdc' is rank deficient" in captured.err

    @pytest.mark.parametrize("field, value", [("dispatch_width", 8), ("quantum_ms", 50.0)])
    def test_mismatched_profile_header_rejected(
        self, profile_corpus, tmp_path, capsys, field, value
    ):
        bad = pathlib.Path(next(p for p in profile_corpus if "pair-appb-appc" in p))
        header, rest = bad.read_text(encoding="utf-8").split("\n", 1)
        doc = json.loads(header)
        shape = "dispatch_width {dispatch_width}, quantum_ms {quantum_ms}"
        want = shape.format(**doc)
        doc[field] = value
        bad.write_text(json.dumps(doc) + "\n" + rest, encoding="utf-8")
        out = tmp_path / "c.json"
        code = run_cli("train", *profile_corpus, "--out", out)
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: {shape.format(**doc)} differ from {profile_corpus[0]}: {want}\n"
        )
        assert not out.exists()

    def test_paired_quantum_with_one_thread_rejected(self, profile_corpus, tmp_path, capsys):
        # appb's rows move one quantum later: both threads keep 29 rows,
        # but quantum 0 holds appa alone and quantum 29 appb alone.
        bad = pathlib.Path(next(p for p in profile_corpus if "pair-appa-appb" in p))
        header, columns, *rows = bad.read_text(encoding="utf-8").splitlines()
        rows = [row for row in rows if not row.startswith(("0,appb,", "29,appa,"))]
        bad.write_text("\n".join([header, columns, *rows]) + "\n", encoding="utf-8")
        outs = [tmp_path / "c.json", tmp_path / "fit.json"]
        code = run_cli("train", *profile_corpus, "--out", outs[0], "--report", outs[1])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: paired threads must share every quantum, "
            "but quantum 0 holds only 'appa'\n"
        )
        assert not any(out.exists() for out in outs)

    def test_duplicate_isolated_profile_rejected(self, profile_corpus, tmp_path, capsys):
        iso = [p for p in profile_corpus if "iso-appa" in p]
        code = run_cli(
            "train", *profile_corpus, iso[0], "--out", tmp_path / "c.json"
        )
        assert code == 1
        assert "duplicate isolated" in capsys.readouterr().err

    def test_same_seed_identical_bytes(self, profile_corpus, tmp_path):
        outs = []
        for name in ("one.json", "two.json"):
            out = tmp_path / name
            assert run_cli(
                "train", *profile_corpus, "--out", out, "--seed", 11
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_out_of_bound_fit_writes_nothing(self, profile_corpus, tmp_path, capsys):
        # Paired runs that commit one instruction a quantum read as
        # slowdowns near 10**8, so the fitted forms leave the model domain:
        # the fit fails before the coefficient or report file is written.
        for path in map(pathlib.Path, profile_corpus):
            if path.name.startswith("pair-"):
                header, columns, *rows = path.read_text(encoding="utf-8").splitlines()
                rows = [row.rsplit(",", 1)[0] + ",1" for row in rows]
                path.write_text("\n".join([header, columns, *rows]) + "\n", encoding="utf-8")
        outs = [tmp_path / "c.json", tmp_path / "fit.json"]
        code = run_cli("train", *profile_corpus, "--out", outs[0], "--report", outs[1])
        assert code == 1
        assert re.fullmatch(r"error: coefficient (alpha|beta|gamma|rho) must be within "
                            r"\+/-1e\+06, got \S+\n", capsys.readouterr().err)
        assert not any(out.exists() for out in outs)

    def test_degenerate_split_is_domain_error(self, profile_corpus, tmp_path, capsys):
        code = run_cli(
            "train", *profile_corpus, "--out", tmp_path / "c.json", "--split", "1.5"
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestGenWorkload:
    def test_mixed_recipe_writes_balanced_workload(self, tmp_path, capsys):
        out = tmp_path / "wl.json"
        code = run_cli("gen-workload", "--recipe", "mixed", "--seed", 2, "--out", out)
        assert code == 0
        spec = WorkloadSpec.from_json(out.read_text(encoding="utf-8"))
        assert len(spec.apps) == 8
        counts = {c: 0 for c in AppClass}
        for app in spec.apps:
            counts[classify_app(app)] += 1
        assert counts[AppClass.BACKEND_BOUND] == 4
        assert counts[AppClass.FRONTEND_BOUND] == 4
        assert spec.classes[spec.apps[0].app_id] == classify_app(spec.apps[0])
        stdout = capsys.readouterr().out
        assert "workload mixed-s2" in stdout

    def test_same_seed_identical_bytes(self, tmp_path):
        blobs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run_cli(
                "gen-workload", "--recipe", "backend", "--seed", 5, "--out", out
            ) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_unknown_recipe_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "gen-workload", "--recipe", "balanced", "--seed", 0,
                "--out", tmp_path / "x.json",
            )
        assert exc.value.code == 2

    def test_size_out_of_range_is_domain_error(self, tmp_path, capsys):
        for size in (1, 65):
            code = run_cli(
                "gen-workload", "--recipe", "mixed", "--seed", 0, "--size", size,
                "--out", tmp_path / "x.json",
            )
            assert code == 1
            assert "between 2 and 64" in capsys.readouterr().err
            assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("recipe, size", [("mixed", 33), ("backend", 64)])
    def test_large_and_odd_workloads_simulate(self, tmp_path, recipe, size):
        # The default roster holds 10 backend, 8 frontend and 10 other
        # apps; both sizes need more, and 33 leaves one thread idle.
        wl = tmp_path / "wl.json"
        assert run_cli(
            "gen-workload", "--recipe", recipe, "--seed", 4, "--size", size,
            "--iso-quanta", 2.0, "--out", wl,
        ) == 0
        spec = WorkloadSpec.from_json(wl.read_text(encoding="utf-8"))
        assert len(spec.apps) == size
        counts = {c: 0 for c in AppClass}
        for app in spec.apps:
            counts[classify_app(app)] += 1
        if recipe == "mixed":
            assert (counts[AppClass.BACKEND_BOUND], counts[AppClass.FRONTEND_BOUND]) == (17, 16)
        else:
            assert counts[AppClass.BACKEND_BOUND] in (5, 6)
            assert counts[AppClass.OTHER] == size - counts[AppClass.BACKEND_BOUND]
        out = tmp_path / "run.jsonl"
        assert run_cli("simulate", "--workload", wl, "--seed", 1, "--out", out) == 0
        log = load_log_summary(str(out))
        assert sorted(log.apps) == sorted(a.app_id for a in spec.apps)
        assert log.total_quanta > 1  # at least one decision took effect
        for record in log.records:
            seen = sorted(a for pair in record.pairs for a in pair if a != IDLE_NODE)
            assert seen == sorted(log.apps)
            assert len(record.pairs) == (size + 1) // 2

    @pytest.mark.parametrize("quantum_ms", ["nan", "inf", "0", "-5", "1e-9"])
    def test_bad_quantum_ms_is_domain_error(self, tmp_path, capsys, quantum_ms):
        code = run_cli(
            "gen-workload", "--recipe", "mixed", "--seed", 0,
            "--quantum-ms", quantum_ms, "--out", tmp_path / "x.json",
        )
        assert code == 1
        assert "error: quantum_ms" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    # 1e12 is finite but longer than any run the engine allows.
    @pytest.mark.parametrize("iso_quanta", ["nan", "inf", "0", "-5", "1e12"])
    def test_bad_iso_quanta_is_domain_error(self, tmp_path, capsys, iso_quanta):
        start = time.perf_counter()
        code = run_cli(
            "gen-workload", "--recipe", "mixed", "--seed", 0,
            "--iso-quanta", iso_quanta, "--out", tmp_path / "x.json",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "error: iso_quanta" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_workload_that_cannot_finish_is_refused(self, tmp_path, capsys):
        # Each launch is within the run limit alone, but the reference
        # ground truth can slow b03 past it: simulate would refuse the file,
        # so gen-workload writes none, with simulate's message.
        code = run_cli(
            "gen-workload", "--recipe", "mixed", "--seed", 1,
            "--iso-quanta", 300000, "--out", tmp_path / "x.json",
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: app 'b03' cannot finish within the 1000000-quantum run limit\n"
        )
        assert not (tmp_path / "x.json").exists()


class TestSimulate:
    def test_single_run_writes_log_and_metrics(self, workload_file, tmp_path, capsys):
        log_path = tmp_path / "run.jsonl"
        metrics_path = tmp_path / "run.metrics.json"
        code = run_cli(
            "simulate", "--workload", workload_file,
            "--policy", "static", "--seed", 4,
            "--out", log_path, "--metrics", metrics_path,
        )
        assert code == 0
        log = load_log_summary(str(log_path))
        assert log.policy == "static"
        assert log.seed == 4
        assert log.mode == "simulate"
        metrics = compute_metrics(log)
        assert json.loads(metrics_path.read_text(encoding="utf-8")) == json.loads(
            metrics.to_json()
        )
        stdout = capsys.readouterr().out
        assert f"turnaround={metrics.turnaround_quanta}q" in stdout

    def test_unknown_policy_is_usage_error(self, workload_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "simulate", "--workload", workload_file,
                "--policy", "linux", "--out", tmp_path / "x.jsonl",
            )
        assert exc.value.code == 2

    def test_same_seed_identical_bytes_per_policy(self, workload_file, tmp_path):
        for policy in ("synpa", "random", "static"):
            blobs = []
            for name in ("a.jsonl", "b.jsonl"):
                out = tmp_path / f"{policy}-{name}"
                assert run_cli(
                    "simulate", "--workload", workload_file,
                    "--policy", policy, "--seed", 9, "--out", out,
                ) == 0
            blobs = [
                (tmp_path / f"{policy}-a.jsonl").read_bytes(),
                (tmp_path / f"{policy}-b.jsonl").read_bytes(),
            ]
            assert blobs[0] == blobs[1], policy

    def test_multi_policy_multi_seed_comparison(self, workload_file, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        code = run_cli(
            "simulate", "--workload", workload_file,
            "--policy", "synpa", "random",
            "--seed", 0, 1, 2,
            "--out", out_dir,
        )
        assert code == 0
        for policy in ("synpa", "random"):
            for seed in (0, 1, 2):
                stem = out_dir / f"{policy}-s{seed}"
                log = load_log_summary(str(stem) + ".jsonl")
                assert log.policy == policy and log.seed == seed
                metrics = (out_dir / f"{policy}-s{seed}.metrics.json").read_text(
                    encoding="utf-8"
                )
                assert json.loads(metrics) == json.loads(compute_metrics(log).to_json())
            agg = json.loads(
                (out_dir / f"{policy}.aggregate.json").read_text(encoding="utf-8")
            )
            assert agg["kind"] == "aggregate"
            assert agg["n_runs"] == 3
        csv_lines = (out_dir / "runs.csv").read_text(encoding="utf-8").strip().split("\n")
        assert len(csv_lines) == 7  # header + 2 policies x 3 seeds
        # Per policy, what ``report`` over its logs prints: a line per run,
        # then the aggregate.
        stdout = capsys.readouterr().out
        for policy in ("synpa", "random"):
            for seed in (0, 1, 2):
                assert f"{policy}-s{seed}: policy={policy} seed={seed} " in stdout
        assert stdout.count("policy=synpa") == 3
        assert stdout.count("policy=random") == 3
        assert stdout.count("aggregate over ") == 2

    def test_runs_write_what_single_runs_and_report_write(self, workload_file, tmp_path):
        runs, alone = tmp_path / "runs", tmp_path / "alone"
        alone.mkdir()
        assert run_cli(
            "simulate", "--workload", workload_file,
            "--policy", "synpa", "random", "--seed", 0, 1, "--out", runs,
        ) == 0
        logs = []
        for policy in ("synpa", "random"):
            for seed in (0, 1):
                stem = f"{policy}-s{seed}"
                assert run_cli(
                    "simulate", "--workload", workload_file, "--policy", policy,
                    "--seed", seed, "--out", alone / f"{stem}.jsonl",
                    "--metrics", alone / f"{stem}.metrics.json",
                ) == 0
                logs.append(runs / f"{stem}.jsonl")
            assert run_cli(
                "report", *logs[-2:], "--out", alone / f"{policy}.aggregate.json"
            ) == 0
        assert run_cli("report", *logs, "--csv", alone / "runs.csv") == 0
        assert sorted(p.name for p in runs.iterdir()) == sorted(p.name for p in alone.iterdir())
        for path in alone.iterdir():
            assert (runs / path.name).read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize("cv_threshold", ["nan", "inf"])
    def test_non_finite_cv_threshold_writes_nothing(
        self, workload_file, tmp_path, capsys, cv_threshold
    ):
        out_dir = tmp_path / "runs"
        code = run_cli(
            "simulate", "--workload", workload_file,
            "--policy", "synpa", "random", "--seed", 0, 1,
            "--cv-threshold", cv_threshold, "--out", out_dir,
        )
        assert code == 1
        assert "error: cv_threshold" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_multi_mode_rejects_single_run_flags(self, workload_file, tmp_path, capsys):
        code = run_cli(
            "simulate", "--workload", workload_file,
            "--policy", "synpa", "random",
            "--out", tmp_path / "d",
            "--metrics", tmp_path / "m.json",
        )
        assert code == 1
        assert "single policy and seed" in capsys.readouterr().err

    def test_missing_workload_file_is_domain_error(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--workload", tmp_path / "absent.json",
            "--out", tmp_path / "x.jsonl",
        )
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "quantum_ms", [pytest.param("NaN", id="nan"), pytest.param("Infinity", id="inf"), "1e-9"]
    )
    def test_bad_quantum_ms_is_domain_error(self, workload_file, tmp_path, capsys, quantum_ms):
        text = workload_file.read_text(encoding="utf-8")
        wl = tmp_path / "bad.json"
        wl.write_text(text.replace('"quantum_ms": 100.0', f'"quantum_ms": {quantum_ms}'), encoding="utf-8")
        assert wl.read_text(encoding="utf-8") != text
        code = run_cli("simulate", "--workload", wl, "--out", tmp_path / "x.jsonl")
        assert code == 1
        assert "error: quantum_ms" in capsys.readouterr().err

    def test_quantum_ms_comes_from_the_workload(self, tmp_path):
        # Apps generated for 50 ms quanta run at 50 ms.
        wl = tmp_path / "q50.json"
        assert run_cli(
            "gen-workload", "--recipe", "mixed", "--seed", 5, "--quantum-ms", 50,
            "--iso-quanta", 6, "--out", wl,
        ) == 0
        assert WorkloadSpec.from_json(wl.read_text(encoding="utf-8")).quantum_ms == 50.0
        log = tmp_path / "run.jsonl"
        assert run_cli("simulate", "--workload", wl, "--out", log) == 0
        assert load_log_summary(str(log)).quantum_ms == 50.0

    @pytest.mark.parametrize(
        "edits",
        [
            pytest.param({"instructions": "1e400"}, id="instructions-1e400"),
            pytest.param({"target": "1e400"}, id="target-1e400"),
            pytest.param({"seed": "1e400"}, id="seed-1e400"),
            pytest.param({"target": "1" + "0" * 30}, id="target-1e30"),
            pytest.param({"instructions": "1" + "0" * 40, "target": "1" + "0" * 30}, id="phase-1e40"),
            pytest.param({"seed": "1" + "0" * 5000}, id="seed-5001-digits"),
            # Counts are whole JSON numbers within float range.
            pytest.param({"target": "270000000.9"}, id="target-fraction"),
            pytest.param({"target": "true"}, id="target-bool"),
            pytest.param({"instructions": '"100000000"'}, id="instructions-string"),
            pytest.param({"instructions": "1" + "0" * 400}, id="instructions-401-digits"),
            pytest.param({"seed": "1.5"}, id="seed-fraction"),
            # Other numbers are JSON numbers too, not strings or bools.
            pytest.param({"fe": lambda fe: json.dumps(repr(fe))}, id="vector-string"),
            pytest.param({"quantum_ms": '"100"'}, id="quantum-string"),
            pytest.param({"quantum_ms": "true"}, id="quantum-bool"),
        ],
    )
    def test_bad_workload_file_fails_fast(self, workload_file, tmp_path, capsys, edits):
        # JSON reads 1e400 as inf; a target of 10**30 instructions, in whole
        # phase cycles or inside one long phase, would run to the engine's
        # quantum limit; Python will not read an integer of over 4300 digits.
        doc = json.loads(workload_file.read_text(encoding="utf-8"))
        app = doc["apps"][0]
        places = {
            "instructions": (app["phases"][0], "instructions"),
            "target": (app, "target_instructions"),
            "seed": (doc, "seed"),
            "fe": (app["phases"][0]["vector"], "fe"),
            "quantum_ms": (doc, "quantum_ms"),
        }
        literals = {}
        for where, literal in edits.items():
            owner, key = places[where]
            literals[where] = literal(owner[key]) if callable(literal) else literal
            owner[key] = f"@{where}@"
        text = json.dumps(doc)
        for where, literal in literals.items():
            text = text.replace(f'"@{where}@"', literal)
        wl = tmp_path / "bad.json"
        wl.write_text(text, encoding="utf-8")
        outs = [tmp_path / "x.jsonl", tmp_path / "x.metrics.json", tmp_path / "x.trace"]
        start = time.perf_counter()
        code = run_cli(
            "simulate", "--workload", wl,
            "--out", outs[0], "--metrics", outs[1], "--export-trace", outs[2],
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not any(path.exists() for path in outs)

    def test_whole_float_counts_are_valid(self, workload_file, tmp_path):
        # 1e9 in a workload file is the count 1000000000.
        doc = json.loads(workload_file.read_text(encoding="utf-8"))
        doc["seed"] = float(doc["seed"])
        for app in doc["apps"]:
            app["target_instructions"] = float(app["target_instructions"])
            for phase in app["phases"]:
                phase["instructions"] = float(phase["instructions"])
        wl = tmp_path / "floats.json"
        wl.write_text(json.dumps(doc), encoding="utf-8")
        logs = [tmp_path / "floats.jsonl", tmp_path / "ints.jsonl"]
        assert run_cli("simulate", "--workload", wl, "--out", logs[0]) == 0
        assert run_cli("simulate", "--workload", workload_file, "--out", logs[1]) == 0
        assert logs[0].read_bytes() == logs[1].read_bytes()

    def test_short_phases_finish_fast(self, tmp_path):
        # Two 1-instruction phases under a 10**9 target: the phase table
        # reads each quantum's phase at once, where a walk phase by phase
        # would take hundreds of millions of steps.  A subprocess keeps a
        # hang from stalling the suite.
        wl, out = tmp_path / "short.json", tmp_path / "short.jsonl"
        write_phase_workload(wl, 1, 10**9)
        src = str(pathlib.Path(synpa.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "synpa.cli", "simulate", "--workload", str(wl), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        summary = load_log_summary(str(out))
        # Half the instructions in each phase: rates 2e8 and 8e7 per quantum.
        assert summary.iso_quanta == {"a": 8.75, "b": 8.75}
        assert summary.first_completion == {"a": 11, "b": 11}

    def test_phases_beyond_float_range_run(self, tmp_path):
        # A pair of 10**308-instruction phases: one cycle holds more
        # instructions than a float can count.
        wl, out = tmp_path / "long.json", tmp_path / "long.jsonl"
        write_phase_workload(wl, 10**308, 10**9)
        assert run_cli("simulate", "--workload", wl, "--out", out) == 0
        summary = load_log_summary(str(out))
        assert summary.iso_quanta == {"a": 5.0, "b": 5.0}  # all in the first phase
        assert summary.total_quanta == 9

    def test_workload_without_quantum_ms_runs_at_100(self, workload_file, tmp_path):
        doc = json.loads(workload_file.read_text(encoding="utf-8"))
        del doc["quantum_ms"]
        wl = tmp_path / "old.json"
        wl.write_text(json.dumps(doc), encoding="utf-8")
        logs = [tmp_path / "old.jsonl", tmp_path / "new.jsonl"]
        assert run_cli("simulate", "--workload", wl, "--out", logs[0]) == 0
        assert run_cli("simulate", "--workload", workload_file, "--out", logs[1]) == 0
        assert logs[0].read_bytes() == logs[1].read_bytes()
        assert load_log_summary(str(logs[0])).quantum_ms == 100.0

    @pytest.mark.parametrize("noise_sigma", ["nan", "inf"])
    def test_non_finite_noise_sigma_is_domain_error(
        self, workload_file, tmp_path, capsys, noise_sigma
    ):
        code = run_cli(
            "simulate", "--workload", workload_file, "--noise-sigma", noise_sigma,
            "--out", tmp_path / "x.jsonl",
        )
        assert code == 1
        assert "error: noise_sigma" in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()

    @pytest.mark.parametrize("policy", ["synpa", "random", "static"])
    def test_zero_ground_truth_slowdown_is_domain_error(
        self, workload_file, tmp_path, capsys, policy
    ):
        # Every category clamps to 0, so every pair's slowdown is 0.
        form = {"alpha": -1.0, "beta": 0.0, "gamma": 0.0, "rho": 0.0}
        model = tmp_path / "zero.json"
        model.write_text(json.dumps({
            "version": 1, "categories": {name: form for name in ("fdc", "fe", "be")},
        }), encoding="utf-8")
        code = run_cli(
            "simulate", "--workload", workload_file, "--ground-truth", model,
            "--policy", policy, "--out", tmp_path / "x.jsonl",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: ground truth predicts a zero slowdown for the pair "
                            r"\(\w+, \w+\)\n", err)
        assert not (tmp_path / "x.jsonl").exists()


    @pytest.mark.parametrize("policy", ["synpa", "random", "static"])
    def test_infinite_ground_truth_slowdown_is_domain_error(
        self, workload_file, tmp_path, capsys, policy
    ):
        # Each category is finite, their sum is not: no app would ever
        # commit an instruction.  The coefficient is refused as the file
        # is read, before any output is written.
        form = {"alpha": 1e308, "beta": 0.0, "gamma": 0.0, "rho": 0.0}
        model = tmp_path / "huge.json"
        model.write_text(json.dumps({
            "version": 1, "categories": {name: form for name in ("fdc", "fe", "be")},
        }), encoding="utf-8")
        outs = [tmp_path / name for name in ("x.jsonl", "x.m.json", "x.trace")]
        code = run_cli(
            "simulate", "--workload", workload_file, "--ground-truth", model,
            "--policy", policy, "--out", outs[0], "--metrics", outs[1], "--export-trace", outs[2],
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: bad coefficient file: fdc.alpha must be within +/-1e+06, got 1e+308\n"
        assert not any(out.exists() for out in outs)

    def test_ground_truth_that_cannot_finish_is_refused(self, workload_file, tmp_path, capsys):
        # Every category's intercept at 1e5 slows each 6-quantum app up to
        # 3e5-fold: the run could exceed the run limit, so it is refused
        # before its first quantum and writes nothing.
        form = {"alpha": 1e5, "beta": 0.0, "gamma": 0.0, "rho": 0.0}
        model = tmp_path / "slow.json"
        model.write_text(json.dumps({
            "version": 1, "categories": {name: form for name in ("fdc", "fe", "be")},
        }), encoding="utf-8")
        outs = [tmp_path / name for name in ("x.jsonl", "x.m.json", "x.trace")]
        start = time.perf_counter()
        code = run_cli(
            "simulate", "--workload", workload_file, "--ground-truth", model, "--policy", "static",
            "--out", outs[0], "--metrics", outs[1], "--export-trace", outs[2],
        )
        assert time.perf_counter() - start < 5.0
        assert code == 1
        assert re.fullmatch(r"error: app '\w+' cannot finish within the 1000000-quantum "
                            r"run limit\n", capsys.readouterr().err)
        assert not any(out.exists() for out in outs)

    @pytest.mark.parametrize("app_id", ["b,00", "b\n00", "b\u2028", pytest.param("", id="empty")])
    def test_exported_thread_id_must_be_a_trace_field(self, tmp_path, capsys, app_id):
        # A trace row is split on commas and lines: the export refuses an
        # id it could not read back, before any output is written.
        workload = tmp_path / "wl.json"
        write_phase_workload(workload, 10**9, 10**9)
        doc = json.loads(workload.read_text(encoding="utf-8"))
        doc["apps"][1]["app_id"] = app_id
        workload.write_text(json.dumps(doc), encoding="utf-8")
        outs = [tmp_path / name for name in ("x.jsonl", "x.m.json", "x.trace")]
        code = run_cli(
            "simulate", "--workload", workload,
            "--out", outs[0], "--metrics", outs[1], "--export-trace", outs[2],
        )
        assert code == 1
        err = capsys.readouterr().err
        message = (
            f"thread id {app_id!r} holds a comma or a line break" if app_id
            else "thread ids must be non-empty"
        )
        assert err == f"error: line 1: {message}\n"
        assert not any(out.exists() for out in outs)
        assert run_cli("simulate", "--workload", workload, "--out", outs[0]) == 0


class TestReplay:
    @pytest.fixture()
    def trace_file(self, workload_file, tmp_path):
        log_path = tmp_path / "src.jsonl"
        trace_path = tmp_path / "src.trace"
        assert run_cli(
            "simulate", "--workload", workload_file,
            "--policy", "static", "--seed", 2,
            "--out", log_path, "--export-trace", trace_path,
        ) == 0
        return trace_path

    def test_replay_trace_round_trip(self, trace_file, tmp_path, capsys):
        header, samples, committed = read_counter_file(str(trace_file))
        assert header.mode is None  # plain trace, not a profile
        assert committed == []
        out = tmp_path / "replayed.jsonl"
        code = run_cli("replay", "--trace", trace_file, "--out", out, "--seed", 1)
        assert code == 0
        log = load_log_summary(str(out))
        assert log.mode == "replay"
        assert log.iso_quanta == {}
        assert set(log.apps) == set(header.threads)
        stdout = capsys.readouterr().out
        assert "turnaround=" in stdout

    def test_replay_deterministic(self, trace_file, tmp_path):
        blobs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert run_cli(
                "replay", "--trace", trace_file, "--out", out, "--seed", 6
            ) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_missing_trace_is_domain_error(self, tmp_path, capsys):
        code = run_cli(
            "replay", "--trace", tmp_path / "absent.trace",
            "--out", tmp_path / "x.jsonl",
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("quantum_ms", "NaN"), ("quantum_ms", "Infinity"), ("dispatch_width", "4.9"),
        # A JSON string, a bool or an integer beyond float range is no quantum.
        ("quantum_ms", '"100"'), ("quantum_ms", "true"),
        pytest.param("quantum_ms", "1" + "0" * 400, id="quantum_ms-401-digits"),
        # Positive and finite, but under one simulator cycle.
        ("quantum_ms", "1e-09"),
        # A declared thread named like the odd-roster padding node.
        pytest.param("threads", lambda ids: json.dumps([*ids, IDLE_NODE]), id="threads-idle"),
    ])
    def test_bad_header_is_domain_error(self, trace_file, tmp_path, capsys, field, value):
        header, rest = trace_file.read_text(encoding="utf-8").split("\n", 1)
        doc = json.loads(header)
        if callable(value):
            value = value(doc[field])
        bad = tmp_path / "bad.trace"
        bad.write_text(
            header.replace(f'"{field}": {json.dumps(doc[field])}', f'"{field}": {value}')
            + "\n" + rest,
            encoding="utf-8",
        )
        assert bad.read_text(encoding="utf-8") != trace_file.read_text(encoding="utf-8")
        code = run_cli("replay", "--trace", bad, "--out", tmp_path / "x.jsonl")
        assert code == 1
        assert f"error: line 1: {field}" in capsys.readouterr().err

    def test_counter_beyond_64_bits_is_domain_error(self, trace_file, tmp_path, capsys):
        header, columns, first, rest = trace_file.read_text(encoding="utf-8").split("\n", 3)
        fields = first.split(",")
        fields[2] = "1" + "0" * 400  # cpu_cycles
        bad = tmp_path / "huge.trace"
        bad.write_text("\n".join([header, columns, ",".join(fields), rest]), encoding="utf-8")
        out = tmp_path / "x.jsonl"
        code = run_cli("replay", "--trace", bad, "--out", out)
        assert code == 1
        assert capsys.readouterr().err == "error: line 3: cpu_cycles must be below 2**64\n"
        assert not out.exists()

    def test_thread_without_rows_is_domain_error(self, trace_file, tmp_path, capsys):
        header, rest = trace_file.read_text(encoding="utf-8").split("\n", 1)
        doc = json.loads(header)
        doc["threads"] = [*doc["threads"], "ghost"]
        bad = tmp_path / "ghost.trace"
        bad.write_text(json.dumps(doc) + "\n" + rest, encoding="utf-8")
        out = tmp_path / "x.jsonl"
        code = run_cli("replay", "--trace", bad, "--out", out)
        assert code == 1
        assert "error: line 1: threads with no sample rows: ['ghost']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        pytest.param(2, "9" * 200_000, id="200000-digits"),
        pytest.param(2, "1" + "0" * 20, id="21-digits"),
        pytest.param(2, "0" * 5000 + "9" * 20, id="leading-zeros-then-20-nines"),
        pytest.param(1, '"a,b"', id="quoted-comma"),
        pytest.param(3, "4\x00", id="nul"),
    ])
    def test_edited_row_field_is_domain_error(self, trace_file, tmp_path, capsys, field, value):
        lines = trace_file.read_text(encoding="utf-8").split("\n")
        fields = lines[3].split(",")
        fields[field] = value
        lines[3] = ",".join(fields)
        bad = tmp_path / "edited.trace"
        bad.write_text("\n".join(lines), encoding="utf-8")
        out = tmp_path / "x.jsonl"
        code = run_cli("replay", "--trace", bad, "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 4: ") and "Traceback" not in err
        assert not out.exists()

    def test_rows_out_of_order_name_the_line(self, trace_file, tmp_path, capsys):
        lines = trace_file.read_text(encoding="utf-8").split("\n")
        lines[3], lines[4] = lines[4], lines[3]
        bad = tmp_path / "swapped.trace"
        bad.write_text("\n".join(lines), encoding="utf-8")
        code = run_cli("replay", "--trace", bad, "--out", tmp_path / "x.jsonl")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: line 5: rows out of order: ")

    def test_profile_is_no_trace(self, profile_corpus, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        code = run_cli("replay", "--trace", profile_corpus[0], "--out", out)
        assert code == 1
        assert capsys.readouterr().err == (
            "error: line 1: a profile (mode 'isolated') is not a trace\n"
        )
        assert not out.exists()

    def test_header_only_trace_is_domain_error(self, trace_file, tmp_path, capsys):
        lines = trace_file.read_text(encoding="utf-8").split("\n")
        threads = json.loads(lines[0])["threads"]
        bad = tmp_path / "header-only.trace"
        bad.write_text("\n".join(lines[:2]) + "\n", encoding="utf-8")
        out = tmp_path / "x.jsonl"
        code = run_cli("replay", "--trace", bad, "--out", out)
        assert code == 1
        assert f"error: line 1: threads with no sample rows: {threads}" in capsys.readouterr().err
        assert not out.exists()

    def test_trace_beyond_run_limit_is_refused_before_any_decision(
        self, tmp_path, capsys, monkeypatch
    ):
        from synpa import TraceHeader, engine, format_trace

        threads = ("a", "b", "c", "d")
        header = TraceHeader(dispatch_width=4, quantum_ms=100.0, threads=threads)
        samples = [
            sample_from_fractions(
                q, t, fe=0.1 + 0.1 * k, be=0.6 - 0.1 * k, fdc=0.3, cycles=10**8,
                dispatch_width=4,
            )
            for q in range(6) for k, t in enumerate(threads)
        ]
        trace = tmp_path / "six.trace"
        trace.write_text(format_trace(header, samples), encoding="utf-8")
        calls = []
        solve = engine.min_weight_perfect_matching
        monkeypatch.setattr(
            engine, "min_weight_perfect_matching", lambda *a: calls.append(a) or solve(*a)
        )
        out, metrics = tmp_path / "x.jsonl", tmp_path / "x.m.json"
        argv = ("replay", "--trace", trace, "--out", out, "--metrics", metrics)

        monkeypatch.setattr(engine, "MAX_QUANTA", 5)
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err == "error: trace holds 6 quanta, more than the 5-quantum run limit\n"
        assert not out.exists() and not metrics.exists()
        assert calls == []

        # At a limit of 6 the same trace replays, and the spy sees its decisions.
        monkeypatch.setattr(engine, "MAX_QUANTA", 6)
        assert run_cli(*argv) == 0
        assert out.exists() and calls


def test_fold_certificate_changes_no_log(tmp_path, monkeypatch):
    """Every log is byte-identical with the matcher's fold certificate on
    and forced to reject: a certified matching is the unique optimum, so
    the exact solve finds the same pairs.  Float results can differ
    across numpy builds, so the two runs are compared, not pinned."""
    certified = []

    def spy(weights, prices):
        pairs = certify(weights, prices)
        certified.append(pairs is not None)
        return pairs

    def logs(tag):
        out = {}
        for size in (8, 16, 33, 64):
            wl = tmp_path / f"{tag}-wl{size}.json"
            assert run_cli(
                "gen-workload", "--recipe", "mixed", "--seed", 3, "--size", size,
                "--iso-quanta", 8, "--out", wl,
            ) == 0
            # Replay pairs a trace recorded under random otherwise than it
            # ran, so inversions degrade, estimates tie and some decisions
            # fall back: every other decision here certifies.
            for noise, policy in (("0", "synpa"), ("0.02", "synpa"), ("0.02", "random")):
                log = tmp_path / f"{tag}-{size}-{noise}-{policy}.jsonl"
                trace = tmp_path / f"{tag}-{size}-{noise}-{policy}.trace"
                assert run_cli(
                    "simulate", "--workload", wl, "--noise-sigma", noise, "--seed", 1,
                    "--policy", policy, "--out", log, "--export-trace", trace,
                ) == 0
                replayed = tmp_path / f"{tag}-{size}-{noise}-{policy}.replay.jsonl"
                assert run_cli("replay", "--trace", trace, "--seed", 1, "--out", replayed) == 0
                out[(size, noise, policy)] = (log.read_bytes(), replayed.read_bytes())
        return out

    certify = matcher._certified_fold
    monkeypatch.setattr(matcher, "_certified_fold", spy)
    on = logs("on")
    assert any(certified) and not all(certified)
    monkeypatch.setattr(matcher, "_certified_fold", lambda weights, prices: None)
    assert logs("off") == on


class TestReport:
    @pytest.fixture()
    def three_logs(self, workload_file, tmp_path):
        paths = []
        for seed in (0, 1, 2):
            out = tmp_path / f"run-{seed}.jsonl"
            assert run_cli(
                "simulate", "--workload", workload_file,
                "--policy", "static", "--seed", seed, "--out", out,
            ) == 0
            paths.append(out)
        return paths

    def test_aggregates_multiple_logs(self, three_logs, tmp_path, capsys):
        agg_path = tmp_path / "agg.json"
        csv_path = tmp_path / "runs.csv"
        code = run_cli(
            "report", *three_logs, "--out", agg_path, "--csv", csv_path
        )
        assert code == 0
        stdout = capsys.readouterr().out
        for path in three_logs:
            assert str(path) in stdout
        assert "aggregate over" in stdout
        agg = json.loads(agg_path.read_text(encoding="utf-8"))
        assert agg["kind"] == "aggregate"
        assert agg["n_runs"] == 3
        lines = csv_path.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 4

    def test_every_command_prints_a_run_in_one_format(self, workload_file, tmp_path, capsys):
        # simulate, replay and report print a run's metrics as the same line;
        # report prefixes its label, and replay's undefined fairness reads n/a.
        log, trace, replayed = tmp_path / "run.jsonl", tmp_path / "run.trace", tmp_path / "replayed.jsonl"
        capsys.readouterr()
        assert run_cli("simulate", "--workload", workload_file, "--seed", 3,
                       "--out", log, "--export-trace", trace) == 0
        assert run_cli("replay", "--trace", trace, "--seed", 3, "--out", replayed) == 0
        assert run_cli("report", log, replayed) == 0
        lines = capsys.readouterr().out.splitlines()
        for path, printed in ((log, lines[0]), (replayed, lines[2])):
            m = compute_metrics(load_log_summary(str(path)))
            fairness = "n/a" if m.fairness is None else f"{m.fairness:.4f}"
            want = (f"policy=synpa seed=3 turnaround={m.turnaround_quanta}q "
                    f"({m.turnaround_ms:.0f} ms) fairness={fairness} ipc_geomean={m.ipc_geomean:.4f}")
            assert printed == want
            assert f"{path}: {want}" in lines[4:6]
        assert "fairness=n/a" in lines[2]

    def test_discarded_runs_are_named_with_their_turnaround(self, workload_file, tmp_path, capsys):
        logs = []
        for seed in range(4):
            logs.append(tmp_path / f"random-{seed}.jsonl")
            assert run_cli(
                "simulate", "--workload", workload_file,
                "--policy", "random", "--seed", seed, "--out", logs[-1],
            ) == 0
        reports = [compute_metrics(load_log_summary(str(path))) for path in logs]
        aggregate = aggregate_runs(reports, cv_threshold=1e-9)
        assert aggregate.discarded  # the seeds' turnarounds differ
        capsys.readouterr()
        assert run_cli("report", *logs, "--cv-threshold", 1e-9) == 0
        stdout = capsys.readouterr().out
        dropped = ", ".join(
            f"{logs[i]} ({reports[i].turnaround_quanta}q)" for i in aggregate.discarded
        )
        assert f"discarded outlier runs: {dropped}\n" in stdout
        assert (
            f"all runs: turnaround={aggregate.turnaround_quanta_mean_all:.2f}q "
            f"sd={aggregate.turnaround_quanta_pstdev_all:.2f}q\n"
        ) in stdout

    def test_single_log_skips_aggregation(self, three_logs, capsys):
        code = run_cli("report", three_logs[0])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "aggregate skipped: needs at least two runs" in stdout

    @pytest.mark.parametrize("cv_threshold", ["nan", "inf"])
    def test_non_finite_cv_threshold_is_domain_error(
        self, three_logs, tmp_path, capsys, cv_threshold
    ):
        code = run_cli(
            "report", *three_logs, "--cv-threshold", cv_threshold,
            "--out", tmp_path / "agg.json", "--csv", tmp_path / "runs.csv",
        )
        assert code == 1
        assert "error: cv_threshold" in capsys.readouterr().err
        assert not (tmp_path / "agg.json").exists()
        assert not (tmp_path / "runs.csv").exists()

    def test_bad_log_is_domain_error(self, tmp_path, capsys):
        bogus = tmp_path / "not-a-log.jsonl"
        bogus.write_text("{}\n{}\n", encoding="utf-8")
        code = run_cli("report", bogus)
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestUsageContract:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli()
        assert exc.value.code == 2

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("gen-workload", "--recipe", "mixed")
        assert exc.value.code == 2

    # The simulated core's dispatch width and the estimate decay are fixed.
    @pytest.mark.parametrize("argv", [
        ("simulate", "--workload", "wl.json", "--out", "x.jsonl", "--dispatch-width", "4"),
        ("simulate", "--workload", "wl.json", "--out", "x.jsonl", "--estimate-decay", "0.5"),
        ("replay", "--trace", "x.trace", "--out", "x.jsonl", "--estimate-decay", "0.5"),
    ], ids=["simulate-dispatch-width", "simulate-estimate-decay", "replay-estimate-decay"])
    def test_removed_option_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSeeds:
    @pytest.mark.parametrize("argv", [
        ("train", "in.profile", "--out", "out.json", "--seed", "-1"),
        ("gen-workload", "--recipe", "mixed", "--seed", "-1", "--out", "out.json"),
        ("gen-workload", "--recipe", "mixed", "--seed", "0", "--roster-seed", "-1",
         "--out", "out.json"),
        ("simulate", "--workload", "in.json", "--seed", "-1", "--out", "out.json"),
        ("replay", "--trace", "in.trace", "--seed", "-1", "--out", "out.json"),
    ], ids=["train", "gen-workload", "gen-workload-roster", "simulate", "replay"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, argv):
        # The inputs do not exist: reading one first would exit 1, not 2.
        argv = [str(tmp_path / a) if a.startswith(("in.", "out.")) else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "seed: must be non-negative, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def good_inputs(workload_file, tmp_path_factory):
    """One valid input of every kind a subcommand reads."""
    d = tmp_path_factory.mktemp("inputs")
    coefficients = d / "coeffs.json"
    coefficients.write_text(REFERENCE_COEFFICIENTS.to_json(), encoding="utf-8")
    log, trace = d / "run.jsonl", d / "run.trace"
    assert run_cli(
        "simulate", "--workload", workload_file, "--out", log, "--export-trace", trace
    ) == 0
    profiles = write_profile_corpus(
        str(d), REFERENCE_COEFFICIENTS, CORPUS_APPS, CORPUS_PAIRS
    )
    return {
        "workload": workload_file,
        "coefficients": coefficients,
        "log": log,
        "trace": trace,
        "profiles": profiles,
    }


def _commands(i: dict, o) -> dict:
    """A succeeding invocation of every subcommand, reading ``i``, writing in ``o``."""
    return {
        "train": [
            "train", *i["profiles"], "--out", o / "c.json", "--report", o / "fit.json",
        ],
        "gen-workload": [
            "gen-workload", "--recipe", "mixed", "--seed", 1, "--iso-quanta", 6.0,
            "--out", o / "wl.json",
        ],
        "simulate": [
            "simulate", "--workload", i["workload"],
            "--coefficients", i["coefficients"], "--ground-truth", i["coefficients"],
            "--out", o / "run.jsonl", "--metrics", o / "m.json",
            "--export-trace", o / "run.trace",
        ],
        "simulate-runs": [
            "simulate", "--workload", i["workload"], "--seed", 0, 1, "--out", o / "runs",
        ],
        "replay": [
            "replay", "--trace", i["trace"], "--coefficients", i["coefficients"],
            "--out", o / "run.jsonl", "--metrics", o / "m.json",
        ],
        "report": [
            "report", i["log"], i["log"], "--out", o / "agg.json", "--csv", o / "runs.csv",
        ],
    }


def _swap(argv: list, option: str | None, path) -> list:
    """``argv`` with the value of ``option`` (the first positional if None) set to ``path``."""
    at = 1 if option is None else argv.index(option) + 1
    return [*argv[:at], path, *argv[at + 1:]]


class TestFileBoundary:
    """Every file a subcommand names: a failed read or write is exit 1, naming the path."""

    @pytest.mark.parametrize("command, option", [
        ("simulate", "--workload"),
        ("simulate", "--coefficients"),
        ("simulate", "--ground-truth"),
        ("replay", "--trace"),
        ("replay", "--coefficients"),
        ("report", None),
        ("train", None),
    ])
    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_input(self, good_inputs, tmp_path, capsys, command, option, kind):
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        elif kind == "not-utf8":
            bad.write_bytes(b"\xff\xfe")
        out = tmp_path / "out"
        out.mkdir()
        code = run_cli(*_swap(_commands(good_inputs, out)[command], option, bad))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: cannot read {str(bad)!r}: "), err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []  # inputs are read before any output

    @pytest.mark.parametrize("command, option, kind", [
        ("simulate", "--coefficients", "coefficients"),
        ("replay", "--trace", "trace"),
        ("report", None, "log"),
    ])
    def test_huge_json_integer_is_domain_error(
        self, good_inputs, tmp_path, capsys, command, option, kind
    ):
        # Python will not read an integer literal of over 4300 digits; each
        # of these files starts with a JSON object, which gains such a key.
        text = good_inputs[kind].read_text(encoding="utf-8")
        bad = tmp_path / "bad"
        bad.write_text('{"huge": 1' + "0" * 5000 + ", " + text[1:], encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        code = run_cli(*_swap(_commands(good_inputs, out)[command], option, bad))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: "), err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, option", [
        ("train", "--out"),
        ("train", "--report"),
        ("gen-workload", "--out"),
        ("simulate", "--out"),
        ("simulate", "--metrics"),
        ("simulate", "--export-trace"),
        ("replay", "--out"),
        ("replay", "--metrics"),
        ("report", "--out"),
        ("report", "--csv"),
    ])
    def test_unwritable_output(self, good_inputs, tmp_path, capsys, command, option):
        bad = tmp_path / "missing" / "file"
        argv = _swap(_commands(good_inputs, tmp_path)[command], option, bad)
        code = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: cannot write {str(bad)!r}: "), err
        assert "Traceback" not in err

    # Each option names an output written after another one.
    @pytest.mark.parametrize("command, option", [
        ("train", "--report"),
        ("simulate", "--metrics"),
        ("simulate", "--export-trace"),
        ("replay", "--metrics"),
        ("report", "--out"),
    ])
    @pytest.mark.parametrize("kind", ["missing-directory", "directory"])
    def test_failed_write_writes_nothing(self, good_inputs, tmp_path, capsys, command, option, kind):
        out = tmp_path / "out"
        out.mkdir()
        bad = tmp_path / "missing" / "file" if kind == "missing-directory" else tmp_path
        code = run_cli(*_swap(_commands(good_inputs, out)[command], option, bad))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {str(bad)!r}: ")
        assert list(out.iterdir()) == []

    # An output named as an input (``target`` None: the first
    # positional) or as another output of the same call.
    @pytest.mark.parametrize("command, option, target, role", [
        ("train", "--out", None, "an input"),
        ("train", "--report", "--out", "another output"),
        ("simulate", "--out", "--workload", "an input"),
        ("simulate", "--metrics", "--coefficients", "an input"),
        ("simulate", "--export-trace", "--ground-truth", "an input"),
        ("simulate", "--export-trace", "--out", "another output"),
        ("replay", "--out", "--trace", "an input"),
        ("replay", "--metrics", "--coefficients", "an input"),
        ("replay", "--metrics", "--out", "another output"),
        ("report", "--csv", None, "an input"),
        ("report", "--out", "--csv", "another output"),
    ])
    def test_output_that_is_another_file_of_the_call(
        self, good_inputs, tmp_path, capsys, command, option, target, role
    ):
        # Copies, so that an overwrite here cannot spoil the shared inputs.
        copies = tmp_path / "in"
        copies.mkdir()

        def copy(path):
            shutil.copyfile(path, copies / os.path.basename(path))
            return copies / os.path.basename(path)

        inputs = {
            kind: [copy(p) for p in path] if kind == "profiles" else copy(path)
            for kind, path in good_inputs.items()
        }
        before = {p: p.read_bytes() for p in copies.iterdir()}
        out = tmp_path / "out"
        out.mkdir()
        argv = _commands(inputs, out)[command]
        same = argv[1] if target is None else argv[argv.index(target) + 1]
        code = run_cli(*_swap(argv, option, same))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {str(same)!r}: it is also {role} of this call\n"
        )
        assert list(out.iterdir()) == []
        assert {p: p.read_bytes() for p in copies.iterdir()} == before

    # Several runs write into --out as a directory; each file they will
    # write is checked against the inputs before the first run.
    @pytest.mark.parametrize("name, option, seeds", [
        ("runs.csv", "--workload", [0]),
        ("synpa-s0.jsonl", "--coefficients", [0]),
        ("random.aggregate.json", "--ground-truth", [0, 1]),
    ])
    def test_run_file_that_is_an_input(
        self, good_inputs, tmp_path, capsys, name, option, seeds
    ):
        out = tmp_path / "runs"
        out.mkdir()
        same = out / name
        shutil.copyfile(good_inputs["workload" if option == "--workload" else "coefficients"], same)
        before = same.read_bytes()
        argv = [
            "simulate", "--workload", good_inputs["workload"],
            "--policy", "synpa", "random", "--seed", *seeds, "--out", out,
        ]
        argv = _swap(argv, option, same) if option in argv else [*argv, option, same]
        code = run_cli(*argv)
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {str(same)!r}: it is also an input of this call\n"
        )
        assert list(out.iterdir()) == [same]
        assert same.read_bytes() == before

    # An aggregate needs two runs: a named --out that one log cannot fill
    # is refused before the log is read.
    @pytest.mark.parametrize("log", ["good", "missing"])
    def test_report_out_with_one_log(self, good_inputs, tmp_path, capsys, log):
        out = tmp_path / "out"
        out.mkdir()
        path = good_inputs["log"] if log == "good" else tmp_path / "absent.jsonl"
        code = run_cli("report", path, "--out", out / "agg.json", "--csv", out / "runs.csv")
        assert code == 1
        assert capsys.readouterr().err == "error: --out needs at least two logs to aggregate\n"
        assert list(out.iterdir()) == []

    def test_run_directory_that_is_a_file(self, good_inputs, tmp_path, capsys):
        # Several runs write into --out as a directory, creating missing
        # parents; a regular file in its place cannot become one.
        bad = tmp_path / "runs"
        bad.write_text("", encoding="utf-8")
        code = run_cli(*_commands(good_inputs, tmp_path)["simulate-runs"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: cannot write {str(bad)!r}: "), err

    @pytest.mark.parametrize("command", [
        "train", "gen-workload", "simulate", "simulate-runs", "replay", "report",
    ])
    def test_good_invocations_succeed(self, good_inputs, tmp_path, command):
        assert run_cli(*_commands(good_inputs, tmp_path)[command]) == 0
