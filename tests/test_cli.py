"""End-to-end tests of the command-line interface.

Each test drives ``synpa.cli.main`` in-process and checks exit codes
(0 success, 1 domain error, 2 usage error), output files, and the
determinism contract: identical inputs and seeds give identical bytes.
"""

import json
import pathlib
import time

import pytest

from synpa import (
    IDLE_NODE,
    AppClass,
    REFERENCE_COEFFICIENTS,
    ModelCoefficients,
    read_counter_file,
)
from synpa.cli import main
from synpa.harness import (
    WorkloadSpec,
    classify_app,
    compute_metrics,
    load_log_summary,
)

from conftest import write_profile_corpus, CORPUS_APPS, CORPUS_PAIRS


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


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
        stdout = capsys.readouterr().out
        assert stdout.count("policy=synpa") == 1
        assert stdout.count("policy=random") == 1

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

    @pytest.mark.parametrize("quantum_ms", ["nan", "inf", "1e-9"])
    def test_bad_quantum_ms_is_domain_error(self, workload_file, tmp_path, capsys, quantum_ms):
        code = run_cli(
            "simulate", "--workload", workload_file, "--quantum-ms", quantum_ms,
            "--out", tmp_path / "x.jsonl",
        )
        assert code == 1
        assert "error: quantum_ms" in capsys.readouterr().err

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
