"""End-to-end tests of the command-line interface.

Each test drives ``synpa.cli.main`` in-process and checks exit codes
(0 success, 1 domain error, 2 usage error), output files, and the
determinism contract: identical inputs and seeds give identical bytes.
"""

import json
import os

import pytest

from synpa import (
    IDLE_NODE,
    AppClass,
    REFERENCE_COEFFICIENTS,
    load_coefficients,
    read_counter_file,
)
from synpa.cli import main
from synpa.harness import (
    MetricsReport,
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
        got = load_coefficients(str(out))
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

    def test_missing_partner_view_is_domain_error(self, tmp_path, capsys):
        paths = write_profile_corpus(
            str(tmp_path), REFERENCE_COEFFICIENTS, CORPUS_APPS, CORPUS_PAIRS
        )
        kept = [p for p in paths if "pair-appa-appb" not in p]
        # drop one half of a pairwise co-run: alignment cannot proceed
        removed = os.path.join(str(tmp_path), "pair-appa-appb.profile")
        half = tmp_path / "half.profile"
        text = open(removed, encoding="utf-8").read()
        half.write_text(
            text.replace("appb", "appx").replace("appa", "appa"), encoding="utf-8"
        )
        code = run_cli("train", *kept, "--out", tmp_path / "c.json")
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err

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

    def test_odd_size_is_domain_error(self, tmp_path, capsys):
        code = run_cli(
            "gen-workload", "--recipe", "mixed", "--seed", 0, "--size", 5,
            "--out", tmp_path / "x.json",
        )
        assert code == 1
        assert "even" in capsys.readouterr().err

    @pytest.mark.parametrize("quantum_ms", ["nan", "inf", "0", "-5", "1e-9"])
    def test_bad_quantum_ms_is_domain_error(self, tmp_path, capsys, quantum_ms):
        code = run_cli(
            "gen-workload", "--recipe", "mixed", "--seed", 0,
            "--quantum-ms", quantum_ms, "--out", tmp_path / "x.json",
        )
        assert code == 1
        assert "error: --quantum-ms" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("iso_quanta", ["nan", "inf", "0", "-5"])
    def test_bad_iso_quanta_is_domain_error(self, tmp_path, capsys, iso_quanta):
        code = run_cli(
            "gen-workload", "--recipe", "mixed", "--seed", 0,
            "--iso-quanta", iso_quanta, "--out", tmp_path / "x.json",
        )
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
        metrics = MetricsReport.from_json(metrics_path.read_text(encoding="utf-8"))
        assert metrics == compute_metrics(log)
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
                metrics = MetricsReport.from_json(
                    (out_dir / f"{policy}-s{seed}.metrics.json").read_text(
                        encoding="utf-8"
                    )
                )
                assert metrics == compute_metrics(log)
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
    def test_non_finite_cv_threshold_is_domain_error(self, three_logs, capsys, cv_threshold):
        code = run_cli("report", *three_logs, "--cv-threshold", cv_threshold)
        assert code == 1
        assert "error: cv_threshold" in capsys.readouterr().err

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
