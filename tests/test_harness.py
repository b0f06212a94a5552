"""Tests for workload generation and run metrics.

Expected values are derived independently: fairness and coefficient-of-
variation fixtures by hand arithmetic, isolated durations by an
independent phase walker, and aggregation traces by re-running the
discard rule in the test.
"""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from synpa import (
    CYCLES_PER_MS,
    AppClass,
    CategoryTriple,
    CategoryVector,
    ConfigError,
    EngineConfig,
    FitError,
    Phase,
    ScheduleLog,
    SimWorkload,
    SyntheticApp,
    WorkloadError,
    classify,
    fit,
    run,
)
from synpa.harness import (
    CSV_COLUMNS,
    RECIPES,
    AggregateReport,
    MetricsReport,
    WorkloadSpec,
    aggregate_runs,
    classify_app,
    compute_metrics,
    extra_synthetic_app,
    fairness,
    gen_workload,
    ipc_geomean,
    load_log_summary,
    make_synthetic_app,
    make_synthetic_roster,
    metrics_csv,
    turnaround_time,
)

QUANTUM_CYCLES = 100 * CYCLES_PER_MS


def iso_walk(app: SyntheticApp, width: int = 4, cycles: int = QUANTUM_CYCLES) -> float:
    """Isolated duration in quanta, walked independently phase by phase."""
    remaining = float(app.target_instructions)
    quanta = 0.0
    idx = 0
    while remaining > 0:
        phase = app.phases[idx % len(app.phases)]
        rate = phase.vector.fdc * width * cycles
        inside = min(float(phase.instructions), remaining)
        quanta += inside / rate
        remaining -= inside
        idx += 1
    return quanta


def make_log(first_completion, **overrides) -> ScheduleLog:
    """A minimal in-memory log with the given completion quanta."""
    apps = tuple(sorted(first_completion))
    fields = dict(
        policy="synpa",
        seed=0,
        quantum_ms=100.0,
        dispatch_width=4,
        cycles_per_quantum=QUANTUM_CYCLES,
        noise_sigma=0.0,
        apps=apps,
        records=(),
        first_completion=dict(first_completion),
        relaunches={a: 0 for a in apps},
        iso_quanta={},
        instructions={a: 1.0 for a in apps},
        total_quanta=max(
            (q for q in first_completion.values() if isinstance(q, int)), default=0
        ),
        mode="simulate",
    )
    fields.update(overrides)
    return ScheduleLog(**fields)


def make_report(tt_quanta: int, policy: str = "synpa", seed: int = 0) -> MetricsReport:
    return MetricsReport(
        policy=policy,
        seed=seed,
        turnaround_quanta=tt_quanta,
        turnaround_ms=tt_quanta * 100.0,
        fairness=0.9,
        ipc_geomean=1.5,
        zero_ipc=False,
        speedups={"a": 0.9},
        ipc={"a": 1.5},
    )


@pytest.fixture(scope="module")
def roster():
    return make_synthetic_roster(7, iso_quanta=25.0)


class TestClassifyApp:
    def test_single_phase_follows_vector_class(self):
        cases = [
            (CategoryVector(fe=0.05, be=0.80, fdc=0.15), AppClass.BACKEND_BOUND),
            (CategoryVector(fe=0.45, be=0.15, fdc=0.40), AppClass.FRONTEND_BOUND),
            (CategoryVector(fe=0.20, be=0.40, fdc=0.40), AppClass.OTHER),
        ]
        for vector, want in cases:
            app = SyntheticApp(
                app_id="x",
                phases=(Phase(vector=vector, instructions=10**9),),
                target_instructions=10**9,
            )
            assert classify_app(app) == want

    def test_phases_weighted_by_residence_time_not_instructions(self):
        # Phase A commits slowly (fdc 0.05) so it dominates wall time;
        # hand-weighted mean: w_A = I/0.05, w_B = I/0.60 gives
        # be = (20*0.85 + (1/0.6)*0.30) / (20 + 1/0.6) = 0.8077 > 0.65.
        slow = CategoryVector(fe=0.10, be=0.85, fdc=0.05)
        fast = CategoryVector(fe=0.10, be=0.30, fdc=0.60)
        app = SyntheticApp(
            app_id="x",
            phases=(
                Phase(vector=slow, instructions=10**8),
                Phase(vector=fast, instructions=10**8),
            ),
            target_instructions=2 * 10**8,
        )
        assert classify_app(app) == AppClass.BACKEND_BOUND
        # A naive instruction-weighted mean would land in OTHER.
        naive_be = (0.85 + 0.30) / 2
        assert classify(CategoryTriple(fe=0.10, be=naive_be, fdc=1 - 0.10 - naive_be)) \
            == AppClass.OTHER


class TestMakeSyntheticApp:
    def test_families_classify_as_requested(self):
        rng = np.random.default_rng(3)
        for family, want in [
            ("backend", AppClass.BACKEND_BOUND),
            ("frontend", AppClass.FRONTEND_BOUND),
            ("other", AppClass.OTHER),
        ]:
            app = make_synthetic_app(f"{family}-app", family, rng, iso_quanta=20.0)
            assert classify_app(app) == want
            assert len(app.phases) == 4  # two dominant/relief pairs

    def test_target_sized_to_isolated_duration(self):
        rng = np.random.default_rng(11)
        for family in ("backend", "frontend", "other"):
            app = make_synthetic_app(f"{family}-app", family, rng, iso_quanta=25.0)
            assert iso_walk(app) == pytest.approx(25.0, abs=1e-6)

    def test_unknown_family_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(WorkloadError):
            make_synthetic_app("x", "memory", rng)

    @pytest.mark.parametrize("iso_quanta", [math.nan, math.inf, 0.0, -5.0])
    def test_bad_iso_quanta_rejected(self, iso_quanta):
        # Sizing the target to a non-finite duration would never finish.
        with pytest.raises(WorkloadError, match="iso_quanta"):
            make_synthetic_app("x", "backend", np.random.default_rng(0), iso_quanta=iso_quanta)

    def test_deterministic_given_rng_state(self):
        a = make_synthetic_app("x", "backend", np.random.default_rng(5))
        b = make_synthetic_app("x", "backend", np.random.default_rng(5))
        assert a.to_dict() == b.to_dict()


class TestMakeSyntheticRoster:
    def test_counts_prefixes_and_classes(self, roster):
        assert len(roster) == 28
        by_class = {AppClass.BACKEND_BOUND: [], AppClass.FRONTEND_BOUND: [], AppClass.OTHER: []}
        for app in roster:
            by_class[classify_app(app)].append(app.app_id)
        assert sorted(by_class[AppClass.BACKEND_BOUND]) == [f"b{i:02d}" for i in range(10)]
        assert sorted(by_class[AppClass.FRONTEND_BOUND]) == [f"f{i:02d}" for i in range(8)]
        assert sorted(by_class[AppClass.OTHER]) == [f"o{i:02d}" for i in range(10)]

    def test_same_seed_reproduces_roster(self, roster):
        again = make_synthetic_roster(7, iso_quanta=25.0)
        assert [a.to_dict() for a in again] == [a.to_dict() for a in roster]


class TestGenWorkload:
    def test_mixed_recipe_takes_half_from_each_bound_class(self, roster):
        spec = gen_workload("mixed", roster, seed=1)
        assert len(spec.apps) == 8
        counts = {c: 0 for c in AppClass}
        for app in spec.apps:
            counts[classify_app(app)] += 1
        assert counts[AppClass.BACKEND_BOUND] == 4
        assert counts[AppClass.FRONTEND_BOUND] == 4
        assert counts[AppClass.OTHER] == 0

    def test_single_class_recipes_take_five_or_six_plus_other(self, roster):
        seen = set()
        for recipe, bound in [
            ("backend", AppClass.BACKEND_BOUND),
            ("frontend", AppClass.FRONTEND_BOUND),
        ]:
            for seed in range(10):
                spec = gen_workload(recipe, roster, seed=seed)
                counts = {c: 0 for c in AppClass}
                for app in spec.apps:
                    counts[classify_app(app)] += 1
                assert counts[bound] in (5, 6)
                assert counts[AppClass.OTHER] == 8 - counts[bound]
                seen.add(counts[bound])
        assert seen == {5, 6}  # the seeded coin exercises both choices

    def test_exactly_five_dominant_apps_forces_five(self):
        rng = np.random.default_rng(9)
        roster = [
            make_synthetic_app(f"b{i}", "backend", rng, iso_quanta=20.0) for i in range(5)
        ] + [
            make_synthetic_app(f"o{i}", "other", rng, iso_quanta=20.0) for i in range(5)
        ]
        for seed in range(8):  # every seed, not just those whose coin says 5
            spec = gen_workload("backend", roster, seed=seed)
            counts = {c: 0 for c in AppClass}
            for app in spec.apps:
                counts[classify_app(app)] += 1
            assert counts[AppClass.BACKEND_BOUND] == 5
            assert counts[AppClass.OTHER] == 3

    def test_empty_dominant_class_rejected(self):
        rng = np.random.default_rng(2)
        roster = [
            make_synthetic_app(f"b{i}", "backend", rng, iso_quanta=20.0) for i in range(6)
        ] + [
            make_synthetic_app(f"o{i}", "other", rng, iso_quanta=20.0) for i in range(4)
        ]
        with pytest.raises(WorkloadError, match="frontend"):
            gen_workload("frontend", roster, seed=0)

    def test_insufficient_mixed_class_rejected(self, roster):
        thin = [a for a in roster if not a.app_id.startswith("f")] + [
            a for a in roster if a.app_id.startswith("f")
        ][:3]
        with pytest.raises(WorkloadError, match="needs 4 frontend"):
            gen_workload("mixed", thin, seed=0)

    def test_unknown_recipe_and_bad_size_rejected(self, roster):
        with pytest.raises(WorkloadError, match="unknown recipe"):
            gen_workload("balanced", roster, seed=0)
        for size in (0, 1, -2, 65):
            with pytest.raises(WorkloadError, match="between 2 and 64"):
                gen_workload("mixed", roster, seed=0, size=size)

    def test_growth_tops_up_only_short_classes(self, roster):
        grow = functools.partial(extra_synthetic_app, 7, iso_quanta=25.0)
        filled = 0
        for recipe in RECIPES:
            for seed in range(6):
                for size in (2, 7, 8, 15, 16):
                    try:
                        plain = gen_workload(recipe, roster, seed, size=size)
                    except WorkloadError:
                        continue
                    filled += 1
                    assert gen_workload(recipe, roster, seed, size=size, grow=grow) == plain
        assert filled > 60
        spec = gen_workload("mixed", roster, 0, size=41, grow=grow)
        counts = {c: 0 for c in AppClass}
        for app in spec.apps:
            counts[spec.classes[app.app_id]] += 1
            assert spec.classes[app.app_id] == classify_app(app)
        assert (counts[AppClass.BACKEND_BOUND], counts[AppClass.FRONTEND_BOUND]) == (21, 20)
        # An extra app depends on its seed, class and index only.
        assert grow(AppClass.FRONTEND_BOUND, 12) == grow(AppClass.FRONTEND_BOUND, 12)
        assert grow(AppClass.FRONTEND_BOUND, 12).app_id == "f12"
        assert grow(AppClass.OTHER, 12) != grow(AppClass.OTHER, 13)

    def test_same_seed_reproducible_different_seed_varies(self, roster):
        a = gen_workload("backend", roster, seed=5)
        b = gen_workload("backend", roster, seed=5)
        assert a.to_json() == b.to_json()
        others = [gen_workload("backend", roster, seed=s) for s in range(6)]
        assert any(
            [x.app_id for x in o.apps] != [x.app_id for x in a.apps] for o in others
        )

    def test_spec_json_round_trip(self, roster):
        spec = gen_workload("mixed", roster, seed=3)
        again = WorkloadSpec.from_json(spec.to_json())
        assert again == spec

    def test_bad_spec_files_rejected(self):
        with pytest.raises(WorkloadError, match="JSON"):
            WorkloadSpec.from_json("{nope")
        with pytest.raises(WorkloadError, match="version"):
            WorkloadSpec.from_json(json.dumps({"version": 99, "apps": []}))
        doc = {"version": 1, "name": "x", "recipe": "mixed", "seed": 0, "apps": [{}]}
        with pytest.raises(WorkloadError):
            WorkloadSpec.from_json(json.dumps(doc))

    def test_recipes_constant(self):
        assert RECIPES == ("backend", "frontend", "mixed")


@pytest.mark.parametrize("call, error", [
    (lambda: make_synthetic_roster(-1), WorkloadError),
    (lambda: gen_workload("mixed", make_synthetic_roster(7), seed=-1), WorkloadError),
    (lambda: extra_synthetic_app(-1, AppClass.BACKEND_BOUND, 10), WorkloadError),
    (lambda: fit([], seed=-1), FitError),
], ids=["make_synthetic_roster", "gen_workload", "extra_synthetic_app", "fit"])
def test_negative_seed_is_domain_error(call, error):
    # numpy rejects negative seeds with a bare ValueError.
    with pytest.raises(error, match="seed must be >= 0, got -1"):
        call()


class TestTurnaroundTime:
    def test_all_finish_together(self):
        log = make_log({"a": 100, "b": 100, "c": 100})
        assert turnaround_time(log) == 100

    def test_slowest_app_defines_turnaround(self):
        log = make_log({"fast": 800, "slow": 1230})
        assert turnaround_time(log) == 1230

    def test_single_app(self):
        log = make_log({"only": 37})
        assert turnaround_time(log) == 37

    def test_incomplete_log_rejected(self):
        with pytest.raises(ConfigError, match="never completed"):
            turnaround_time(make_log({"a": 10, "b": None}))
        with pytest.raises(ConfigError):
            turnaround_time(make_log({}))


class TestFairness:
    def test_equal_speedups_give_one(self):
        assert fairness([0.5, 0.5, 0.5]) == 1.0

    def test_hand_computed_two_point_case(self):
        # mean 0.5, population sigma 0.1 -> 1 - 0.1/0.5 = 0.8
        assert fairness([0.4, 0.6]) == pytest.approx(0.8, abs=1e-15)

    def test_single_value_gives_one(self):
        assert fairness([1.0]) == 1.0

    def test_never_exceeds_one_and_one_only_when_equal(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            values = rng.uniform(0.05, 2.0, size=rng.integers(2, 9)).tolist()
            f = fairness(values)
            assert f <= 1.0 + 1e-12
            if len(set(values)) > 1:
                assert f < 1.0

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ConfigError):
            fairness([])
        with pytest.raises(ConfigError):
            fairness([0.5, 0.0])
        with pytest.raises(ConfigError):
            fairness([0.5, -0.1])


class TestIpcGeomean:
    def test_equal_values(self):
        assert ipc_geomean([2.0, 2.0, 2.0]) == pytest.approx(2.0, rel=1e-15)

    def test_hand_computed_pair(self):
        assert ipc_geomean([1.0, 4.0]) == pytest.approx(2.0, rel=1e-15)

    def test_zero_collapses_to_zero(self):
        assert ipc_geomean([2.0, 0.0, 3.0]) == 0.0

    def test_scale_equivariant(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            values = rng.uniform(0.1, 4.0, size=rng.integers(1, 7)).tolist()
            base = ipc_geomean(values)
            for k in (2.0, 0.5, 7.0):
                scaled = ipc_geomean([k * v for v in values])
                assert scaled == pytest.approx(k * base, rel=1e-12)

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ConfigError):
            ipc_geomean([])
        with pytest.raises(ConfigError):
            ipc_geomean([1.0, -2.0])


class TestComputeMetrics:
    def test_hand_computed_two_app_run(self):
        log = make_log(
            {"a": 10, "b": 20},
            instructions={"a": 2e9, "b": 8e9},
            iso_quanta={"a": 8.0, "b": 15.0},
        )
        report = compute_metrics(log)
        assert report.turnaround_quanta == 20
        assert report.turnaround_ms == pytest.approx(2000.0, rel=1e-15)
        # ipc: 2e9/(10*1e8) = 2.0 and 8e9/(20*1e8) = 4.0
        assert report.ipc == pytest.approx({"a": 2.0, "b": 4.0}, rel=1e-15)
        assert report.ipc_geomean == pytest.approx(math.sqrt(8.0), rel=1e-14)
        # speedups 0.8 and 0.75: fairness = 1 - 0.025/0.775 = 30/31
        assert report.speedups == pytest.approx({"a": 0.8, "b": 0.75}, rel=1e-15)
        assert report.fairness == pytest.approx(30 / 31, rel=1e-14)
        assert report.zero_ipc is False

    def test_replay_log_has_no_fairness(self):
        log = make_log({"a": 10, "b": 12}, iso_quanta={}, mode="replay")
        report = compute_metrics(log)
        assert report.fairness is None
        assert report.speedups == {}
        assert report.turnaround_quanta == 12

    def test_zero_instruction_app_flags_zero_ipc(self):
        log = make_log({"a": 10, "b": 20}, instructions={"a": 0.0, "b": 8e9})
        report = compute_metrics(log)
        assert report.zero_ipc is True
        assert report.ipc_geomean == 0.0

    def test_report_json_round_trip(self):
        log = make_log(
            {"a": 10, "b": 20},
            instructions={"a": 2e9, "b": 8e9},
            iso_quanta={"a": 8.0, "b": 15.0},
        )
        report = compute_metrics(log)
        replay = compute_metrics(make_log({"a": 5}, iso_quanta={}, mode="replay"))
        for m in (report, replay):
            assert json.loads(m.to_json()) == {"kind": "metrics", **dataclasses.asdict(m)}
        assert json.loads(replay.to_json())["fairness"] is None


class TestLoadLogSummary:
    def _engine_log(self):
        apps = (
            SyntheticApp(
                app_id="a",
                phases=(Phase(vector=CategoryVector(fe=0.05, be=0.80, fdc=0.15), instructions=10**12),),
                target_instructions=int(0.15 * 4 * QUANTUM_CYCLES * 3.2),
            ),
            SyntheticApp(
                app_id="b",
                phases=(Phase(vector=CategoryVector(fe=0.60, be=0.10, fdc=0.30), instructions=10**12),),
                target_instructions=int(0.30 * 4 * QUANTUM_CYCLES * 3.2),
            ),
        )
        workload = SimWorkload(apps=apps)
        return run(EngineConfig(workload=workload, seed=3))

    def test_round_trips_header_and_summary(self, tmp_path):
        log = self._engine_log()
        path = tmp_path / "run.jsonl"
        path.write_text(log.to_jsonl(), encoding="utf-8")
        loaded = load_log_summary(str(path))
        assert loaded.records == ()
        for field in (
            "policy",
            "seed",
            "quantum_ms",
            "dispatch_width",
            "cycles_per_quantum",
            "noise_sigma",
            "apps",
            "first_completion",
            "relaunches",
            "iso_quanta",
            "instructions",
            "total_quanta",
            "mode",
        ):
            assert getattr(loaded, field) == getattr(log, field), field
        # metrics computed from the file match metrics from memory
        assert compute_metrics(loaded) == compute_metrics(log)

    def test_rejects_non_logs(self, tmp_path):
        missing = tmp_path / "nope.jsonl"
        with pytest.raises(ConfigError, match="cannot read"):
            load_log_summary(str(missing))
        short = tmp_path / "short.jsonl"
        short.write_text("{}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="too short"):
            load_log_summary(str(short))
        bad_kind = tmp_path / "bad.jsonl"
        bad_kind.write_text('{"kind": "other"}\n{"summary": {}}\n', encoding="utf-8")
        with pytest.raises(ConfigError, match="bad header"):
            load_log_summary(str(bad_kind))
        no_summary = tmp_path / "nosum.jsonl"
        no_summary.write_text(
            '{"kind": "schedule-log"}\n{"quantum": 1}\n', encoding="utf-8"
        )
        with pytest.raises(ConfigError, match="no summary"):
            load_log_summary(str(no_summary))


class TestAggregateRuns:
    def test_nine_identical_runs_kept_whole(self):
        reports = [make_report(100, seed=s) for s in range(9)]
        agg = aggregate_runs(reports)
        assert agg.n_runs == 9
        assert agg.n_retained == 9
        assert agg.discarded == ()
        assert agg.tt_cv == 0.0
        assert agg.cv_met is True
        assert agg.turnaround_quanta_mean == 100.0
        assert agg.turnaround_ms_mean == 10000.0

    def test_single_outlier_discarded(self):
        reports = [make_report(100, seed=s) for s in range(8)] + [make_report(300, seed=8)]
        agg = aggregate_runs(reports)
        assert agg.discarded == (8,)
        assert agg.n_retained == 8
        assert agg.tt_cv == 0.0
        assert agg.cv_met is True
        assert agg.turnaround_quanta_mean == 100.0

    def test_two_divergent_runs_kept_with_warning(self):
        agg = aggregate_runs([make_report(100), make_report(300, seed=1)])
        assert agg.n_retained == 2
        assert agg.discarded == ()
        assert agg.cv_met is False
        assert agg.tt_cv == pytest.approx(0.5, rel=1e-15)  # sigma 100, mean 200
        assert agg.turnaround_quanta_mean == 200.0

    def test_discard_trace_and_cv_decrease(self):
        # Independently traced: discards 170 (idx 6), 140 (idx 5), then
        # the tie pair 102 (idx 1) and 98 (idx 2); CV falls monotonically
        # 0.2259 -> 0.1403 -> 0.0141 -> 0.0112 -> 0.0082 <= threshold.
        tts = [100, 102, 98, 101, 99, 140, 170]
        reports = [make_report(t, seed=i) for i, t in enumerate(tts)]
        agg = aggregate_runs(reports, cv_threshold=0.01)
        assert agg.discarded == (1, 2, 5, 6)
        assert agg.n_retained == 3
        assert agg.cv_met is True
        assert agg.turnaround_quanta_mean == pytest.approx(100.0, rel=1e-15)
        assert agg.tt_cv == pytest.approx(math.sqrt(2 / 3) / 100, rel=1e-12)

    def test_never_discards_below_two(self):
        tts = [10, 50, 90, 170, 330]
        reports = [make_report(t, seed=i) for i, t in enumerate(tts)]
        agg = aggregate_runs(reports, cv_threshold=1e-9)
        assert agg.n_retained == 2
        assert agg.cv_met is False
        assert sorted(agg.discarded) == list(agg.discarded)
        assert len(agg.discarded) == 3

    def test_fairness_mean_skips_missing_values(self):
        with_fair = make_report(100)
        without = MetricsReport(
            policy="synpa",
            seed=1,
            turnaround_quanta=100,
            turnaround_ms=10000.0,
            fairness=None,
            ipc_geomean=1.5,
            zero_ipc=False,
            speedups={},
            ipc={"a": 1.5},
        )
        agg = aggregate_runs([with_fair, without])
        assert agg.fairness_mean == 0.9
        agg2 = aggregate_runs([without, without])
        assert agg2.fairness_mean is None

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ConfigError, match="at least two"):
            aggregate_runs([make_report(100)])
        with pytest.raises(ConfigError, match="positive"):
            aggregate_runs([make_report(100), make_report(101)], cv_threshold=0.0)

    @pytest.mark.parametrize("cv_threshold", [math.nan, math.inf])
    def test_non_finite_cv_threshold_rejected(self, cv_threshold):
        with pytest.raises(ConfigError, match="cv_threshold"):
            aggregate_runs([make_report(100), make_report(101)], cv_threshold=cv_threshold)

    def test_aggregate_json_shape(self):
        agg = aggregate_runs([make_report(100, seed=s) for s in range(3)])
        doc = json.loads(agg.to_json())
        assert doc["kind"] == "aggregate"
        assert doc["n_runs"] == 3
        assert doc["cv_met"] is True
        assert doc["turnaround_quanta_mean"] == 100.0


class TestMetricsCsv:
    def test_header_and_rows(self):
        reports = [
            make_report(100, policy="synpa", seed=0),
            MetricsReport(
                policy="random",
                seed=1,
                turnaround_quanta=120,
                turnaround_ms=12000.0,
                fairness=None,
                ipc_geomean=1.25,
                zero_ipc=True,
                speedups={},
                ipc={"a": 1.25},
            ),
        ]
        text = metrics_csv(reports)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "synpa"
        assert int(first[2]) == 100
        assert float(first[3]) == 10000.0
        assert float(first[4]) == 0.9
        second = lines[2].split(",")
        assert second[0] == "random"
        assert second[4] == ""  # replay rows carry no fairness
        assert second[6] == "1"

    def test_csv_columns_contract(self):
        assert CSV_COLUMNS == (
            "policy",
            "seed",
            "turnaround_quanta",
            "turnaround_ms",
            "fairness",
            "ipc_geomean",
            "zero_ipc",
        )
