"""Command-line interface.

Subcommands: ``train`` (fit interference coefficients from profile
files), ``gen-workload`` (reproducible workload selection), ``simulate``
(closed-loop run on a synthetic workload), ``replay`` (open-loop run
over a recorded counter trace), and ``report`` (metrics + aggregation
over run logs).

Exit codes: 0 on success, 1 on a domain error (bad file, unsatisfiable
recipe, degenerate fit, ...), 2 on usage errors.  All outputs are
deterministic for a given seed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Sequence

from .counters import format_trace
from .engine import POLICIES, EngineConfig, SimWorkload, cycles_per_quantum, run, trace_from_log
from .errors import ConfigError, SynpaError, check_writable, read_text, write_text
from .harness import (
    MAX_WORKLOAD_SIZE,
    RECIPES,
    WorkloadSpec,
    aggregate_runs,
    check_cv_threshold,
    compute_metrics,
    extra_synthetic_app,
    gen_workload,
    load_log_summary,
    make_synthetic_roster,
    metrics_csv,
)
from .interference import REFERENCE_COEFFICIENTS, ModelCoefficients
from .trainer import Profile, align, fit, load_profiles


def _coefficients(path: str | None) -> ModelCoefficients:
    if path is None:
        return REFERENCE_COEFFICIENTS
    return ModelCoefficients.from_json(read_text(path))


def _seed(text: str) -> int:
    """argparse type of every seed option: numpy takes no negative seed."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


# ---------------------------------------------------------------------------
# train


def cmd_train(args: argparse.Namespace) -> int:
    check_writable(args.out, args.report)
    isolated: dict[str, Profile] = {}
    paired: dict[tuple[str, str], Profile] = {}
    first = None  # (path, shape) of the first file
    for path in args.profiles:
        for profile in load_profiles(path):
            # Alignment compares committed instructions per quantum, so
            # every file must share the dispatch width and quantum length.
            shape = (
                f"dispatch_width {profile.dispatch_width}, "
                f"quantum_ms {profile.quantum_ms}"
            )
            if first is None:
                first = (path, shape)
            elif shape != first[1]:
                raise ConfigError(f"{path}: {shape} differ from {first[0]}: {first[1]}")
            if profile.mode == "isolated":
                if profile.app_id in isolated:
                    raise ConfigError(
                        f"duplicate isolated profile for {profile.app_id!r}"
                    )
                isolated[profile.app_id] = profile
            else:
                key = (profile.app_id, profile.partner)
                if key in paired:
                    raise ConfigError(
                        f"duplicate paired profile for {key[0]!r} with {key[1]!r}"
                    )
                paired[key] = profile

    samples = []
    dropped = 0
    for a, b in sorted(paired):
        if a > b:  # a paired file yields both views; align each pair once
            continue
        for app in (a, b):
            if app not in isolated:
                raise ConfigError(f"no isolated baseline profile for {app!r}")
        result = align(isolated[a], isolated[b], paired[(a, b)], paired[(b, a)])
        samples.extend(result.samples)
        dropped += result.dropped
    if not samples:
        raise ConfigError("profiles produced no training samples")

    report = fit(samples, split=args.split, seed=args.seed)
    write_text(args.out, report.coefficients.to_json())
    if args.report:
        write_text(args.report, report.to_json())
    mse = " ".join(f"{k}={report.mse[k]:.6g}" for k in ("fdc", "fe", "be"))
    print(
        f"trained on {report.n_train}/{report.n_samples} samples "
        f"({dropped} quanta dropped in alignment); holdout mse {mse}"
    )
    print(f"wrote coefficients to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# gen-workload


def cmd_gen_workload(args: argparse.Namespace) -> int:
    settings = dict(
        iso_quanta=args.iso_quanta, cycles_per_quantum=cycles_per_quantum(args.quantum_ms)
    )
    roster = make_synthetic_roster(args.roster_seed, **settings)
    grow = functools.partial(extra_synthetic_app, args.roster_seed, **settings)
    spec = gen_workload(args.recipe, roster, args.seed, size=args.size, grow=grow)
    write_text(args.out, spec.to_json())
    classes = ", ".join(
        f"{a.app_id}:{spec.classes[a.app_id].value}" for a in spec.apps
    )
    print(f"workload {spec.name}: {classes}")
    print(f"wrote workload to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args: argparse.Namespace) -> int:
    policies = list(dict.fromkeys(args.policy))
    seeds = list(dict.fromkeys(args.seed))
    single = len(policies) == 1 and len(seeds) == 1
    if single:
        check_writable(args.out, args.metrics, args.export_trace)
    spec = WorkloadSpec.from_json(read_text(args.workload))
    workload = SimWorkload(
        apps=spec.apps,
        ground_truth=_coefficients(args.ground_truth),
        noise_sigma=args.noise_sigma,
        quantum_ms=args.quantum_ms,
    )
    coefficients = _coefficients(args.coefficients)

    def run_one(policy: str, seed: int):
        return run(
            EngineConfig(coefficients=coefficients, policy=policy, seed=seed, workload=workload)
        )

    if single:
        log = run_one(policies[0], seeds[0])
        write_text(args.out, log.to_jsonl())
        metrics = compute_metrics(log)
        if args.metrics:
            write_text(args.metrics, metrics.to_json())
        if args.export_trace:
            write_text(args.export_trace, format_trace(*trace_from_log(log)))
        fair = "n/a" if metrics.fairness is None else f"{metrics.fairness:.4f}"
        print(
            f"policy={log.policy} seed={log.seed} quanta={log.total_quanta} "
            f"turnaround={metrics.turnaround_quanta}q ({metrics.turnaround_ms:.0f} ms) "
            f"fairness={fair} ipc_geomean={metrics.ipc_geomean:.4f}"
        )
        print(f"wrote log to {args.out}")
        return 0

    # Multiple runs: --out is a directory; emit per-run logs and metrics,
    # a flat CSV, per-policy aggregates, and comparison rows.
    if args.metrics or args.export_trace:
        raise ConfigError("--metrics/--export-trace need a single policy and seed")
    if len(seeds) >= 2:
        check_cv_threshold(args.cv_threshold)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {args.out!r}: {exc}") from None

    per_policy = {}
    for policy in policies:
        reports = []
        for seed in seeds:
            log = run_one(policy, seed)
            stem = f"{policy}-s{seed}"
            write_text(os.path.join(args.out, stem + ".jsonl"), log.to_jsonl())
            report = compute_metrics(log)
            write_text(os.path.join(args.out, stem + ".metrics.json"), report.to_json())
            reports.append(report)
        per_policy[policy] = reports

    flat = [m for policy in policies for m in per_policy[policy]]
    write_text(os.path.join(args.out, "runs.csv"), metrics_csv(flat))
    for policy in policies:
        reports = per_policy[policy]
        if len(reports) >= 2:
            agg = aggregate_runs(reports, cv_threshold=args.cv_threshold)
            write_text(os.path.join(args.out, f"{policy}.aggregate.json"), agg.to_json())
            fair = (
                "n/a"
                if agg.fairness_mean is None
                else f"{agg.fairness_mean:.4f}"
            )
            print(
                f"policy={policy} runs={agg.n_retained}/{agg.n_runs} "
                f"tt_mean={agg.turnaround_quanta_mean:.2f}q "
                f"fairness_mean={fair} ipc_geomean_mean={agg.ipc_geomean_mean:.4f}"
            )
        else:
            m = reports[0]
            fair = "n/a" if m.fairness is None else f"{m.fairness:.4f}"
            print(
                f"policy={policy} runs=1/1 tt_mean={float(m.turnaround_quanta):.2f}q "
                f"fairness_mean={fair} ipc_geomean_mean={m.ipc_geomean:.4f}"
            )
    print(f"wrote runs to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# replay


def cmd_replay(args: argparse.Namespace) -> int:
    check_writable(args.out, args.metrics)
    config = EngineConfig(
        coefficients=_coefficients(args.coefficients),
        policy=args.policy,
        seed=args.seed,
        trace_path=args.trace,
    )
    log = run(config)
    write_text(args.out, log.to_jsonl())
    metrics = compute_metrics(log)
    if args.metrics:
        write_text(args.metrics, metrics.to_json())
    print(
        f"policy={log.policy} seed={log.seed} quanta={log.total_quanta} "
        f"turnaround={metrics.turnaround_quanta}q ipc_geomean={metrics.ipc_geomean:.4f}"
    )
    print(f"wrote log to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# report


def cmd_report(args: argparse.Namespace) -> int:
    check_writable(args.csv, args.out)
    if len(args.logs) >= 2:
        check_cv_threshold(args.cv_threshold)
    reports = [compute_metrics(load_log_summary(path)) for path in args.logs]
    for path, m in zip(args.logs, reports):
        fair = "n/a" if m.fairness is None else f"{m.fairness:.4f}"
        print(
            f"{path}: policy={m.policy} seed={m.seed} "
            f"turnaround={m.turnaround_quanta}q fairness={fair} "
            f"ipc_geomean={m.ipc_geomean:.4f}"
        )
    if args.csv:
        write_text(args.csv, metrics_csv(reports))
    if len(reports) < 2:
        print("aggregate skipped: needs at least two runs")
        return 0
    aggregate = aggregate_runs(reports, cv_threshold=args.cv_threshold)
    if args.out:
        write_text(args.out, aggregate.to_json())
    stable = "stable" if aggregate.cv_met else "UNSTABLE"
    fair = (
        "n/a"
        if aggregate.fairness_mean is None
        else f"{aggregate.fairness_mean:.4f}"
    )
    print(
        f"aggregate over {aggregate.n_retained}/{aggregate.n_runs} runs "
        f"({stable}, cv={aggregate.tt_cv:.4f}): "
        f"turnaround={aggregate.turnaround_quanta_mean:.2f}q "
        f"fairness={fair} ipc_geomean={aggregate.ipc_geomean_mean:.4f}"
    )
    if aggregate.discarded:
        print(f"discarded outlier runs: {list(aggregate.discarded)}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synpa",
        description="SMT-aware thread-to-core allocation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit interference coefficients from profiles")
    p_train.add_argument("profiles", nargs="+", help="profile files (isolated and paired)")
    p_train.add_argument("--out", required=True, help="output coefficients JSON")
    p_train.add_argument("--report", default=None, help="optional fit report JSON")
    p_train.add_argument("--split", type=float, default=0.8, help="train fraction (default 0.8)")
    p_train.add_argument("--seed", type=_seed, default=0, help="shuffle seed (default 0)")
    p_train.set_defaults(func=cmd_train)

    p_gen = sub.add_parser("gen-workload", help="generate a reproducible workload")
    p_gen.add_argument("--recipe", required=True, choices=RECIPES)
    p_gen.add_argument("--seed", type=_seed, required=True, help="selection seed")
    p_gen.add_argument("--out", required=True, help="output workload JSON")
    p_gen.add_argument(
        "--size",
        type=int,
        default=8,
        help=f"apps per workload, 2 to {MAX_WORKLOAD_SIZE} (default 8)",
    )
    p_gen.add_argument(
        "--roster-seed", type=_seed, default=7, help="synthetic roster seed (default 7)"
    )
    p_gen.add_argument(
        "--iso-quanta",
        type=float,
        default=60.0,
        help="isolated duration per app in quanta (default 60)",
    )
    p_gen.add_argument(
        "--quantum-ms", type=float, default=100.0, help="quantum length (default 100)"
    )
    p_gen.set_defaults(func=cmd_gen_workload)

    p_sim = sub.add_parser("simulate", help="closed-loop run on a synthetic workload")
    p_sim.add_argument("--workload", required=True, help="workload JSON")
    p_sim.add_argument(
        "--out", required=True,
        help="output run log (JSONL); a directory with multiple policies/seeds",
    )
    p_sim.add_argument(
        "--policy", nargs="+", default=["synpa"], choices=POLICIES,
        help="one or more policies (multiple: comparison mode)",
    )
    p_sim.add_argument(
        "--seed", type=_seed, nargs="+", default=[0],
        help="one or more seeds (multiple: repeated runs)",
    )
    p_sim.add_argument("--coefficients", default=None, help="allocator model JSON (default: built-in reference)")
    p_sim.add_argument("--ground-truth", default=None, help="simulator ground-truth model JSON (default: built-in reference)")
    p_sim.add_argument("--noise-sigma", type=float, default=0.0, help="observation noise (default 0)")
    p_sim.add_argument("--quantum-ms", type=float, default=100.0, help="quantum length (default 100)")
    p_sim.add_argument("--cv-threshold", type=float, default=0.05, help="stability threshold for multi-run aggregation (default 0.05)")
    p_sim.add_argument("--metrics", default=None, help="optional metrics JSON")
    p_sim.add_argument("--export-trace", default=None, help="optional counter trace export")
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("replay", help="open-loop run over a recorded counter trace")
    p_rep.add_argument("--trace", required=True, help="counter trace file")
    p_rep.add_argument("--out", required=True, help="output run log (JSONL)")
    p_rep.add_argument("--policy", default="synpa", choices=POLICIES)
    p_rep.add_argument("--seed", type=_seed, default=0)
    p_rep.add_argument("--coefficients", default=None, help="allocator model JSON (default: built-in reference)")
    p_rep.add_argument("--metrics", default=None, help="optional metrics JSON")
    p_rep.set_defaults(func=cmd_replay)

    p_report = sub.add_parser("report", help="metrics and aggregation over run logs")
    p_report.add_argument("logs", nargs="+", help="run logs from simulate/replay")
    p_report.add_argument("--cv-threshold", type=float, default=0.05, help="stability threshold (default 0.05)")
    p_report.add_argument("--out", default=None, help="optional aggregate JSON")
    p_report.add_argument("--csv", default=None, help="optional flat CSV of run metrics")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SynpaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
