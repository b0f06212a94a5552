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
import dataclasses
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
    MetricsReport,
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
from .trainer import aligned_samples, fit


def _coefficients(path: str | None) -> ModelCoefficients:
    if path is None:
        return REFERENCE_COEFFICIENTS
    return ModelCoefficients.from_json(read_text(path))


def _fairness(value: float | None) -> str:
    """A fairness figure as printed: ``n/a`` when it is undefined."""
    return "n/a" if value is None else f"{value:.4f}"


def _report_line(m: MetricsReport) -> str:
    """One run's metrics as every command prints them."""
    return (
        f"policy={m.policy} seed={m.seed} turnaround={m.turnaround_quanta}q "
        f"({m.turnaround_ms:.0f} ms) fairness={_fairness(m.fairness)} ipc_geomean={m.ipc_geomean:.4f}"
    )


def _seed(text: str) -> int:
    """argparse type of every seed option: numpy takes no negative seed."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _write_run(log, out: str, metrics: str | None = None, trace: str | None = None) -> MetricsReport:
    """Write a run's log, and its metrics and counter trace where named;
    the trace is built first, so a run it cannot export writes nothing."""
    text = format_trace(*trace_from_log(log)) if trace else None
    write_text(out, log.to_jsonl())
    report = compute_metrics(log)
    if metrics:
        write_text(metrics, report.to_json())
    if text:
        write_text(trace, text)
    return report


def _summarize(
    labels: Sequence[str], reports: Sequence[MetricsReport], cv_threshold: float, out: str | None
) -> None:
    """Print each run's metrics and, over two runs or more, their aggregate
    (written to ``out`` if named) and the runs it discards."""
    for label, m in zip(labels, reports):
        print(f"{label}: {_report_line(m)}")
    if len(reports) < 2:
        print("aggregate skipped: needs at least two runs")
        return
    aggregate = aggregate_runs(reports, cv_threshold=cv_threshold)
    if out:
        write_text(out, aggregate.to_json())
    stable = "stable" if aggregate.cv_met else "UNSTABLE"
    print(
        f"aggregate over {aggregate.n_retained}/{aggregate.n_runs} runs "
        f"({stable}, cv={aggregate.tt_cv:.4f}): "
        f"turnaround={aggregate.turnaround_quanta_mean:.2f}q "
        f"fairness={_fairness(aggregate.fairness_mean)} "
        f"ipc_geomean={aggregate.ipc_geomean_mean:.4f}; "
        f"all runs: turnaround={aggregate.turnaround_quanta_mean_all:.2f}q "
        f"sd={aggregate.turnaround_quanta_pstdev_all:.2f}q"
    )
    if aggregate.discarded:
        dropped = (f"{labels[i]} ({reports[i].turnaround_quanta}q)" for i in aggregate.discarded)
        print(f"discarded outlier runs: {', '.join(dropped)}")


# ---------------------------------------------------------------------------
# train


def cmd_train(args: argparse.Namespace) -> int:
    check_writable(args.out, args.report, inputs=args.profiles)
    aligned = aligned_samples(args.profiles)
    report = fit(aligned.samples, split=args.split, seed=args.seed)
    write_text(args.out, report.coefficients.to_json())
    if args.report:
        write_text(args.report, report.to_json())
    mse = " ".join(f"{k}={report.mse[k]:.6g}" for k in ("fdc", "fe", "be"))
    print(
        f"trained on {report.n_train}/{report.n_samples} samples "
        f"({aligned.dropped} quanta dropped in alignment); holdout mse {mse}"
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
    spec = dataclasses.replace(spec, quantum_ms=args.quantum_ms)
    # Refuse what ``simulate`` would refuse under its default ground truth.
    SimWorkload(apps=spec.apps, quantum_ms=spec.quantum_ms)
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
    inputs = (args.workload, args.coefficients, args.ground_truth)
    single = len(policies) == 1 and len(seeds) == 1
    if single:
        check_writable(args.out, args.metrics, args.export_trace, inputs=inputs)
    spec = WorkloadSpec.from_json(read_text(args.workload))
    workload = SimWorkload(
        apps=spec.apps,
        ground_truth=_coefficients(args.ground_truth),
        noise_sigma=args.noise_sigma,
        quantum_ms=spec.quantum_ms,  # the apps are sized for the file's quanta
    )
    config = functools.partial(
        EngineConfig, coefficients=_coefficients(args.coefficients), workload=workload
    )

    if single:
        log = run(config(policy=policies[0], seed=seeds[0]))
        print(_report_line(_write_run(log, args.out, args.metrics, args.export_trace)))
        print(f"wrote log to {args.out}")
        return 0

    # Several runs: --out is a directory holding what single runs with
    # --metrics and a report over their logs would write.
    if args.metrics or args.export_trace:
        raise ConfigError("--metrics/--export-trace need a single policy and seed")
    if len(seeds) >= 2:
        check_cv_threshold(args.cv_threshold)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {args.out!r}: {exc}") from None
    path = functools.partial(os.path.join, args.out)
    labels = {p: [f"{p}-s{s}" for s in seeds] for p in policies}
    files = (".jsonl", ".metrics.json")  # each run's log and metrics
    aggregates = {p: path(f"{p}.aggregate.json") if len(seeds) >= 2 else None for p in policies}
    check_writable(
        *(path(label + ext) for p in policies for label in labels[p] for ext in files),
        path("runs.csv"), *aggregates.values(), inputs=inputs,
    )
    reports = {
        p: [_write_run(run(config(policy=p, seed=s)), *(path(label + ext) for ext in files))
            for s, label in zip(seeds, labels[p])]
        for p in policies
    }
    write_text(path("runs.csv"), metrics_csv([m for p in policies for m in reports[p]]))
    for p in policies:
        _summarize(labels[p], reports[p], args.cv_threshold, aggregates[p])
    print(f"wrote runs to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# replay


def cmd_replay(args: argparse.Namespace) -> int:
    check_writable(args.out, args.metrics, inputs=(args.trace, args.coefficients))
    log = run(EngineConfig(
        coefficients=_coefficients(args.coefficients),
        policy=args.policy,
        seed=args.seed,
        trace_path=args.trace,
    ))
    print(_report_line(_write_run(log, args.out, args.metrics)))
    print(f"wrote log to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# report


def cmd_report(args: argparse.Namespace) -> int:
    if args.out and len(args.logs) < 2:
        raise ConfigError("--out needs at least two logs to aggregate")
    check_writable(args.csv, args.out, inputs=args.logs)
    if len(args.logs) >= 2:
        check_cv_threshold(args.cv_threshold)
    reports = [compute_metrics(load_log_summary(path)) for path in args.logs]
    if args.csv:
        write_text(args.csv, metrics_csv(reports))
    _summarize(args.logs, reports, args.cv_threshold, args.out)
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
