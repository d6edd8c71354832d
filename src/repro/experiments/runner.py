"""CLI runner: regenerate any table/figure of the paper.

Usage::

    sra-repro --scale quick table2 fig5
    sra-repro --scale full all
    python -m repro.experiments.runner fig8
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path
from typing import Callable

from ..scanner.checkpoint import CheckpointError
from ..scanner.cli import check_output_paths
from ..scanner.sharded import ScanInterrupted, ShardFailedError
from ..telemetry.scan import ScanTelemetry
from .base import ExperimentReport
from .world import ExperimentContext, get_context

# Registry of experiment ids -> run functions.  Import here (not lazily)
# so `--list` and argument validation see everything.
from . import (  # noqa: E402
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig10,
    strategy_race,
    table1,
    table2,
    table3,
    table4,
)

EXPERIMENTS: dict[str, Callable[[ExperimentContext], ExperimentReport]] = {
    "table1": table1.run,
    "table2": table2.run,
    "table3": table3.run,
    "table4": table4.run,
    "fig3": fig3.run,
    "fig4": fig4.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig10": fig10.run,
    "strategy-race": strategy_race.run,
}


def write_report_artifacts(report: ExperimentReport, report_dir: Path) -> list[Path]:
    """Persist one report under ``report_dir``; returns the paths written.

    Every report gets ``<id>.txt`` (the paper-style text).  Reports that
    carry a deterministic table (``table_jsonl`` in their data — today
    the strategy race) additionally get ``<id>.jsonl``, the bytes CI
    uploads as the comparison-table artifact.
    """
    report_dir.mkdir(parents=True, exist_ok=True)
    written = []
    text_path = report_dir / f"{report.experiment_id}.txt"
    text_path.write_text(str(report) + "\n", encoding="utf-8")
    written.append(text_path)
    table = report.data.get("table_jsonl")
    if table is not None:
        table_path = report_dir / f"{report.experiment_id}.jsonl"
        table_path.write_text(table, encoding="utf-8")
        written.append(table_path)
    return written


def resolve_experiment_ids(requested: list[str]) -> list[str]:
    """Expand 'all' and dedupe ids while preserving first-seen order.

    ``sra-repro table2 table2`` must run table2 once, not twice.  Raises
    ``ValueError`` for unknown ids.
    """
    if not requested or "all" in requested:
        return sorted(EXPERIMENTS)
    for experiment_id in requested:
        if experiment_id not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {experiment_id!r} "
                f"(choose from {', '.join(sorted(EXPERIMENTS))})"
            )
    return list(dict.fromkeys(requested))


def run_experiment(
    experiment_id: str, context: ExperimentContext
) -> ExperimentReport:
    """Run one experiment by id against a context."""
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; "
            f"choose from {', '.join(sorted(EXPERIMENTS))}"
        ) from None
    return runner(context)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sra-repro",
        description="Regenerate tables/figures of the SRA probing paper "
        "on the simulated IPv6 Internet.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help="experiment ids (table1..table4, fig3..fig10, "
        "strategy-race) or 'all'",
    )
    parser.add_argument(
        "--scale",
        choices=("quick", "full"),
        default="quick",
        help="probe budgets: quick (seconds) or full (minutes)",
    )
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument(
        "--pps",
        type=float,
        default=None,
        help="override the probe rate of the survey and the strategy race",
    )
    parser.add_argument(
        "--checkpoint-dir",
        help="journal every campaign scan here; an interrupted run "
        "resumes from the journals and regenerates identical outputs",
    )
    parser.add_argument(
        "--report-dir",
        help="also write each report's text (and any deterministic "
        "table, e.g. strategy-race's comparison JSONL) to this "
        "directory",
    )
    parser.add_argument(
        "--telemetry-out",
        help="write the campaign's JSONL telemetry event stream here",
    )
    parser.add_argument(
        "--metrics-out",
        help="write the campaign's Prometheus-text metrics here",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    args = parser.parse_args(argv)
    # One-line stderr + exit 2 for a bad rate or output path, matching
    # sra-scan: they would otherwise surface as a ValueError traceback
    # deep inside the first campaign scan, or after it.
    if args.pps is not None and args.pps <= 0:
        problem = "--pps must be positive"
    elif args.pps is not None and not math.isfinite(args.pps):
        problem = "--pps must be finite"
    else:
        problem = check_output_paths(
            [
                ("--checkpoint-dir", args.checkpoint_dir),
                ("--telemetry-out", args.telemetry_out),
                ("--metrics-out", args.metrics_out),
            ]
        )
    if problem is not None:
        print(f"sra-repro: {problem}", file=sys.stderr)
        return 2

    if args.list:
        for experiment_id in sorted(EXPERIMENTS):
            print(experiment_id)
        return 0

    try:
        requested = resolve_experiment_ids(list(args.experiments))
    except ValueError as error:
        parser.error(str(error))

    context = get_context(
        args.scale,
        seed=args.seed,
        checkpoint_dir=args.checkpoint_dir,
        pps=args.pps,
    )
    telemetry = (
        ScanTelemetry() if (args.telemetry_out or args.metrics_out) else None
    )
    if telemetry is not None:
        # The context (and its cached runner, if campaigns already ran in
        # this process) must adopt the facade before experiments execute.
        context.telemetry = telemetry
        if "runner" in vars(context):
            context.runner.telemetry = telemetry
    for experiment_id in requested:
        started = time.perf_counter()
        try:
            report = run_experiment(experiment_id, context)
        except CheckpointError as error:
            print(f"sra-repro: checkpoint error: {error}", file=sys.stderr)
            return 4
        except ScanInterrupted as error:
            print(
                f"sra-repro: interrupted during {experiment_id}: {error}",
                file=sys.stderr,
            )
            if args.checkpoint_dir:
                print(
                    "sra-repro: re-run the same command to resume from "
                    f"{args.checkpoint_dir}",
                    file=sys.stderr,
                )
            return 5
        except ShardFailedError as error:
            print(f"sra-repro: {error}", file=sys.stderr)
            return 1
        elapsed = time.perf_counter() - started
        print(report)
        print(f"[{experiment_id} regenerated in {elapsed:.1f}s]\n")
        if args.report_dir:
            for path in write_report_artifacts(report, Path(args.report_dir)):
                print(f"[wrote {path}]", file=sys.stderr)
    if telemetry is not None:
        if args.telemetry_out:
            telemetry.write_jsonl(args.telemetry_out)
        if args.metrics_out:
            telemetry.write_prometheus(args.metrics_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
