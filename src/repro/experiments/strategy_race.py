"""The strategy race: SRA probing vs. the field, one world, one budget.

Runs every registered discovery strategy (``sra-anycast``,
``random-baseline``, ``entropy-clustered``, ``hitlist-feedback``) on the
same world under a shared per-epoch probe budget and emits a
deterministic comparison table:

* **yield** — new and cumulative router IPs per epoch (the paper's core
  comparison: does SRA find periphery routers the others miss?),
* **stability** — Jaccard overlap of consecutive epochs' router IPs
  (Fig. 5's re-scan stability, per strategy),
* **rate-limit exposure** — RFC 4443 suppressions the strategy's probes
  triggered (error-hungry strategies burn router token buckets),
* **telescope exposure** — probes landing in unallocated space, from the
  :class:`~repro.scanner.strategies.telescope.Telescope` observer.

Every strategy scans through the same (optionally sharded) substrate
with the same pacing rule, and adaptive strategies observe each epoch's
merged records before producing the next window — so the whole table is
a deterministic function of (world seed, race seed, budget), byte
identical across shard counts and across interrupt+resume (pinned by
the golden and fault tests).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from ..scanner.pacing import PAPER_PPS, PAPER_SCAN_DURATION, paced_pps
from ..scanner.sharded import ShardedScanRunner
from ..scanner.strategies import (
    STRATEGIES,
    StrategyEpochRow,
    build_strategy,
    run_strategy_epochs,
)
from ..scanner.zmapv6 import ScanConfig
from .base import ExperimentReport

if TYPE_CHECKING:
    from ..telemetry.scan import ScanTelemetry
    from ..topology.entities import World
    from .world import ExperimentContext

# Race scans live in their own epoch band so world dynamics (staleness,
# per-epoch behaviour) never collide with the table/figure campaigns.
EPOCH_BASE = 3000


@dataclass(slots=True)
class StrategySummary:
    """One strategy's totals across the race."""

    strategy: str
    probes: int
    router_ips: int
    echo_router_ips: int
    mean_overlap: float
    suppressed_errors: int
    dark_probes: int
    dark_share: float


@dataclass(slots=True)
class RaceResult:
    """The full race: per-epoch rows plus per-strategy summaries."""

    epochs: int
    budget: int
    seed: int
    rows: list[StrategyEpochRow] = field(default_factory=list)
    summaries: list[StrategySummary] = field(default_factory=list)

    def to_table_jsonl(self) -> str:
        """The comparison table as deterministic JSONL.

        Fixed key order, fixed separators, rows before summaries — the
        bytes the golden test and the CI artifact pin.
        """
        lines = [
            json.dumps({"kind": "epoch", **asdict(row)}, sort_keys=False)
            for row in self.rows
        ]
        lines += [
            json.dumps({"kind": "summary", **asdict(summary)}, sort_keys=False)
            for summary in self.summaries
        ]
        return "\n".join(lines) + "\n" if lines else ""


def run_strategy_race(
    world: "World",
    *,
    epochs: int = 4,
    budget: int = 10_000,
    seed: int = 97,
    pps: float = PAPER_PPS,
    scan_duration: float = PAPER_SCAN_DURATION,
    runner: "ShardedScanRunner | None" = None,
    telemetry: "ScanTelemetry | None" = None,
) -> RaceResult:
    """Race every registered strategy head-to-head under one probe budget.

    Strategies run in sorted-name order, each over the same epoch band
    ``EPOCH_BASE..EPOCH_BASE+epochs`` so every strategy faces identical
    world states.  Every epoch scans through ``runner`` (an experiment
    context's one-shard runner, or a fresh one); merge determinism makes
    the result identical at any shard count.
    """
    if epochs < 1:
        raise ValueError(f"race needs at least one epoch, got {epochs}")
    race = RaceResult(epochs=epochs, budget=budget, seed=seed)
    runner = runner or ShardedScanRunner(world, shards=1)
    for name in sorted(STRATEGIES):
        rows: list[StrategyEpochRow] = []
        echo_ips: set[int] = set()
        for row, result in run_strategy_epochs(
            build_strategy(name, world, seed=seed, budget=budget),
            runner,
            epochs,
            scan_name=lambda index, name=name: f"race-{name}-e{index}",
            scan_config=lambda index, size: ScanConfig(
                pps=paced_pps(size, scan_duration, pps),
                seed=seed + index,
            ),
            epoch_base=EPOCH_BASE,
            telemetry=telemetry,
        ):
            echo_ips |= result.echo_sources()
            rows.append(row)
        race.rows += rows
        overlaps = [row.overlap for row in rows if row.overlap is not None]
        probes = sum(row.targets for row in rows)
        dark = sum(row.dark_probes for row in rows)
        race.summaries.append(
            StrategySummary(
                strategy=name,
                probes=probes,
                router_ips=rows[-1].cumulative_router_ips,
                echo_router_ips=len(echo_ips),
                mean_overlap=(
                    sum(overlaps) / len(overlaps) if overlaps else 0.0
                ),
                suppressed_errors=sum(row.suppressed_errors for row in rows),
                dark_probes=dark,
                dark_share=dark / probes if probes else 0.0,
            )
        )
    return race


def format_race_table(race: RaceResult) -> str:
    """The comparison table as aligned text (the report body)."""
    lines = [
        f"Strategy race: {race.epochs} epochs x {race.budget} probe budget "
        f"(seed {race.seed})",
        "",
        f"{'strategy':<18} {'epoch':>5} {'targets':>8} {'new':>6} "
        f"{'cum':>6} {'overlap':>8} {'supp':>6} {'dark':>6}",
    ]
    for row in race.rows:
        overlap = f"{row.overlap:.3f}" if row.overlap is not None else "-"
        lines.append(
            f"{row.strategy:<18} {row.epoch:>5} {row.targets:>8} "
            f"{row.new_router_ips:>6} {row.cumulative_router_ips:>6} "
            f"{overlap:>8} {row.suppressed_errors:>6} {row.dark_probes:>6}"
        )
    lines.append("")
    lines.append(
        f"{'strategy':<18} {'probes':>8} {'routers':>8} {'echo':>6} "
        f"{'overlap':>8} {'supp':>6} {'dark%':>6}"
    )
    for summary in race.summaries:
        lines.append(
            f"{summary.strategy:<18} {summary.probes:>8} "
            f"{summary.router_ips:>8} {summary.echo_router_ips:>6} "
            f"{summary.mean_overlap:>8.3f} {summary.suppressed_errors:>6} "
            f"{summary.dark_share:>6.1%}"
        )
    return "\n".join(lines)


def run(context: "ExperimentContext") -> ExperimentReport:
    """``sra-repro strategy-race``: the head-to-head comparison table."""
    race = context.strategy_race
    return ExperimentReport(
        experiment_id="strategy-race",
        title="Discovery-strategy race: SRA vs. the field",
        data={
            "epochs": race.epochs,
            "budget": race.budget,
            "seed": race.seed,
            "rows": [asdict(row) for row in race.rows],
            "summaries": [asdict(summary) for summary in race.summaries],
            "table_jsonl": race.to_table_jsonl(),
        },
        text=format_race_table(race),
    )
