"""Probing-method comparisons: SRA vs random vs direct (Figs. 5 and 6).

Three campaigns over the same subnet population:

* :func:`run_sra_vs_random` — six paired scans of the hitlist /64s; SRA
  probes the subnet's ``::`` address, random probing draws one random
  in-subnet address per subnet (Fig. 5).
* :func:`run_visibility` — probe every discovered router IP directly once
  a "day" for a week; partition into always / sometimes / never responsive
  (Fig. 6a).
* :func:`run_stability` — re-probe the same SRA addresses across epochs
  and check whether the *same* router IP answers (Fig. 6b).

Every scan enters through ``runner.scan`` — the ``runner`` passed in
(an experiment context's, which has one shard), or one
``ShardedScanRunner(world, shards=1)`` per campaign.  The three
campaigns above are sequences of independent scans and hand them to
``runner.scan_all``: when the runner's executor resolves to ``process``
over the campaign's targets, whole scans run on a worker pool and each
result comes back through ``runner.scan`` in campaign order; with no
pool, each scans in place, one after another.  A multi-shard runner
(only tests pass one) runs each scan's shards on one campaign pool
instead.  At any shard count the results are the same bytes — a runner
changes wall-clock time only; crash tolerance (retries, journals) is
configured on it.

The campaigns read each scan only through :class:`ScanResult`'s views,
which read its rows as columns, so they never build a record.
"""

from __future__ import annotations

import random
from contextlib import closing
from dataclasses import dataclass, field

from ..addr.randomgen import random_targets_for_sras
from ..scanner.pacing import PAPER_PPS, PAPER_SCAN_DURATION, paced_pps
from ..scanner.records import ScanResult
from ..scanner.sharded import ShardedScanRunner
from ..scanner.stream import LazyStream
from ..scanner.zmapv6 import ScanConfig
from ..telemetry.scan import ScanTelemetry
from ..topology.entities import World


@dataclass(slots=True)
class MethodScan:
    """One scan epoch of one probing method."""

    epoch: int
    result: ScanResult

    @property
    def router_ips(self) -> set[int]:
        return self.result.sources()

    @property
    def echo_router_ips(self) -> set[int]:
        return self.result.echo_sources()


@dataclass(slots=True)
class ComparisonSeries:
    """Per-epoch results of SRA and random probing on the same subnets."""

    sra: list[MethodScan] = field(default_factory=list)
    random: list[MethodScan] = field(default_factory=list)

    def advantage_per_epoch(self) -> list[float]:
        """(SRA - random) / random router-IP discovery, per epoch."""
        advantages = []
        for sra_scan, random_scan in zip(self.sra, self.random):
            found_random = len(random_scan.router_ips)
            found_sra = len(sra_scan.router_ips)
            if found_random:
                advantages.append((found_sra - found_random) / found_random)
        return advantages

    def sra_exclusive(self) -> set[int]:
        """Router IPs only SRA probing ever saw."""
        sra_all: set[int] = set()
        random_all: set[int] = set()
        for scan in self.sra:
            sra_all |= scan.router_ips
        for scan in self.random:
            random_all |= scan.router_ips
        return sra_all - random_all

    def consecutive_overlap(self, method: str = "sra") -> list[float]:
        """Jaccard-style overlap of consecutive scans (paper: <70 %)."""
        scans = self.sra if method == "sra" else self.random
        overlaps = []
        for previous, current in zip(scans, scans[1:]):
            union = previous.router_ips | current.router_ips
            if union:
                overlaps.append(
                    len(previous.router_ips & current.router_ips) / len(union)
                )
        return overlaps


def run_sra_vs_random(
    world: World,
    sra_targets: list[int],
    *,
    epochs: int = 6,
    scan_duration: float = PAPER_SCAN_DURATION,
    seed: int = 23,
    runner: ShardedScanRunner | None = None,
    telemetry: ScanTelemetry | None = None,
) -> ComparisonSeries:
    """Fig. 5: paired SRA and random scans of the same /64 subnets."""
    series = ComparisonSeries()
    runner = runner or ShardedScanRunner(world, shards=1)
    paced = paced_pps(len(sra_targets), scan_duration, PAPER_PPS)
    jobs = []
    for epoch in range(epochs):
        rng = random.Random((seed << 8) | epoch)
        # Lazy, and released once scanned: only the random draws of the
        # scans in flight are ever resident next to the shared SRA list.
        random_targets = LazyStream(
            lambda rng=rng: random_targets_for_sras(sra_targets, 64, rng),
            name=f"random-epoch{epoch}",
            subnet_length=64,
        )
        config = ScanConfig(pps=paced, seed=seed + epoch)
        jobs += [
            (sra_targets, config, f"sra-epoch{epoch}", epoch),
            (random_targets, config, f"random-epoch{epoch}", epoch),
        ]
    # strict: once the jobs run out, zip still draws scan_all to its end.
    with closing(runner.scan_all(jobs, telemetry=telemetry)) as scans:
        for (targets, _, _, epoch), result in zip(jobs, scans, strict=True):
            if targets is sra_targets:
                series.sra.append(MethodScan(epoch=epoch, result=result))
            else:
                series.random.append(MethodScan(epoch=epoch, result=result))
                targets.release()
    return series


@dataclass(slots=True)
class VisibilityReport:
    """Fig. 6a: daily direct-probe responsiveness of discovered routers."""

    daily_responsive: list[set[int]] = field(default_factory=list)
    probed: set[int] = field(default_factory=set)

    @property
    def always(self) -> set[int]:
        if not self.daily_responsive:
            return set()
        result = set(self.daily_responsive[0])
        for day in self.daily_responsive[1:]:
            result &= day
        return result

    @property
    def never(self) -> set[int]:
        seen: set[int] = set()
        for day in self.daily_responsive:
            seen |= day
        return self.probed - seen

    @property
    def sometimes(self) -> set[int]:
        return self.probed - self.always - self.never

    def shares(self) -> dict[str, float]:
        total = len(self.probed)
        if total == 0:
            return {"always": 0.0, "sometimes": 0.0, "never": 0.0}
        return {
            "always": len(self.always) / total,
            "sometimes": len(self.sometimes) / total,
            "never": len(self.never) / total,
        }


def run_visibility(
    world: World,
    router_ips: set[int],
    *,
    days: int = 7,
    runner: ShardedScanRunner | None = None,
    telemetry: ScanTelemetry | None = None,
) -> VisibilityReport:
    """Probe each discovered router IP directly, once per day (Fig. 6a)."""
    report = VisibilityReport(probed=set(router_ips))
    ordered = sorted(router_ips)
    runner = runner or ShardedScanRunner(world, shards=1)
    paced = paced_pps(len(ordered), PAPER_SCAN_DURATION, PAPER_PPS)
    # Day d scans with seed 31 + d in epoch 1000 + d, clear of Fig. 5's.
    jobs = [
        (
            ordered,
            ScanConfig(pps=paced, seed=31 + day),
            f"direct-day{day}",
            1000 + day,
        )
        for day in range(days)
    ]
    with closing(runner.scan_all(jobs, telemetry=telemetry)) as scans:
        for result in scans:
            # Count a router visible only if it answered from the probed
            # address.
            report.daily_responsive.append(result.direct_echo_sources())
    return report


@dataclass(slots=True)
class StabilityReport:
    """Fig. 6b: per-epoch fate of each SRA address vs the first scan."""

    baseline: dict[int, int] = field(default_factory=dict)  # sra -> router IP
    epochs: list[dict[str, float]] = field(default_factory=list)

    def add_epoch(self, mapping: dict[int, int]) -> None:
        total = len(self.baseline)
        if total == 0:
            self.epochs.append({"same": 0.0, "changed": 0.0, "no_response": 0.0})
            return
        same = changed = missing = 0
        for sra, router_ip in self.baseline.items():
            now = mapping.get(sra)
            if now is None:
                missing += 1
            elif now == router_ip:
                same += 1
            else:
                changed += 1
        self.epochs.append(
            {
                "same": same / total,
                "changed": changed / total,
                "no_response": missing / total,
            }
        )


def run_stability(
    world: World,
    sra_targets: list[int],
    *,
    epochs: int = 6,
    seed: int = 41,
    runner: ShardedScanRunner | None = None,
    telemetry: ScanTelemetry | None = None,
) -> StabilityReport:
    """Fig. 6b: does re-probing an SRA reveal the same router IP?"""
    report = StabilityReport()
    runner = runner or ShardedScanRunner(world, shards=1)
    paced = paced_pps(len(sra_targets), PAPER_SCAN_DURATION, PAPER_PPS)
    jobs = [
        (
            sra_targets,
            ScanConfig(pps=paced, seed=seed + epoch),
            f"stability-{epoch}",
            epoch,
        )
        for epoch in range(epochs)
    ]
    with closing(runner.scan_all(jobs, telemetry=telemetry)) as scans:
        for epoch, result in enumerate(scans):
            mapping = result.target_to_source()
            if epoch == 0:
                report.baseline = mapping
            report.add_epoch(mapping)
    return report


def run_direct_discovery(
    world: World,
    router_ips: set[int],
    *,
    runner: ShardedScanRunner | None = None,
    telemetry: ScanTelemetry | None = None,
) -> set[int]:
    """One direct scan of known router addresses — the baseline for the
    "SRA discovers 80 % more than direct targeting" comparison."""
    paced = paced_pps(len(router_ips), PAPER_SCAN_DURATION, PAPER_PPS)
    result = (runner or ShardedScanRunner(world, shards=1)).scan(
        sorted(router_ips),
        ScanConfig(pps=paced, seed=53),
        name="direct",
        epoch=500,
        telemetry=telemetry,
    )
    return result.direct_echo_sources()
