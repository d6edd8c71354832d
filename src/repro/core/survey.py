"""The SRA survey: the paper's measurement campaign, end to end.

``SRASurvey`` reproduces §3/§4: build the five input sets (BGP plain,
BGP /48, BGP /64, Route(6) /64, Hitlist /64), scan each through the
ZMapv6-style scanner, apply the alias filter, and aggregate per-input-set
effectiveness (Table 2) plus the Fig. 4 echo/error/both classification.
"""

from __future__ import annotations

import random
from contextlib import closing
from dataclasses import dataclass, field

from ..hitlist.aliases import AliasedPrefixList
from ..hitlist.hitlist import Hitlist
from ..scanner.pacing import PAPER_PPS, PAPER_SCAN_DURATION, paced_pps
from ..scanner.records import ScanResult
from ..scanner.sharded import EXECUTORS, ShardedScanRunner
from ..scanner.stream import LazyStream, TargetStream
from ..scanner.targets import (
    bgp_plain_targets,
    bgp_slash48_targets,
    bgp_slash64_targets,
    hitlist_slash64_targets,
    route6_slash64_targets,
)
from ..scanner.zmapv6 import ScanConfig
from ..telemetry.scan import ScanTelemetry
from ..topology.entities import World
from .aliasfilter import AliasFilterStats, filter_aliased

INPUT_SET_NAMES = ("bgp-plain", "bgp-48", "bgp-64", "route6-64", "hitlist-64")

# Input sets whose construction draws from the survey's shared RNG, in the
# order the eager build consumed it.  The stream chain must realise them in
# exactly this order for the sampled targets to match the eager build.
_RNG_SET_ORDER = ("bgp-48", "bgp-64", "route6-64")

# The prefix length each input set's targets are the SRA addresses of.
SUBNET_LENGTHS = {
    "bgp-plain": None,
    "bgp-48": 48,
    "bgp-64": 64,
    "route6-64": 64,
    "hitlist-64": 64,
}


@dataclass(slots=True)
class SurveyConfig:
    """Budgets and scanner parameters for a full survey run.

    The paper probes 28.2 B addresses; the budgets scale each input set to
    simulator size while keeping their *relative* magnitudes (hitlist ≪
    artificial partitions).  Batch size, backend and retry policy are
    not fields: no output byte depends on them, so survey scans run
    :class:`ScanConfig`'s defaults (``sra-scan`` sets them for one scan).
    """

    seed: int = 11
    pps: float = PAPER_PPS
    # Virtual scan duration per input set (scanner/pacing.py says why).
    scan_duration: float = PAPER_SCAN_DURATION
    hop_limit: int = 64
    max_bgp_plain: int | None = None
    slash48_per_prefix: int = 192
    max_bgp_48: int | None = 250_000
    slash64_per_prefix: int = 512
    max_bgp_64: int | None = 150_000
    route6_per_prefix: int = 96
    max_route6: int | None = 200_000
    max_hitlist: int | None = None
    apply_alias_filter: bool = True
    # Parallel scan execution: number of zmap-style shards each input-set
    # scan is split into, and the executor kind ("auto", "process",
    # "serial").  Sharded merges are deterministic, so these knobs change
    # wall-clock time only, never results.
    shards: int = 1
    parallel: str = "auto"
    # Per-scan probe cadence of telemetry `progress` events (0 = none).
    progress_every: int = 0
    # A directory for per-(scan, epoch) checkpoint journals: a journal
    # left there by an interrupted run auto-resumes and finishes
    # byte-identically.
    checkpoint_dir: str | None = None

    def __post_init__(self) -> None:
        if not self.pps > 0:
            raise ValueError(f"pps must be positive, got {self.pps}")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.parallel not in EXECUTORS:
            raise ValueError(f"parallel must be one of {'/'.join(EXECUTORS)}")


def _input_set_factories(
    world: World, config: SurveyConfig, rng: random.Random
) -> dict[str, object]:
    """Zero-arg builders for the world-derived input sets.

    The RNG-consuming factories must run in :data:`_RNG_SET_ORDER` to
    reproduce the eager build's draws.
    """
    return {
        "bgp-plain": lambda: bgp_plain_targets(
            world.bgp, max_targets=config.max_bgp_plain
        ),
        "bgp-48": lambda: bgp_slash48_targets(
            world.bgp,
            max_per_prefix=config.slash48_per_prefix,
            max_targets=config.max_bgp_48,
            rng=rng,
        ),
        "bgp-64": lambda: bgp_slash64_targets(
            world.bgp,
            max_per_prefix=config.slash64_per_prefix,
            max_targets=config.max_bgp_64,
            rng=rng,
        ),
        "route6-64": lambda: route6_slash64_targets(
            world.irr,
            per_prefix=config.route6_per_prefix,
            max_targets=config.max_route6,
            rng=rng,
        ),
    }


@dataclass(slots=True)
class InputSetResult:
    """Outcome of scanning one input set (one row of Table 2)."""

    name: str
    targets: int
    result: ScanResult
    alias_stats: AliasFilterStats | None = None

    @property
    def replies(self) -> int:
        return self.result.received

    @property
    def responsive_targets(self) -> int:
        return self.result.responsive_targets

    @property
    def router_ips(self) -> set[int]:
        return self.result.sources()

    @property
    def reply_rate(self) -> float:
        return self.responsive_targets / self.targets if self.targets else 0.0

    @property
    def discovery_rate(self) -> float:
        """Distinct router IPs per probed address."""
        return len(self.router_ips) / self.targets if self.targets else 0.0

    def response_type_shares(self) -> dict[str, float]:
        """Echo/error/both shares of replying router IPs (Fig. 4)."""
        classes = self.result.classify_sources()
        total = sum(len(v) for v in classes.values())
        if total == 0:
            return {"echo": 0.0, "error": 0.0, "both": 0.0}
        return {name: len(v) / total for name, v in classes.items()}


@dataclass(slots=True)
class SurveyResult:
    """All input-set results plus survey-wide aggregates."""

    input_sets: dict[str, InputSetResult] = field(default_factory=dict)

    @property
    def total_targets(self) -> int:
        return sum(r.targets for r in self.input_sets.values())

    @property
    def total_replies(self) -> int:
        return sum(r.replies for r in self.input_sets.values())

    def all_router_ips(self) -> set[int]:
        distinct: set[int] = set()
        for result in self.input_sets.values():
            distinct |= result.router_ips
        return distinct

    def table2_rows(self) -> list[dict[str, object]]:
        """The Table 2 rows: source, targets, replies, router IPs, rates."""
        rows = []
        for name in INPUT_SET_NAMES:
            result = self.input_sets.get(name)
            if result is None:
                continue
            rows.append(
                {
                    "source": name,
                    "addresses": result.targets,
                    "responsive": result.responsive_targets,
                    "replies": result.replies,
                    "reply_rate": result.reply_rate,
                    "router_ips": len(result.router_ips),
                    "discovery_rate": result.discovery_rate,
                }
            )
        rows.append(
            {
                "source": "total",
                "addresses": self.total_targets,
                "responsive": sum(
                    r.responsive_targets for r in self.input_sets.values()
                ),
                "replies": self.total_replies,
                "reply_rate": 0.0,
                "router_ips": len(self.all_router_ips()),
                "discovery_rate": 0.0,
            }
        )
        return rows


class SRASurvey:
    """Build input sets from a world and run the full campaign."""

    def __init__(
        self,
        world: World,
        hitlist: Hitlist,
        *,
        alias_list: AliasedPrefixList | None = None,
        config: SurveyConfig | None = None,
        runner: ShardedScanRunner | None = None,
        telemetry: ScanTelemetry | None = None,
    ) -> None:
        self.world = world
        self.hitlist = hitlist
        self.alias_list = alias_list
        self.config = config or SurveyConfig()
        self.telemetry = telemetry
        self.runner = runner or ShardedScanRunner(
            world,
            shards=self.config.shards,
            executor=self.config.parallel,
            checkpoint_dir=self.config.checkpoint_dir,
        )

    # ---------------- input sets ---------------- #

    def build_input_sets(self) -> dict[str, LazyStream]:
        """The five Table 2 input sets as lazy streams under the budgets.

        Nothing is generated until a set is first touched, and
        :meth:`run` releases each stream's buffer after scanning it, so
        the five sets never co-reside in memory.  The RNG-consuming sets
        are ``after``-chained in build order: whichever is touched first,
        its predecessors realise (and consume their shared-RNG draws)
        first, so every sampled target matches the old eager build.
        """
        config = self.config
        rng = random.Random(config.seed)
        factories = _input_set_factories(self.world, config, rng)
        streams: dict[str, LazyStream] = {}
        previous: LazyStream | None = None
        for name, factory in factories.items():
            stream = LazyStream(
                factory,
                name=name,
                subnet_length=SUBNET_LENGTHS[name],
                after=previous if name in _RNG_SET_ORDER else None,
            )
            if name in _RNG_SET_ORDER:
                previous = stream
            streams[name] = stream
        streams["hitlist-64"] = LazyStream(
            lambda: hitlist_slash64_targets(
                self.hitlist, max_targets=self.config.max_hitlist
            ),
            name="hitlist-64",
            subnet_length=SUBNET_LENGTHS["hitlist-64"],
        )
        return streams

    # ---------------- running ---------------- #

    def scan_config(self, targets: TargetStream) -> ScanConfig:
        """The scan configuration of one input set, paced by its size."""
        return ScanConfig(
            pps=paced_pps(len(targets), self.config.scan_duration, self.config.pps),
            hop_limit=self.config.hop_limit,
            seed=self.config.seed,
            progress_every=self.config.progress_every,
        )

    def run_input_set(
        self, name: str, targets: TargetStream, *, epoch: int = 0
    ) -> InputSetResult:
        config = self.scan_config(targets)
        raw = self.runner.scan(
            targets, config, name=name, epoch=epoch, telemetry=self.telemetry
        )
        return self._set_result(name, targets, raw)

    def _set_result(
        self, name: str, targets: TargetStream, raw: ScanResult
    ) -> InputSetResult:
        """One input set's row from its raw scan, alias-filtered."""
        alias_stats: AliasFilterStats | None = None
        if self.config.apply_alias_filter:
            raw, alias_stats = filter_aliased(raw, self.alias_list)
        return InputSetResult(
            name=name,
            targets=len(targets),
            result=raw,
            alias_stats=alias_stats,
        )

    def run(self) -> SurveyResult:
        """Scan all five input sets, in epoch 0, and aggregate."""
        return self.run_repeated(1)[0]

    def run_repeated(self, times: int = 2) -> list[SurveyResult]:
        """Run the whole survey ``times`` times, in epochs ``0..times-1``.

        The paper performs each scan at least twice (§3.2); the *final*
        router-IP list is compiled from the initial scan of each input
        source, with the repetitions quantifying run-to-run variation —
        see :func:`survey_repetition_overlap`.

        Every scan goes through one ``runner.scan_all``, so on a process
        pool the next input sets scan while the parent merges this one.
        A set is realised when its first scan starts, never up front, and
        released after its last.
        """
        if times < 1:
            raise ValueError("times must be >= 1")
        epochs = range(times)
        streams = self.build_input_sets()
        jobs = [
            (targets, self.scan_config, name, epoch)
            for epoch in epochs
            for name, targets in streams.items()
        ]
        results = {epoch: SurveyResult() for epoch in epochs}
        # closing: a failure here joins the pool and unlinks the frames of
        # the jobs submitted ahead now, not whenever the frame is collected.
        with closing(self.runner.scan_all(jobs, telemetry=self.telemetry)) as scans:
            for (targets, _, name, epoch), raw in zip(jobs, scans, strict=True):
                results[epoch].input_sets[name] = self._set_result(name, targets, raw)
                if epoch == epochs[-1]:
                    targets.release()
        return list(results.values())


def survey_repetition_overlap(results: list[SurveyResult]) -> dict[str, float]:
    """Per input set, the overlap of router IPs between the first and the
    subsequent survey repetitions (|intersection| / |first|)."""
    if not results:
        return {}
    first = results[0]
    overlaps: dict[str, float] = {}
    for name, result in first.input_sets.items():
        base = result.router_ips
        if not base:
            overlaps[name] = 0.0
            continue
        shared = set(base)
        for repetition in results[1:]:
            other = repetition.input_sets.get(name)
            if other is not None:
                shared &= other.router_ips
        overlaps[name] = len(shared) / len(base)
    return overlaps
