"""Shared experiment context: the default world and derived artifacts.

Every table/figure experiment consumes the same world, hitlist, metadata
and (expensive) survey results; :class:`ExperimentContext` computes each
lazily and caches it, and :func:`get_context` memoises whole contexts per
(scale, seed) for the lifetime of the process — pytest benchmarks and the
CLI runner share one build.

Two scales ship by default:

* ``quick`` — a ~150-AS world with reduced probe budgets; every experiment
  finishes in seconds.  Used by the test suite.
* ``full``  — the 600-AS world with the paper-shaped budgets.  Used by the
  benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from ..analysis.comparison import SourceComparison
from ..analysis.loops import LoopAnalysis
from ..core.probing import (
    ComparisonSeries,
    StabilityReport,
    VisibilityReport,
    run_sra_vs_random,
    run_stability,
    run_visibility,
)
from ..core.survey import SRASurvey, SurveyConfig, SurveyResult
from ..datasets.caida import run_ark_campaign
from ..datasets.common import AddressDataset
from ..datasets.ixp import IXPFlowDataset, run_ixp_capture
from ..datasets.ripeatlas import run_atlas_campaign
from ..datasets.tum import harvest_hitlist, published_alias_list
from ..hitlist.aliases import AliasedPrefixList
from ..hitlist.hitlist import Hitlist
from ..metadata.asn import ASNMapper
from ..metadata.astype import ASTypeDatabase
from ..metadata.geoip import GeoIPDatabase
from ..scanner.sharded import ShardedScanRunner
from ..telemetry.scan import ScanTelemetry
from ..topology.config import WorldConfig
from ..topology.entities import World
from ..topology.generator import build_world
from .strategy_race import RaceResult, run_strategy_race


@dataclass(frozen=True, slots=True)
class ExperimentScale:
    """Probe and dataset budgets for one experiment scale."""

    name: str
    world_config: WorldConfig
    survey_config: SurveyConfig
    hitlist_stale_fraction: float = 0.65
    fig5_targets: int = 20_000
    fig5_epochs: int = 6
    stability_targets: int = 20_000
    stability_epochs: int = 6
    visibility_days: int = 7
    visibility_max_routers: int = 30_000
    ark_max_prefixes: int | None = 800
    atlas_max_targets: int = 1_500
    ixp_packets: int = 2_000_000
    ixp_sample_rate: int = 256
    race_epochs: int = 4
    race_budget: int = 25_000


def quick_scale(seed: int = 2024) -> ExperimentScale:
    return ExperimentScale(
        name="quick",
        world_config=WorldConfig(
            seed=seed,
            num_ases=150,
            num_tier1=6,
            num_tier2=30,
            mean_subnets_per_as=35.0,
            max_subnets_per_as=800,
        ),
        survey_config=SurveyConfig(
            seed=seed + 1,
            slash48_per_prefix=128,
            max_bgp_48=60_000,
            slash64_per_prefix=256,
            max_bgp_64=40_000,
            route6_per_prefix=64,
            max_route6=50_000,
            max_hitlist=30_000,
            # Every scan runs in place: no per-run world pickling, and
            # safe under pytest workers.
            parallel="serial",
        ),
        fig5_targets=8_000,
        fig5_epochs=4,
        stability_targets=8_000,
        stability_epochs=6,
        visibility_max_routers=8_000,
        ark_max_prefixes=250,
        atlas_max_targets=600,
        ixp_packets=800_000,
        ixp_sample_rate=128,
        race_epochs=3,
        race_budget=4_000,
    )


def full_scale(seed: int = 2024) -> ExperimentScale:
    return ExperimentScale(
        name="full",
        world_config=WorldConfig(seed=seed),
        survey_config=SurveyConfig(
            seed=seed + 1,
            slash48_per_prefix=192,
            max_bgp_48=250_000,
            slash64_per_prefix=512,
            max_bgp_64=150_000,
            route6_per_prefix=96,
            max_route6=200_000,
            max_hitlist=None,
            parallel="auto",
        ),
        fig5_targets=25_000,
        fig5_epochs=6,
        stability_targets=25_000,
        stability_epochs=6,
        visibility_max_routers=40_000,
        ark_max_prefixes=1_200,
        atlas_max_targets=2_500,
        ixp_packets=4_000_000,
        ixp_sample_rate=256,
    )


SCALES = {"quick": quick_scale, "full": full_scale}


@dataclass
class ExperimentContext:
    """Lazily-computed shared artifacts for one scale."""

    scale: ExperimentScale
    # Optional observability facade: set before the first campaign runs
    # (the cached runner adopts it) and every scan of every experiment
    # reports into one event stream / metrics registry.
    telemetry: "ScanTelemetry | None" = None
    _cache: dict = field(default_factory=dict, repr=False)

    # ---------------- foundations ---------------- #

    @cached_property
    def world(self) -> World:
        return build_world(self.scale.world_config)

    @cached_property
    def hitlist(self) -> Hitlist:
        return harvest_hitlist(
            self.world, stale_fraction=self.scale.hitlist_stale_fraction
        )

    @cached_property
    def alias_list(self) -> AliasedPrefixList:
        return published_alias_list(self.world)

    @cached_property
    def geo(self) -> GeoIPDatabase:
        return GeoIPDatabase.from_world(self.world)

    @cached_property
    def mapper(self) -> ASNMapper:
        return ASNMapper(self.world.bgp)

    @cached_property
    def astype(self) -> ASTypeDatabase:
        return ASTypeDatabase.from_world(self.world)

    # ---------------- campaigns ---------------- #

    @cached_property
    def runner(self) -> ShardedScanRunner:
        """The shared parallel scan executor for every campaign."""
        return ShardedScanRunner(
            self.world,
            shards=self.scale.survey_config.shards,
            executor=self.scale.survey_config.parallel,
            telemetry=self.telemetry,
            checkpoint_dir=self.scale.survey_config.checkpoint_dir,
        )

    @cached_property
    def survey(self) -> SurveyResult:
        return SRASurvey(
            self.world,
            self.hitlist,
            alias_list=self.alias_list,
            config=self.scale.survey_config,
            runner=self.runner,
        ).run()

    @cached_property
    def sra_router_ips(self) -> set[int]:
        return self.survey.all_router_ips()

    @cached_property
    def sra_dataset(self) -> AddressDataset:
        return AddressDataset(name="sra", addresses=set(self.sra_router_ips))

    @cached_property
    def hitlist_dataset(self) -> AddressDataset:
        return AddressDataset(
            name="tum-hitlist", addresses=set(self.hitlist.addresses())
        )

    @cached_property
    def hitlist_slash64_targets(self) -> list[int]:
        return self.hitlist.unique_slash64s()

    @cached_property
    def fig5_series(self) -> ComparisonSeries:
        import random

        targets = self.hitlist_slash64_targets
        if len(targets) > self.scale.fig5_targets:
            targets = random.Random(5).sample(targets, self.scale.fig5_targets)
        return run_sra_vs_random(
            self.world, targets, epochs=self.scale.fig5_epochs, runner=self.runner
        )

    @cached_property
    def stability(self) -> StabilityReport:
        import random

        targets = self.hitlist_slash64_targets
        if len(targets) > self.scale.stability_targets:
            targets = random.Random(6).sample(
                targets, self.scale.stability_targets
            )
        return run_stability(
            self.world,
            targets,
            epochs=self.scale.stability_epochs,
            runner=self.runner,
        )

    @cached_property
    def visibility(self) -> VisibilityReport:
        import random

        routers = self.sra_router_ips
        if len(routers) > self.scale.visibility_max_routers:
            routers = set(
                random.Random(7).sample(
                    sorted(routers), self.scale.visibility_max_routers
                )
            )
        return run_visibility(
            self.world,
            routers,
            days=self.scale.visibility_days,
            runner=self.runner,
        )

    @cached_property
    def ark_dataset(self) -> AddressDataset:
        return run_ark_campaign(
            self.world, max_prefixes=self.scale.ark_max_prefixes
        )

    @cached_property
    def atlas_dataset(self) -> AddressDataset:
        return run_atlas_campaign(
            self.world, self.hitlist, max_targets=self.scale.atlas_max_targets
        )

    @cached_property
    def ixp_capture(self) -> IXPFlowDataset:
        return run_ixp_capture(
            self.world,
            packets=self.scale.ixp_packets,
            sample_rate=self.scale.ixp_sample_rate,
        )

    @cached_property
    def comparison(self) -> SourceComparison:
        comparison = SourceComparison(mapper=self.mapper)
        comparison.add(self.sra_dataset)
        comparison.add(self.ixp_capture.as_dataset())
        comparison.add(self.ark_dataset)
        comparison.add(self.atlas_dataset)
        comparison.add(self.hitlist_dataset)
        return comparison

    @cached_property
    def strategy_race(self) -> RaceResult:
        """The discovery-strategy race (``sra-repro strategy-race``)."""
        config = self.scale.survey_config
        return run_strategy_race(
            self.world,
            epochs=self.scale.race_epochs,
            budget=self.scale.race_budget,
            seed=config.seed,
            pps=config.pps,
            scan_duration=config.scan_duration,
            runner=self.runner,
            telemetry=self.telemetry,
        )

    @cached_property
    def loop_analysis(self) -> LoopAnalysis:
        """Loops seen in the BGP /48 scan (the paper's §6 data source)."""
        bgp48 = self.survey.input_sets["bgp-48"]
        return LoopAnalysis.from_scans(bgp48.result)


_CONTEXTS: dict[tuple, ExperimentContext] = {}


def get_context(
    scale: str = "quick", *, seed: int = 2024, **overrides
) -> ExperimentContext:
    """Process-level memoised context (scales: 'quick', 'full').

    ``overrides`` are :class:`~repro.core.survey.SurveyConfig` fields
    replacing the scale's own (``None`` keeps the scale's value; an
    unknown name is a :class:`TypeError`, a value the config rejects a
    :class:`ValueError`).  The ones ``sra-repro`` passes:
    ``checkpoint_dir`` makes every campaign scan journal per
    (scan, epoch) there — an interrupted ``sra-repro`` run resumes from
    those journals and regenerates identical tables/figures.  ``pps``
    sets the probe rate of the survey and the strategy race; the Fig. 5/6
    re-scans keep their own.
    """
    overrides = {
        name: value for name, value in overrides.items() if value is not None
    }
    key = (scale, seed, *sorted(overrides.items()))
    if key not in _CONTEXTS:
        try:
            factory = SCALES[scale]
        except KeyError:
            raise ValueError(
                f"unknown scale {scale!r}; expected one of {sorted(SCALES)}"
            ) from None
        built = factory(seed)
        if overrides:
            built = replace(
                built,
                survey_config=replace(built.survey_config, **overrides),
            )
        _CONTEXTS[key] = ExperimentContext(scale=built)
    return _CONTEXTS[key]
