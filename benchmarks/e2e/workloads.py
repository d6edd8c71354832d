"""The four whole-campaign workloads of the end-to-end benchmark.

Each workload is a closed-loop batch job: ``setup()`` is everything a
user pays before the campaign (world build, hitlist harvest, ...),
``campaign()`` is the timed region and returns the program's raw outputs,
``check()`` turns those outputs into one SHA-256 digest per operation,
outside the timed region.  Everything is driven through public functions
of ``repro`` — nothing here reaches into the program.

Why the world is a fixture and not a function of ``--seed``: full-scale
worlds of different seeds differ by ±4 % in probes, ±7 % in probes/s and
±8 % in peak RSS (measured on seeds 1, 2, 3, 7, 2024), which is wider
than the regression bounds, so a seed-to-seed comparison would measure
the world generator's variance instead of the scanner.  The world seed is
pinned to ``WORLD_SEED``; ``--seed`` drives the campaign's own inputs —
survey seed (target sampling, permutation, loss draws), the re-scan
samples and campaign seeds, and the exported scan's epoch.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
from dataclasses import dataclass, replace
from pathlib import Path

from repro.analysis.loops import LoopAnalysis
from repro.core.probing import run_sra_vs_random, run_stability
from repro.core.survey import SRASurvey, SurveyConfig
from repro.datasets.tum import harvest_hitlist, published_alias_list
from repro.experiments.world import full_scale
from repro.scanner import cli
from repro.topology.config import WorldConfig, tiny_config
from repro.topology.generator import build_world, build_world_artifact

WORLD_SEED = 2024
SHARDS = 2


@dataclass(frozen=True)
class Scale:
    """World and budgets of one benchmark scale."""

    name: str
    world_config: WorldConfig
    survey_config: SurveyConfig
    hitlist_stale_fraction: float
    rescan_targets: int
    rescan_epochs: int
    cli_world: str  # the ``sra-scan --world`` value building ``world_config``
    progress_every: int


def _full() -> Scale:
    scale = full_scale(WORLD_SEED)
    return Scale(
        name="full",
        world_config=scale.world_config,
        survey_config=scale.survey_config,
        hitlist_stale_fraction=scale.hitlist_stale_fraction,
        # 8,000 targets per scan (the quick scale's fig5_targets) fit the
        # 8,192-block LPM caches: this is what makes rescan_hot "hot".
        rescan_targets=8_000,
        rescan_epochs=72,
        cli_world="default",
        progress_every=10_000,
    )


def _smoke() -> Scale:
    return Scale(
        name="smoke",
        world_config=tiny_config(WORLD_SEED),
        survey_config=SurveyConfig(
            slash48_per_prefix=8,
            max_bgp_48=1_500,
            slash64_per_prefix=8,
            max_bgp_64=1_000,
            route6_per_prefix=4,
            max_route6=1_000,
            max_hitlist=1_500,
        ),
        hitlist_stale_fraction=0.65,
        rescan_targets=300,
        rescan_epochs=3,
        cli_world="tiny",
        progress_every=500,
    )


SCALES = {"full": _full, "smoke": _smoke}


@dataclass
class Checked:
    """What ``check()`` extracts from one campaign's outputs."""

    probes: int
    # Operation name -> digest of its output; an operation is one scan
    # (or one ``cli.main`` call).  ``weights`` says how many scans a
    # digest stands for when one digest covers several (rescan epochs).
    digests: dict[str, str]
    weights: dict[str, int]
    # Operations that failed on their own account (non-zero exit,
    # faulted probes), before any digest comparison.
    failed: set[str]


def _sha(*parts: object) -> "hashlib._Hash":
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
    return digest


def _records_digest(records, *extra: object) -> str:
    digest = _sha(*extra)
    for r in records:
        digest.update(
            b"%d,%d,%d,%d,%d,%r\n"
            % (r.target, r.source, r.icmp_type, r.code, r.count, r.time)
        )
    return digest.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """Base: holds the scale, the campaign seed and a scratch directory."""

    name = ""

    def __init__(self, scale: Scale, seed: int, workdir: Path) -> None:
        self.scale = scale
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def campaign(self):
        raise NotImplementedError

    def check(self, raw) -> Checked:
        raise NotImplementedError


def input_set_digest(input_set, *extra: object) -> str:
    """Records of one input-set scan plus its Table 2 row."""
    row = (
        input_set.name,
        input_set.targets,
        input_set.responsive_targets,
        input_set.replies,
        len(input_set.router_ips),
        input_set.reply_rate,
        input_set.discovery_rate,
    )
    return _records_digest(input_set.result.records, row, *extra)


class SurveySerial(Workload):
    """Table 2 / Fig. 4 survey plus the Fig. 8 loop hunt, one core."""

    name = "survey_serial"
    shards = 1
    parallel = "serial"

    def _build_world(self):
        return build_world(self.scale.world_config)

    def setup(self) -> None:
        self.world = self._build_world()
        self.hitlist = harvest_hitlist(
            self.world, stale_fraction=self.scale.hitlist_stale_fraction
        )
        self.alias_list = published_alias_list(self.world)

    def survey(self, shards: int, parallel: str) -> SRASurvey:
        config = replace(
            self.scale.survey_config,
            seed=self.seed + 1,
            shards=shards,
            parallel=parallel,
        )
        return SRASurvey(
            self.world, self.hitlist, alias_list=self.alias_list, config=config
        )

    def campaign(self):
        survey = self.survey(self.shards, self.parallel)
        result = survey.run()
        loops = LoopAnalysis.from_scans(result.input_sets["bgp-48"].result)
        return survey, result, loops

    def check(self, raw) -> Checked:
        _, result, loops = raw
        digests = {}
        failed = set()
        for name, input_set in result.input_sets.items():
            extra = ()
            if name == "bgp-48":
                extra = (
                    sorted(loops.looping_slash48s),
                    sorted(loops.looping_routers),
                )
            digests[name] = input_set_digest(input_set, *extra)
            scan = input_set.result
            if scan.faulted_probes or scan.sent != input_set.targets:
                failed.add(name)
        return Checked(
            probes=sum(s.result.sent for s in result.input_sets.values()),
            digests=digests,
            weights=dict.fromkeys(digests, 1),
            failed=failed,
        )


class SurveySharded(SurveySerial):
    """The same survey on an artifact-backed world, two process shards."""

    name = "survey_sharded"
    shards = SHARDS
    parallel = "process"
    # The two input sets cheap enough to scan again serially as a check.
    CHEAP_SETS = ("bgp-plain", "bgp-64")

    def _build_world(self):
        return build_world_artifact(
            self.scale.world_config, self.workdir / "world.bin"
        )

    def serial_digests(self) -> dict[str, str]:
        """``CHEAP_SETS`` scanned on one core, on the same world: what
        the merged shards must equal when no digest is pinned."""
        survey = self.survey(1, "serial")
        streams = survey.build_input_sets()
        return {
            name: input_set_digest(survey.run_input_set(name, streams[name]))
            for name in self.CHEAP_SETS
        }


class RescanHot(Workload):
    """Fig. 5 + Fig. 6b: many short scans over a cache-sized window."""

    name = "rescan_hot"

    def setup(self) -> None:
        self.world = build_world(self.scale.world_config)
        hitlist = harvest_hitlist(
            self.world, stale_fraction=self.scale.hitlist_stale_fraction
        )
        slash64s = hitlist.unique_slash64s()
        size = min(self.scale.rescan_targets, len(slash64s))
        self.fig5_targets = random.Random(self.seed * 16 + 5).sample(slash64s, size)
        self.fig6_targets = random.Random(self.seed * 16 + 6).sample(slash64s, size)

    def campaign(self):
        epochs = self.scale.rescan_epochs
        series = run_sra_vs_random(
            self.world, self.fig5_targets, epochs=epochs, seed=self.seed + 23
        )
        stability = run_stability(
            self.world, self.fig6_targets, epochs=epochs, seed=self.seed + 41
        )
        return series, stability

    def check(self, raw) -> Checked:
        series, stability = raw
        digests = {}
        failed = set()
        probes = len(self.fig6_targets) * len(stability.epochs)
        for sra, rnd, stable in zip(series.sra, series.random, stability.epochs):
            name = f"epoch{sra.epoch}"
            digests[name] = _sha(
                sorted(sra.router_ips),
                sorted(rnd.router_ips),
                sorted(stable.items()),
            ).hexdigest()
            probes += sra.result.sent + rnd.result.sent
            for scan in (sra.result, rnd.result):
                if scan.faulted_probes or scan.sent != len(self.fig5_targets):
                    failed.add(name)
        # One digest stands for the epoch's three scans (SRA, random,
        # stability).
        return Checked(
            probes=probes,
            digests=digests,
            weights=dict.fromkeys(digests, 3),
            failed=failed,
        )


class ScanExport(Workload):
    """The operator path: ``sra-scan`` streaming a hitlist scan to disk
    with telemetry, checkpoint journal and the resilient transport on."""

    name = "scan_export"
    telemetry = True
    OUTPUTS = ("records.jsonl", "records.csv", "telemetry.jsonl", "metrics.prom")

    def setup(self) -> None:
        self.artifact = self.workdir / "world.bin"
        build_world_artifact(self.scale.world_config, self.artifact)

    def argv(self) -> list[str]:
        out = self.workdir
        argv = [
            "--world", self.scale.cli_world,
            "--seed", str(WORLD_SEED),
            "--world-artifact", str(self.artifact),
            "--input-set", "hitlist-64",
            # ``sra-scan --seed`` is the world seed, so the campaign seed
            # picks the scan epoch (0..5, the paper's six re-scans).
            "--epoch", str(self.seed % 6),
            "--shards", "1",
            "--parallel", "serial",
            "--no-alias-filter",
            "--stream-records",
            "--jsonl", str(out / "records.jsonl"),
            "--output", str(out / "records.csv"),
            "--checkpoint", str(out / "scan.ckpt"),
            "--backend-retries", "2",
            "--summary",
        ]  # fmt: skip
        if self.telemetry:
            argv += [
                "--telemetry-out", str(out / "telemetry.jsonl"),
                "--metrics-out", str(out / "metrics.prom"),
                "--progress-every", str(self.scale.progress_every),
            ]  # fmt: skip
        else:
            argv += ["--progress-every", "0"]
        return argv

    def campaign(self):
        summary = io.StringIO()
        with contextlib.redirect_stdout(summary):
            code = cli.main(self.argv())
        return code, summary.getvalue()

    def check(self, raw) -> Checked:
        code, summary = raw
        targets = re.search(r"\((\d+) targets\)", summary)
        replies = re.search(r"replies +: (\d+)", summary)
        outputs = [
            name
            for name in self.OUTPUTS
            if self.telemetry or name.startswith("records")
        ]
        digest = _sha(*(file_digest(self.workdir / name) for name in outputs))
        return Checked(
            probes=int(targets.group(1)) if targets else 0,
            digests={"sra-scan": digest.hexdigest()},
            weights={"sra-scan": 1},
            failed=set() if code == 0 and self._rows_agree(replies) else {"sra-scan"},
        )

    def _rows_agree(self, replies) -> bool:
        """Both record files hold exactly the replies the summary counts."""
        if replies is None:
            return False
        jsonl = (self.workdir / "records.jsonl").read_bytes().count(b"\n")
        csv = (self.workdir / "records.csv").read_bytes().count(b"\n") - 1
        return jsonl == csv == int(replies.group(1))


class ScanExportQuiet(ScanExport):
    """``scan_export`` without the telemetry flags: the reference run
    behind ``telemetry.scan.overhead_s``; not a benchmark workload."""

    name = "scan_export_quiet"
    telemetry = False


WORKLOADS = {
    cls.name: cls
    for cls in (SurveySerial, SurveySharded, RescanHot, ScanExport, ScanExportQuiet)
}
