"""Scans and the cyclic collector.

``ShardedScanRunner.scan`` runs with the collector paused: a scan
allocates long-lived objects that form no cycles, and every full
collection would re-walk them.  The pause is only safe if scans leave
(next to) nothing for the collector, and if it hands back the state it
found, however the scan ends.  A loaded artifact world must be freed by
refcount alone, not left behind as cyclic garbage.
"""

import gc
import os
import random
from collections import Counter
from contextlib import nullcontext

import pytest
from faults import ChaosEngine, FaultPlan, injected

from repro.core.survey import SRASurvey, SurveyConfig
from repro.datasets.tum import harvest_hitlist, published_alias_list
from repro.netsim.engine import SimulationEngine
from repro.scanner import cli
from repro.scanner import sharded as sharded_module
from repro.scanner.backends.resilient import RetryPolicy
from repro.scanner.sharded import (
    ScanInterrupted,
    ShardedScanRunner,
    ShardFailedError,
)
from repro.scanner.stream import CsvSink, JsonlSink, TeeSink
from repro.scanner.targets import bgp_slash48_targets
from repro.scanner.zmapv6 import ScanConfig, ZMapV6Scanner
from repro.telemetry.scan import ScanTelemetry
from repro.topology import artifact as artifact_module
from repro.topology.artifact import load_world_artifact
from repro.topology.config import tiny_config
from repro.topology.generator import build_world_artifact

CONFIG = ScanConfig(pps=200_000.0, seed=5)

# A scan in this process may leave a stray small cycle (an exception and
# its traceback, say), but never one per probe, record, shard or decoded
# entity: these scans send 4,000 probes and decode thousands of entities,
# so any such leak overshoots this bound many times over.  They leave 0.
SCAN_GARBAGE_BOUND = 16


@pytest.fixture(autouse=True)
def restore_collector():
    enabled = gc.isenabled()
    yield
    gc.set_debug(0)
    gc.garbage.clear()
    (gc.enable if enabled else gc.disable)()


def cyclic_garbage(action) -> list:
    """What the collector finds unreachable after ``action`` runs with it
    off (everything it would have reclaimed, kept by DEBUG_SAVEALL)."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        action()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.fixture(scope="module")
def artifact_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("collector") / "tiny.sraw"
    build_world_artifact(tiny_config(seed=3), path)
    return path


@pytest.fixture(scope="module")
def world(artifact_path):
    return load_world_artifact(artifact_path)


@pytest.fixture(scope="module")
def targets(world):
    return list(
        bgp_slash48_targets(world.bgp, max_targets=4_000, rng=random.Random(1))
    )


def test_a_dropped_artifact_world_is_freed_by_refcount(artifact_path):
    """Load, harvest and probe a world, then drop it: nothing of it is
    left for the collector (a second load of a path drops the first)."""

    def use_and_drop():
        world = load_world_artifact(artifact_path)
        harvest_hitlist(world, seed=97)
        targets = bgp_slash48_targets(
            world.bgp, max_targets=2_000, rng=random.Random(1)
        )
        ZMapV6Scanner(SimulationEngine(world), CONFIG).scan(targets)
        del world
        load_world_artifact(artifact_path)

    kinds = Counter(type(item).__name__ for item in cyclic_garbage(use_and_drop))
    assert {name: kinds[name] for name in ("World", "Subnet", "ResolutionEntry")} == {
        "World": 0,
        "Subnet": 0,
        "ResolutionEntry": 0,
    }


def in_place(world, targets, tmp_path):
    ShardedScanRunner(world, shards=1, executor="serial").scan(targets, CONFIG)


def export(world, targets, tmp_path):
    """``scan_export``'s shape: one shard with a journal, the resilient
    backend, the CSV and JSONL sinks and telemetry."""
    telemetry = ScanTelemetry()
    runner = ShardedScanRunner(world, shards=1, executor="serial", telemetry=telemetry)
    config = ScanConfig(
        pps=200_000.0,
        seed=5,
        progress_every=500,
        retry_policy=RetryPolicy.from_knobs(2, None, None),
    )
    checkpoint = tmp_path / "scan.ckpt"
    checkpoint.unlink(missing_ok=True)
    sink = TeeSink((CsvSink(tmp_path / "r.csv"), JsonlSink(tmp_path / "r.jsonl")))
    with sink:
        runner.scan(targets, config, name="export", sink=sink, checkpoint=checkpoint)
    telemetry.write_jsonl(tmp_path / "telemetry.jsonl")
    telemetry.write_prometheus(tmp_path / "metrics.prom")


def serial_shards(world, targets, tmp_path):
    """Two shards and the rate-limit replay that merges them."""
    ShardedScanRunner(world, shards=2, executor="serial").scan(targets, CONFIG)


@pytest.mark.parametrize("shape", [in_place, export, serial_shards])
def test_a_scan_leaves_nothing_to_collect(world, targets, tmp_path, shape):
    shape(world, targets, tmp_path)  # decode what the scan touches first
    garbage = cyclic_garbage(lambda: shape(world, targets, tmp_path))
    assert len(garbage) < SCAN_GARBAGE_BOUND, Counter(map(type, garbage))


def test_a_pooled_survey_leaves_only_the_pool(world):
    """The survey's ``scan_all`` on a process pool of two shards: the
    campaign unbinds its two closures, which name each other and hold
    the pool, so the pool is freed by refcount too."""
    hitlist = harvest_hitlist(world, seed=97)
    aliases = published_alias_list(world, seed=101)
    config = SurveyConfig(
        seed=11,
        max_bgp_48=2_000,
        max_bgp_64=2_000,
        max_route6=2_000,
        max_hitlist=2_000,
        shards=2,
        parallel="process",
    )
    survey = SRASurvey(
        world, hitlist, alias_list=aliases, config=config, telemetry=ScanTelemetry()
    )
    garbage = cyclic_garbage(survey.run)
    assert len(garbage) < SCAN_GARBAGE_BOUND, Counter(map(type, garbage))


class TestPause:
    """The scan runs with the collector off and restores what it found."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "plan, error",
        [
            (None, None),
            (FaultPlan(crash_shard=1, crash_at_probe=10), ShardFailedError),
            (FaultPlan(interrupt_after_shards=1), ScanInterrupted),
        ],
        ids=["returns", "shard-failed", "interrupted"],
    )
    def test_state_is_restored(self, world, targets, enabled, plan, error):
        runner = ShardedScanRunner(world, shards=2, executor="serial")
        armed = injected(ChaosEngine(plan=plan)) if plan is not None else nullcontext()
        (gc.enable if enabled else gc.disable)()
        if error is None:
            runner.scan(targets, CONFIG)
        else:
            with pytest.raises(error), armed:
                runner.scan(targets, CONFIG)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("shards", [1, 2])
    def test_the_scan_runs_paused(self, world, targets, monkeypatch, shards):
        seen = []
        real = sharded_module.ZMapV6Scanner.scan

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(sharded_module.ZMapV6Scanner, "scan", spy)
        gc.enable()
        ShardedScanRunner(world, shards=shards, executor="serial").scan(
            targets, CONFIG
        )
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_a_campaign_leaves_the_collector_on(self, world, targets):
        """``scan_all`` calls ``scan`` for each job: on between results
        and after the last."""
        gc.enable()
        runner = ShardedScanRunner(world, shards=2, executor="serial")
        jobs = [(targets, CONFIG, "a", 0), (targets, CONFIG, "b", 1)]
        between = [gc.isenabled() for _ in runner.scan_all(jobs)]
        assert between == [True, True]
        assert gc.isenabled()

    def test_a_pool_opened_paused_collects(self, world):
        """A worker forked inside a paused scan (as ``_scan_shards``'
        retry pool is) runs with the collector on."""
        with sharded_module._collector_paused():
            pool = sharded_module._open_pool(world, 1, ())
            try:
                assert pool.submit(gc.isenabled).result()
            finally:
                pool.shutdown()
            assert not gc.isenabled()


def _interrupted(*args, **kwargs):
    raise ScanInterrupted(None, 0, 1)


def _broken(*args, **kwargs):
    raise RuntimeError("target generation failed")


class TestCliPause:
    """``sra-scan`` runs its whole simulated job paused: world load,
    harvest, target generation, the scan and its mode's own work.  What
    the job keeps then moves to the oldest generation, unwalked."""

    def argv(self, artifact_path, *extra):
        return [
            "--world", "tiny",
            "--seed", "3",
            "--world-artifact", str(artifact_path),
            "--input-set", "hitlist-64",
            "--max-targets", "2000",
            *extra,
        ]  # fmt: skip

    def test_the_harvest_runs_paused(self, artifact_path, monkeypatch, capsys):
        seen = []
        real = cli.harvest_hitlist

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "harvest_hitlist", spy)
        gc.enable()
        assert cli.main(self.argv(artifact_path)) == 0
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "extra, patch, outcome",
        [
            ((), None, 0),
            (("--max-targets", "0"), None, 1),
            (("--checkpoint", "{bad}", "--resume"), None, 4),
            ((), (cli.ShardedScanRunner, "scan", _interrupted), 5),
            ((), (cli, "build_targets", _broken), RuntimeError),
        ],
        ids=["exit-0", "exit-1", "exit-4", "exit-5", "raises"],
    )
    def test_state_is_restored(
        self, artifact_path, tmp_path, monkeypatch, capsys, enabled, extra, patch, outcome
    ):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"SRACKPT\n" + b"\x00" * 4)
        if patch is not None:
            monkeypatch.setattr(*patch)
        argv = self.argv(artifact_path, *(arg.format(bad=bad) for arg in extra))
        (gc.enable if enabled else gc.disable)()
        if isinstance(outcome, int):
            assert cli.main(argv) == outcome
        else:
            with pytest.raises(outcome):
                cli.main(argv)
        assert gc.isenabled() is enabled

    def test_what_the_job_keeps_skips_the_young_collections(
        self, artifact_path, capsys
    ):
        """The subnets the scan decoded sit in the oldest generation when
        ``main`` returns: no young collection walked them on the way."""
        gc.enable()
        assert cli.main(self.argv(artifact_path)) == 0
        world = artifact_module._RESOLVED[str(artifact_path)]
        decoded = list(dict.values(world.subnets))
        assert decoded
        oldest = {id(item) for item in gc.get_objects(generation=2)}
        assert all(id(subnet) in oldest for subnet in decoded)

    def test_what_a_caller_froze_stays_frozen(self, artifact_path, capsys):
        held = [[]]
        gc.freeze()
        try:
            assert cli.main(self.argv(artifact_path)) == 0
            assert not any(item is held for item in gc.get_objects())
        finally:
            gc.unfreeze()
        assert any(item is held for item in gc.get_objects())

    def test_a_run_leaves_no_cyclic_garbage(self, artifact_path, capsys):
        """``main`` leaves nothing for the collector: the job makes no
        cycles, and the argument parser (whose help formatters do) is
        built once per process, not per run."""
        cli._parser()
        argv = self.argv(artifact_path, "--output", os.devnull)
        assert cyclic_garbage(lambda: cli.main(argv)) == []
