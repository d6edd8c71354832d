"""Sharded parallel scan execution: partitioning, merge, determinism."""

import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import pytest
from faults import ChaosEngine, CrashingSequence, FaultPlan, InjectedCrash, injected

from repro.core.survey import SRASurvey, SurveyConfig, SurveyResult
from repro.datasets.tum import harvest_hitlist, published_alias_list
from repro.netsim.engine import EngineStats, SimulationEngine
from repro.scanner.pacing import paced_pps
from repro.scanner.records import (
    ScanRecord,
    ScanResult,
    merge_engine_stats,
    merge_results,
)
from repro.scanner.sharded import (
    ScanInterrupted,
    ScanOrderError,
    ShardedScanRunner,
    ShardFailedError,
    auto_shard_count,
    merge_shard_outcomes,
    scan_shard,
)
from repro.scanner import sharded as sharded_module
from repro.scanner.stream import (
    IndexWindow,
    LazyStream,
    MemorySink,
    SubnetPartitionStream,
    shard_positions,
)
from repro.scanner.targets import (
    TargetList,
    bgp_plain_targets,
    bgp_slash48_targets,
)
from repro.scanner.zmapv6 import ScanConfig, ZMapV6Scanner
from repro.telemetry.scan import ScanTelemetry


@pytest.fixture(scope="module")
def stress_targets(tiny_world):
    """Targets that exercise every stateful engine path: enough error
    traffic to saturate RFC 4443 buckets, plus loop-region addresses."""
    targets = list(
        bgp_slash48_targets(
            tiny_world.bgp,
            max_per_prefix=16,
            max_targets=2_500,
            rng=random.Random(0),
        )
    )
    region = tiny_world.loop_regions[0]
    targets.extend(region.prefix.network | offset for offset in range(1, 40))
    return targets


def serial_scan(world, targets, *, epoch, pps=200_000.0, seed=5):
    engine = SimulationEngine(world, epoch=epoch)
    scanner = ZMapV6Scanner(engine, ScanConfig(pps=pps, seed=seed))
    return scanner.scan(targets, name="scan", epoch=epoch)


class TestShardPartitioning:
    """Per-shard index streams are pairwise disjoint and cover range(size)."""

    @pytest.mark.parametrize("permute", [True, False])
    @pytest.mark.parametrize(
        "size,shards", [(1, 2), (10, 3), (97, 4), (256, 2), (500, 7)]
    )
    def test_disjoint_cover(self, tiny_world, size, shards, permute):
        streams = []
        for shard in range(shards):
            engine = SimulationEngine(tiny_world, epoch=0)
            scanner = ZMapV6Scanner(
                engine,
                ScanConfig(
                    pps=1000, seed=9, shard=shard, shards=shards, permute=permute
                ),
            )
            streams.append(list(scanner._probe_window(size)[1]))
        seen = set()
        for stream in streams:
            as_set = set(stream)
            assert len(as_set) == len(stream)  # no duplicates within a shard
            assert not (as_set & seen)  # pairwise disjoint
            seen |= as_set
        assert seen == set(range(size))  # union is exactly the index space

    def test_positions_interleave_serial_order(self, tiny_world):
        """Concatenating shard streams by global position reproduces the
        serial visit order exactly."""
        size, shards = 200, 3
        serial_engine = SimulationEngine(tiny_world, epoch=0)
        serial = list(
            zip(
                *ZMapV6Scanner(
                    serial_engine, ScanConfig(pps=1000, seed=9)
                )._probe_window(size)
            )
        )
        sharded = []
        for shard in range(shards):
            engine = SimulationEngine(tiny_world, epoch=0)
            scanner = ZMapV6Scanner(
                engine, ScanConfig(pps=1000, seed=9, shard=shard, shards=shards)
            )
            sharded.extend(zip(*scanner._probe_window(size)))
        assert sorted(sharded) == serial


class TestScanConfigValidation:
    def test_zero_shards_has_its_own_error(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            ScanConfig(shards=0)

    def test_negative_shards(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            ScanConfig(shards=-3)

    def test_shard_range_still_checked(self):
        with pytest.raises(ValueError, match=r"shard must be in \[0, shards\)"):
            ScanConfig(shard=2, shards=2)


class TestPacedPps:
    def test_caps_at_ceiling(self):
        assert paced_pps(10**9, 6.0, 50_000.0) == 50_000.0

    def test_floors_at_minimum(self):
        assert paced_pps(10, 6.0, 50_000.0) == 100.0

    def test_zero_duration_disables_pacing(self):
        assert paced_pps(1000, 0.0, 50_000.0) == 50_000.0
        assert paced_pps(1000, -1.0, 50_000.0) == 50_000.0

    def test_no_targets_disables_pacing(self):
        assert paced_pps(0, 6.0, 50_000.0) == 50_000.0

    def test_paces_to_duration(self):
        assert paced_pps(6000, 6.0, 50_000.0) == pytest.approx(1000.0)

    @pytest.mark.parametrize("targets", [1, 599, 600, 54_321])
    @pytest.mark.parametrize("duration", [0.5, 6.0, 3600.0])
    def test_unbounded_ceiling_is_sra_scan_duration_pacing(self, targets, duration):
        """``sra-scan --duration`` without ``--pps``: no line rate to cap at."""
        import math

        assert paced_pps(targets, duration, math.inf) == max(
            100.0, targets / duration
        )

    @pytest.mark.parametrize("ceiling", [0.0, -1.0, -50_000.0])
    def test_nonpositive_ceiling_raises(self, ceiling):
        """A zero/negative ceiling used to leak through as a nonsense
        probe rate; now it is rejected at the door."""
        with pytest.raises(ValueError, match="ceiling must be positive"):
            paced_pps(1000, 6.0, ceiling)
        # Even in the "pacing disabled" corners the ceiling is validated.
        with pytest.raises(ValueError, match="ceiling must be positive"):
            paced_pps(0, 6.0, ceiling)
        with pytest.raises(ValueError, match="ceiling must be positive"):
            paced_pps(1000, 0.0, ceiling)


class TestMergeResults:
    def _result(self, *, epoch, duration, sent=4):
        result = ScanResult(name="shard", epoch=epoch, sent=sent, duration=duration)
        result.records = [
            ScanRecord(target=1, source=2, icmp_type=129, code=0, time=0.1)
        ]
        return result

    def test_duration_is_max_not_sum(self):
        merged = merge_results(
            "all",
            [
                self._result(epoch=3, duration=2.0),
                self._result(epoch=3, duration=5.0),
                self._result(epoch=3, duration=1.0),
            ],
        )
        assert merged.duration == 5.0

    def test_epoch_preserved(self):
        merged = merge_results(
            "all",
            [self._result(epoch=7, duration=1.0), self._result(epoch=7, duration=2.0)],
        )
        assert merged.epoch == 7

    def test_counters_still_sum(self):
        merged = merge_results(
            "all",
            [self._result(epoch=0, duration=1.0), self._result(epoch=0, duration=1.0)],
        )
        assert merged.sent == 8
        assert len(merged.records) == 2

    def test_engine_stats_summed(self):
        first = self._result(epoch=0, duration=1.0)
        second = self._result(epoch=0, duration=1.0)
        first.engine_stats = EngineStats(probes=10, suppressed_errors=2)
        second.engine_stats = EngineStats(probes=5, suppressed_errors=1)
        merged = merge_results("all", [first, second])
        assert merged.engine_stats == EngineStats(probes=15, suppressed_errors=3)

    def test_empty_merge(self):
        merged = merge_results("all", [])
        assert merged.sent == 0 and merged.epoch == 0 and merged.duration == 0.0

    def test_stats_less_inputs_mixed_with_stats_bearing(self):
        with_stats = self._result(epoch=0, duration=1.0)
        with_stats.engine_stats = EngineStats(probes=4, echo_replies=2)
        without_stats = self._result(epoch=0, duration=1.0)
        assert without_stats.engine_stats is None
        merged = merge_results("all", [without_stats, with_stats])
        # None inputs are skipped, not treated as zeros that poison the sum
        assert merged.engine_stats == EngineStats(probes=4, echo_replies=2)

    def test_all_inputs_stats_less_leaves_none(self):
        merged = merge_results(
            "all",
            [self._result(epoch=0, duration=1.0) for _ in range(3)],
        )
        assert merged.engine_stats is None

    def test_generator_input(self):
        merged = merge_results(
            "all",
            (self._result(epoch=2, duration=float(i)) for i in range(3)),
        )
        assert merged.sent == 12
        assert merged.duration == 2.0
        assert merged.epoch == 2


class TestMergeEngineStats:
    def test_empty_iterable_yields_zero_stats(self):
        assert merge_engine_stats([]) == EngineStats()
        assert merge_engine_stats(iter([])) == EngineStats()

    def test_single_input_copies_not_aliases(self):
        original = EngineStats(probes=7, lost=1)
        merged = merge_engine_stats([original])
        assert merged == original
        assert merged is not original
        merged.probes += 1
        assert original.probes == 7

    def test_inputs_never_mutated(self):
        first = EngineStats(probes=1, error_replies=2)
        second = EngineStats(probes=3, suppressed_errors=4)
        merge_engine_stats([first, second])
        assert first == EngineStats(probes=1, error_replies=2)
        assert second == EngineStats(probes=3, suppressed_errors=4)

    def test_every_field_sums(self):
        first = EngineStats(
            probes=1, lost=2, echo_replies=3, error_replies=4,
            suppressed_errors=5, loops_hit=6, amplified_replies=7,
        )
        merged = merge_engine_stats([first, first, first])
        assert merged == EngineStats(
            probes=3, lost=6, echo_replies=9, error_replies=12,
            suppressed_errors=15, loops_hit=18, amplified_replies=21,
        )

    def test_generator_input(self):
        merged = merge_engine_stats(
            EngineStats(probes=i) for i in range(4)
        )
        assert merged.probes == 6


class TestDeterminism:
    """A sharded run is bit-for-bit identical to the serial run."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_identical_to_serial(self, tiny_world, stress_targets, shards, executor):
        serial = serial_scan(tiny_world, stress_targets, epoch=2)
        # The scan must actually exercise the stateful rate limiter and the
        # loop amplifier, else this test proves nothing.
        assert serial.engine_stats.suppressed_errors > 0
        assert serial.loops_observed > 0
        runner = ShardedScanRunner(tiny_world, shards=shards, executor=executor)
        merged = runner.scan(
            stress_targets, ScanConfig(pps=200_000.0, seed=5), name="scan", epoch=2
        )
        assert merged.records == serial.records  # full record list, in order
        assert merged.sources() == serial.sources()
        assert merged.sent == serial.sent
        assert merged.lost == serial.lost
        assert merged.loops_observed == serial.loops_observed
        assert merged.duration == serial.duration
        assert merged.epoch == serial.epoch
        assert merged.engine_stats == serial.engine_stats

    def test_identical_across_epochs(self, tiny_world, stress_targets):
        for epoch in (0, 1, 4):
            serial = serial_scan(tiny_world, stress_targets, epoch=epoch)
            runner = ShardedScanRunner(tiny_world, shards=3, executor="serial")
            merged = runner.scan(
                stress_targets,
                ScanConfig(pps=200_000.0, seed=5),
                name="scan",
                epoch=epoch,
            )
            assert merged.records == serial.records

    def test_process_pool_identical(self, tiny_world):
        targets = list(bgp_plain_targets(tiny_world.bgp))[:300]
        serial = serial_scan(tiny_world, targets, epoch=1, pps=50_000.0)
        runner = ShardedScanRunner(tiny_world, shards=2, executor="process")
        merged = runner.scan(
            targets, ScanConfig(pps=50_000.0, seed=5), name="scan", epoch=1
        )
        assert merged.records == serial.records

    def test_process_pool_scan_of_lazy_input_set_equals_serial(
        self, tiny_world
    ):
        """A lazy CLI input set scans through a process pool to the
        results of a serial scan of the materialised list (how it crosses
        the pool is ``TestTargetTransport``'s business)."""
        from repro.scanner.cli import build_targets

        stream = build_targets(
            tiny_world, "bgp-48", max_targets=400, seed=21
        )
        serial = serial_scan(
            tiny_world, list(stream), epoch=1, pps=50_000.0
        )
        runner = ShardedScanRunner(tiny_world, shards=2, executor="process")
        merged = runner.scan(
            stream, ScanConfig(pps=50_000.0, seed=5), name="scan", epoch=1
        )
        assert merged.records == serial.records
        assert merged.sent == serial.sent
        assert merged.engine_stats == serial.engine_stats

    def test_single_shard_short_circuits(self, tiny_world, stress_targets):
        serial = serial_scan(tiny_world, stress_targets, epoch=0)
        runner = ShardedScanRunner(tiny_world, shards=1)
        merged = runner.scan(
            stress_targets, ScanConfig(pps=200_000.0, seed=5), name="scan", epoch=0
        )
        assert merged.records == serial.records

    def test_more_shards_than_targets(self, tiny_world):
        targets = list(bgp_plain_targets(tiny_world.bgp))[:3]
        serial = serial_scan(tiny_world, targets, epoch=0, pps=1000.0)
        runner = ShardedScanRunner(tiny_world, shards=8, executor="serial")
        merged = runner.scan(
            targets, ScanConfig(pps=1000.0, seed=5), name="scan", epoch=0
        )
        assert merged.records == serial.records
        assert merged.sent == len(targets)

    def test_empty_targets(self, tiny_world):
        runner = ShardedScanRunner(tiny_world, shards=4, executor="serial")
        merged = runner.scan([], ScanConfig(pps=1000.0), name="scan", epoch=0)
        assert merged.sent == 0 and merged.records == []


class TestTargetTransport:
    """A process pool receives the stream itself — inherited by fork,
    pickled otherwise: no worker re-runs a generator whose output the
    parent already holds."""

    CONFIG = ScanConfig(pps=50_000.0, seed=5)

    @pytest.fixture
    def partition(self, tiny_world):
        prefix = tiny_world.bgp.prefixes()[0]
        return SubnetPartitionStream(prefix, min(64, prefix.length + 9))

    def _process_scan(self, world, targets):
        runner = ShardedScanRunner(world, shards=2, executor="process")
        merged = runner.scan(targets, self.CONFIG, name="scan", epoch=1)
        serial = serial_scan(world, list(targets), epoch=1, pps=self.CONFIG.pps)
        assert serial.records  # the partition is routed: there are replies
        assert merged.records == serial.records
        assert merged.sent == serial.sent
        assert merged.engine_stats == serial.engine_stats

    # spawn and forkserver (the Linux default from Python 3.14) pickle a
    # pool's initargs; fork lets the workers inherit them.
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_realised_stream_ships_its_data(
        self, tiny_world, partition, tmp_path, monkeypatch, start_method
    ):
        """The factory — a closure, logging its pid to a file since it
        would run in a worker if a worker ever called it — runs exactly
        once, in this process, however the workers start."""
        monkeypatch.setattr(
            sharded_module,
            "ProcessPoolExecutor",
            partial(
                ProcessPoolExecutor,
                mp_context=multiprocessing.get_context(start_method),
            ),
        )
        log = tmp_path / "factory-calls"

        def factory():
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return list(partition)

        stream = LazyStream(
            factory, name="counted", subnet_length=partition.subnet_length
        )
        self._process_scan(tiny_world, stream)
        assert log.read_text().split() == [str(os.getpid())]

    def test_computable_stream_scans_in_place(self, tiny_world, partition):
        assert partition.buffered == 0
        self._process_scan(tiny_world, partition)
        assert partition.buffered == 0


class TestShardPrimitives:
    def test_scan_shard_records_checks(self, tiny_world, stress_targets):
        outcome = scan_shard(
            tiny_world,
            ScanConfig(pps=200_000.0, seed=5),
            stress_targets,
            name="scan",
            epoch=2,
            shard=0,
            shards=2,
        )
        assert outcome.shard == 0
        assert outcome.checks  # deferred rate-limit checks were recorded
        # Deferred mode never suppresses during the shard run itself.
        assert outcome.stats.suppressed_errors == 0
        times = [time for time, _ in outcome.checks]
        assert times == sorted(times)

    def test_scan_shard_reads_a_stream_like_its_list(
        self, tiny_world, stress_targets
    ):
        """``targets`` is data in either form: a ``TargetList`` shard scans
        to the outcome of the plain list it holds."""
        outcomes = [
            scan_shard(
                tiny_world,
                ScanConfig(pps=200_000.0, seed=5),
                targets,
                name="scan",
                epoch=2,
                shard=1,
                shards=2,
            )
            for targets in (
                stress_targets,
                TargetList("scan", list(stress_targets)),
            )
        ]
        plain, stream = outcomes
        assert plain.result.records  # the shard got replies to compare
        assert stream.result.records == plain.result.records
        assert stream.checks == plain.checks
        assert stream.stats == plain.stats

    def test_merge_applies_rate_limit(self, tiny_world, stress_targets):
        outcomes = [
            scan_shard(
                tiny_world,
                ScanConfig(pps=200_000.0, seed=5),
                stress_targets,
                name="scan",
                epoch=2,
                shard=shard,
                shards=2,
            )
            for shard in range(2)
        ]
        merged = merge_shard_outcomes(
            tiny_world, outcomes, name="scan", epoch=2
        )
        assert merged.engine_stats.suppressed_errors > 0
        provisional = sum(len(o.result.records) for o in outcomes)
        assert len(merged.records) == provisional  # records already pruned

    def test_auto_shard_count_bounds(self):
        assert 1 <= auto_shard_count() <= 8

    @pytest.mark.parametrize("executor", ["rocket", "thread"])
    def test_invalid_executor_rejected(self, tiny_world, executor):
        with pytest.raises(ValueError, match="auto/process/serial"):
            ShardedScanRunner(tiny_world, shards=2, executor=executor)

    @pytest.mark.parametrize(
        "cores, size, expected",
        [
            (4, sharded_module.PROCESS_POOL_THRESHOLD, "process"),
            (4, sharded_module.PROCESS_POOL_THRESHOLD - 1, "serial"),
            (1, sharded_module.PROCESS_POOL_THRESHOLD, "serial"),
            (None, sharded_module.PROCESS_POOL_THRESHOLD, "serial"),
        ],
    )
    def test_auto_executor_is_chosen_from_size_and_cores(
        self, tiny_world, monkeypatch, cores, size, expected
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        runner = ShardedScanRunner(tiny_world, shards=2)
        assert runner._resolve_executor(size) == expected
        forced = ShardedScanRunner(tiny_world, shards=2, executor="serial")
        assert forced._resolve_executor(size) == "serial"

    def test_invalid_shards_rejected(self, tiny_world):
        with pytest.raises(ValueError, match="shards"):
            ShardedScanRunner(tiny_world, shards=0)


class TestWindowValidation:
    """``merge_shard_outcomes`` must refuse anything but an exact tiling
    of the permutation — a gap or overlap would merge into a plausible
    but silently wrong result (the crash-recovery failure mode)."""

    @pytest.fixture(scope="class")
    def outcomes(self, tiny_world, stress_targets):
        return [
            scan_shard(
                tiny_world,
                ScanConfig(pps=200_000.0, seed=5),
                stress_targets,
                name="scan",
                epoch=2,
                shard=shard,
                shards=3,
            )
            for shard in range(3)
        ]

    def test_exact_tiling_merges(self, tiny_world, outcomes):
        merged = merge_shard_outcomes(
            tiny_world, outcomes, name="scan", epoch=2
        )
        assert merged.sent > 0

    def test_empty_outcomes_rejected(self, tiny_world):
        with pytest.raises(ValueError, match="no shard outcomes"):
            merge_shard_outcomes(tiny_world, [], name="scan", epoch=2)

    def test_gap_rejected(self, tiny_world, outcomes):
        with pytest.raises(ValueError, match=r"gaps.*missing shard\(s\) \[1\]"):
            merge_shard_outcomes(
                tiny_world,
                [outcomes[0], outcomes[2]],
                name="scan",
                epoch=2,
            )

    def test_overlap_rejected(self, tiny_world, outcomes):
        with pytest.raises(ValueError, match="overlapping shard windows"):
            merge_shard_outcomes(
                tiny_world,
                [outcomes[0], outcomes[0], outcomes[1], outcomes[2]],
                name="scan",
                epoch=2,
            )

    def test_denominator_mismatch_rejected(
        self, tiny_world, stress_targets, outcomes
    ):
        foreign = scan_shard(
            tiny_world,
            ScanConfig(pps=200_000.0, seed=5),
            stress_targets,
            name="scan",
            epoch=2,
            shard=1,
            shards=4,
        )
        with pytest.raises(ValueError, match="window mismatch"):
            merge_shard_outcomes(
                tiny_world,
                [outcomes[0], foreign, outcomes[2]],
                name="scan",
                epoch=2,
            )

    def test_out_of_range_shard_rejected(self, tiny_world, outcomes):
        from dataclasses import replace as dc_replace

        rogue = dc_replace(outcomes[1], shard=7)
        with pytest.raises(ValueError, match="outside the"):
            merge_shard_outcomes(
                tiny_world,
                [outcomes[0], rogue, outcomes[2]],
                name="scan",
                epoch=2,
            )


class TestShmRingTransport:
    """The shared-memory shard→merge channel: payload fidelity, segment
    lifetime, pickle fallback, and parent-side transport accounting."""

    def _outcome(self, world, targets, shard=0, shards=2):
        return scan_shard(
            world,
            ScanConfig(pps=200_000.0, seed=5),
            targets,
            name="scan",
            epoch=2,
            shard=shard,
            shards=shards,
        )

    @staticmethod
    def _segment_gone(name):
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_pack_drain_round_trip(self, tiny_world, stress_targets):
        from repro.scanner.shmring import (
            RingStats,
            drain_outcome,
            pack_outcome,
        )

        outcome = self._outcome(tiny_world, stress_targets)
        expected_records = list(outcome.result.records)
        expected_checks = list(outcome.checks)
        assert expected_records and expected_checks

        assert pack_outcome(outcome) is True
        # The payload now lives in the frame, not the pickled outcome.
        assert outcome.result.records == []
        assert outcome.checks == []
        assert outcome.ring is not None
        assert outcome.ring.records == len(expected_records)
        assert outcome.ring.checks == len(expected_checks)
        name = outcome.ring.name

        stats = RingStats()
        drain_outcome(outcome, stats)
        assert outcome.result.records == expected_records
        assert outcome.checks == expected_checks
        assert outcome.ring is None
        assert stats.segments == 1
        assert stats.records == len(expected_records)
        assert stats.checks == len(expected_checks)
        assert stats.bytes > 0
        assert stats.fallbacks == 0
        self._segment_gone(name)  # parent unlinked on drain

    def test_drain_is_idempotent(self, tiny_world, stress_targets):
        from repro.scanner.shmring import (
            RingStats,
            drain_outcome,
            pack_outcome,
        )

        outcome = self._outcome(tiny_world, stress_targets)
        expected = list(outcome.result.records)
        pack_outcome(outcome)
        stats = RingStats()
        drain_outcome(outcome, stats)
        drain_outcome(outcome, stats)  # no frame left: must be a no-op
        assert outcome.result.records == expected
        assert stats.segments == 1

    def test_unavailable_platform_falls_back_to_pickle(
        self, tiny_world, stress_targets, monkeypatch
    ):
        from repro.scanner import shmring

        monkeypatch.setattr(shmring, "shared_memory", None)
        assert not shmring.ring_available()
        outcome = self._outcome(tiny_world, stress_targets)
        expected = list(outcome.result.records)
        assert shmring.pack_outcome(outcome) is False
        # Fallback leaves the payload on the ordinary pickled path.
        assert outcome.ring is None
        assert outcome.ring_fallback is True
        assert outcome.result.records == expected
        monkeypatch.undo()
        stats = shmring.RingStats()
        shmring.drain_outcome(outcome, stats)
        assert outcome.result.records == expected
        assert stats.fallbacks == 1
        assert stats.segments == 0

    def test_release_unlinks_undrained_frame(self, tiny_world, stress_targets):
        from repro.scanner.shmring import pack_outcome, release_outcome

        outcome = self._outcome(tiny_world, stress_targets)
        pack_outcome(outcome)
        name = outcome.ring.name
        release_outcome(outcome)
        assert outcome.ring is None
        self._segment_gone(name)
        release_outcome(outcome)  # second release is a harmless no-op

    def test_process_pool_rides_the_ring(self, tiny_world):
        """End to end: a process-pool scan ships every shard through the
        ring (no fallbacks), matches the serial scan byte for byte, and
        leaves nothing behind in shared memory."""
        targets = list(bgp_plain_targets(tiny_world.bgp))[:300]
        serial = serial_scan(tiny_world, targets, epoch=1, pps=50_000.0)
        runner = ShardedScanRunner(tiny_world, shards=2, executor="process")
        merged = runner.scan(
            targets, ScanConfig(pps=50_000.0, seed=5), name="scan", epoch=1
        )
        assert merged.records == serial.records
        assert merged.engine_stats == serial.engine_stats
        stats = runner.ring_stats
        assert stats.segments == 2
        assert stats.fallbacks == 0
        # Frames carry the shards' provisional records; the merge then
        # prunes the ones the serial-order rate limiter suppresses.
        assert stats.records == (
            len(serial.records) + serial.engine_stats.suppressed_errors
        )
        assert stats.bytes > 0

    def test_serial_executor_never_packs(self, tiny_world, stress_targets):
        """Same-process shards have nothing to transport: the ring stays
        untouched and results are unchanged."""
        runner = ShardedScanRunner(tiny_world, shards=3, executor="serial")
        runner.scan(
            stress_targets,
            ScanConfig(pps=200_000.0, seed=5),
            name="scan",
            epoch=2,
        )
        assert runner.ring_stats.segments == 0
        assert runner.ring_stats.fallbacks == 0


def shm_segments():
    """Names of the shared-memory segments alive right now (empty where
    the platform has no ``/dev/shm``)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class PoisonedTargets(list):
    """A target list (picklable, so it reaches pool workers) whose one
    poisoned index raises — exactly one shard of a scan fails.  (Not
    index 0: the runner's resume fingerprint samples the ends.)"""

    poisoned = 1

    def __getitem__(self, index):
        if index == self.poisoned:
            raise InjectedCrash(f"poisoned target index {index}")
        return super().__getitem__(index)


class SignallingTargets(list):
    """Delivers a real SIGINT to the process when ``trigger`` is probed."""

    trigger = 1

    def __getitem__(self, index):
        if index == self.trigger:
            signal.raise_signal(signal.SIGINT)
        return super().__getitem__(index)


_real_worker_scan_shard = sharded_module._worker_scan_shard


def _pack_then_fail(*args, **kwargs):
    """Pool work function (module level: it is pickled by name)."""
    outcome = _real_worker_scan_shard(*args, **kwargs)
    assert outcome.ring is not None
    raise InjectedCrash("handle lost")


class TestJournallessFailures:
    """A multi-shard scan with no checkpoint or retry budget runs the
    same dispatch loop as a journaled one, so its failures are the same
    typed errors — not a worker's raw traceback."""

    CONFIG = ScanConfig(pps=200_000.0, seed=5)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_crashing_shard_raises_shard_failed_error(
        self, tiny_world, stress_targets, executor
    ):
        before = shm_segments()
        targets = CrashingSequence(stress_targets, at_probe=100, hard=False)
        runner = ShardedScanRunner(tiny_world, shards=2, executor=executor)
        with pytest.raises(ShardFailedError) as excinfo:
            runner.scan(targets, self.CONFIG, name="plain", epoch=1)
        failure = excinfo.value
        assert isinstance(failure.error, InjectedCrash)
        assert failure.attempts == 1
        assert failure.checkpoint_path is None
        assert "salvaged" not in str(failure)
        assert shm_segments() == before

    def test_completed_frames_are_drained_when_a_sibling_fails(
        self, tiny_world, stress_targets
    ):
        """Process pool, one shard of two fails: the finished shard's
        ring frame is drained (and so unlinked) before the error."""
        before = shm_segments()
        runner = ShardedScanRunner(tiny_world, shards=2, executor="process")
        with pytest.raises(ShardFailedError) as excinfo:
            runner.scan(
                PoisonedTargets(stress_targets),
                self.CONFIG,
                name="plain",
                epoch=1,
            )
        assert isinstance(excinfo.value.error, InjectedCrash)
        assert runner.ring_stats.segments == 1
        assert shm_segments() == before

    def test_hard_crashed_pool_leaves_no_frames(self, tiny_world, stress_targets):
        """A worker dying (``os._exit``, as a kill -9 would) breaks the
        pool, and the broken pool swallows the result — RingHandle
        included — of a sibling that had packed its frame.  The parent
        named the frames, so it unlinks them all the same."""
        before = shm_segments()
        chaos = ChaosEngine(
            plan=FaultPlan(crash_shard=1, crash_at_probe=10, hard=True)
        )
        runner = ShardedScanRunner(tiny_world, shards=2, executor="process")
        with pytest.raises(ShardFailedError) as excinfo, injected(chaos):
            runner.scan(stress_targets, self.CONFIG, name="plain", epoch=1)
        assert isinstance(excinfo.value.error, BrokenProcessPool)
        assert shm_segments() == before

    def test_frame_of_a_lost_handle_is_unlinked(
        self, tiny_world, stress_targets, monkeypatch
    ):
        """The same loss without the race: each worker packs its frame and
        then fails, so no RingHandle ever reaches the parent."""
        before = shm_segments()
        monkeypatch.setattr(sharded_module, "_worker_scan_shard", _pack_then_fail)
        runner = ShardedScanRunner(tiny_world, shards=2, executor="process")
        with pytest.raises(ShardFailedError, match="handle lost"):
            runner.scan(stress_targets, self.CONFIG, name="plain", epoch=1)
        assert runner.ring_stats.segments == 0
        assert shm_segments() == before

    def test_sigint_ends_in_scan_interrupted_without_resume_hint(
        self, tiny_world, stress_targets
    ):
        targets = SignallingTargets(stress_targets)
        # Signal from inside shard 0: its first probe in permuted order.
        _, targets.trigger = next(
            shard_positions(
                len(targets), seed=5, epoch=1, window=IndexWindow(0, 2)
            )
        )
        runner = ShardedScanRunner(tiny_world, shards=2, executor="serial")
        handler = signal.getsignal(signal.SIGINT)
        with pytest.raises(ScanInterrupted) as excinfo:
            runner.scan(targets, self.CONFIG, name="plain", epoch=1)
        interrupted = excinfo.value
        assert interrupted.checkpoint_path is None
        assert (interrupted.completed, interrupted.remaining) == (1, 1)
        assert "saved to" not in str(interrupted)
        assert signal.getsignal(signal.SIGINT) is handler

    def test_target_list_reaches_scan_shard_uncopied(
        self, tiny_world, stress_targets, monkeypatch
    ):
        """The runner scans in place whatever the scanner would: a
        ``TargetList`` is handed to ``scan_shard`` as is, not as a copy."""
        from repro.scanner import sharded

        seen = []
        real = sharded.scan_shard

        def spy(world, config, targets, **kwargs):
            seen.append(targets)
            return real(world, config, targets, **kwargs)

        monkeypatch.setattr(sharded, "scan_shard", spy)
        targets = TargetList(name="stress", targets=stress_targets)
        runner = ShardedScanRunner(tiny_world, shards=2, executor="serial")
        merged = runner.scan(targets, self.CONFIG, name="scan", epoch=1)
        assert len(seen) == 2 and all(item is targets for item in seen)
        assert merged.records == serial_scan(
            tiny_world, stress_targets, epoch=1
        ).records


class TestCampaignFanOut:
    """``scan_all`` prefetches a campaign's whole scans on a pool and
    hands each out through ``ShardedScanRunner.scan``: the contract the
    end-to-end benchmark's tracer (which wraps that method at class
    level) and the campaigns' memory bounds rely on, and its failure
    paths."""

    EPOCHS = 6

    @pytest.fixture(scope="class")
    def sra_targets(self, tiny_hitlist):
        return tiny_hitlist.unique_slash64s()[:500]

    def test_one_scan_call_per_scan_in_campaign_order(
        self, tiny_world, sra_targets, monkeypatch
    ):
        from repro.core import probing

        def snapshot(result):
            return result.name, result.epoch, result.records, result.engine_stats

        serial = probing.run_sra_vs_random(
            tiny_world, sra_targets, epochs=self.EPOCHS
        )
        expected = [
            snapshot(scan.result)
            for pair in zip(serial.sra, serial.random)
            for scan in pair
        ]

        streams = []

        class TrackedStream(LazyStream):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                streams.append(self)

            def _realise(self):
                targets = super()._realise()
                peak.append(sum(stream.realised for stream in streams))
                return targets

        peak = []
        calls = []
        real_scan = ShardedScanRunner.scan

        def traced_scan(self, targets, config=None, **kwargs):
            result = real_scan(self, targets, config, **kwargs)
            # What the tracer does once the call has returned: list the
            # targets (a released stream would raise here).
            calls.append((snapshot(result), len(list(targets))))
            return result

        monkeypatch.setattr(probing, "LazyStream", TrackedStream)
        monkeypatch.setattr(ShardedScanRunner, "scan", traced_scan)
        runner = ShardedScanRunner(tiny_world, shards=1, executor="process")
        probing.run_sra_vs_random(
            tiny_world, sra_targets, epochs=self.EPOCHS, runner=runner
        )
        assert [call[0] for call in calls] == expected
        assert [listed for _, listed in calls] == [len(sra_targets)] * len(expected)
        workers = min(auto_shard_count(), 2 * self.EPOCHS)
        assert len(streams) == self.EPOCHS
        assert 0 < max(peak) <= 2 * workers
        assert not any(stream.realised for stream in streams)

    def test_worker_exception_surfaces_with_its_type(self, tiny_world, sra_targets):
        from repro.core.probing import run_stability

        before = shm_segments()
        runner = ShardedScanRunner(tiny_world, shards=1, executor="process")
        with pytest.raises(InjectedCrash, match="poisoned target index"):
            run_stability(
                tiny_world, PoisonedTargets(sra_targets), epochs=3, runner=runner
            )
        assert multiprocessing.active_children() == []
        assert shm_segments() == before

    def test_pool_is_joined_when_the_campaign_returns(self, tiny_world, sra_targets):
        from repro.core.probing import run_visibility

        before = shm_segments()
        runner = ShardedScanRunner(tiny_world, shards=1, executor="process")
        run_visibility(tiny_world, set(sra_targets), days=3, runner=runner)
        assert multiprocessing.active_children() == []
        assert shm_segments() == before

    def test_jobs_over_several_lists_scan_their_own_targets(
        self, tiny_world, sra_targets
    ):
        """Several lists reach the workers through the initializer; each
        job scans its own, so the results are the serial loop's."""
        lists = [sra_targets[:200], sra_targets[200:], sra_targets[100:300]]
        jobs = [
            (targets, ScanConfig(pps=50_000.0, seed=epoch), f"job{epoch}", epoch)
            for epoch, targets in enumerate(lists * 2)
        ]

        def scanned(executor):
            runner = ShardedScanRunner(tiny_world, shards=1, executor=executor)
            return [
                (result.name, result.records, result.engine_stats)
                for result in runner.scan_all(jobs)
            ]

        assert scanned("process") == scanned("serial")

    @pytest.mark.parametrize("shards", [1, 2])
    def test_serial_executor_never_forks(
        self, tiny_world, sra_targets, monkeypatch, shards
    ):
        from repro.core.probing import run_sra_vs_random, run_stability

        def refuse(*args, **kwargs):
            raise AssertionError("executor='serial' built a process pool")

        monkeypatch.setattr(sharded_module, "ProcessPoolExecutor", refuse)
        runner = ShardedScanRunner(tiny_world, shards=shards, executor="serial")
        run_sra_vs_random(tiny_world, sra_targets, epochs=2, runner=runner)
        run_stability(tiny_world, sra_targets, epochs=2, runner=runner)


CORES = os.cpu_count() or 1


def survey_of(world, hitlist, alias_list, **knobs):
    """The tiny-world survey the pipeline tests run, telemetry on."""
    config = SurveyConfig(
        seed=11,
        max_bgp_48=2_000,
        max_bgp_64=2_000,
        max_route6=2_000,
        max_hitlist=2_000,
        **knobs,
    )
    return SRASurvey(
        world, hitlist, alias_list=alias_list, config=config, telemetry=ScanTelemetry()
    )


def per_scan_survey(survey, times=1):
    """The survey driven set by set through ``runner.scan``: one pool per
    process scan, the way every survey ran before ``scan_all`` took it."""
    streams = survey.build_input_sets()
    results = []
    for epoch in range(times):
        result = SurveyResult()
        for name, targets in streams.items():
            result.input_sets[name] = survey.run_input_set(name, targets, epoch=epoch)
        results.append(result)
    return results


def survey_jobs(survey, epoch=0):
    """The survey's five input-set jobs, as ``run`` hands them to scan_all."""
    return [
        (targets, survey.scan_config, name, epoch)
        for name, targets in survey.build_input_sets().items()
    ]


def count_pools(monkeypatch):
    """Every ProcessPoolExecutor the sharded runner builds from now on."""
    pools = []

    def counted(*args, **kwargs):
        pools.append(args)
        return ProcessPoolExecutor(*args, **kwargs)

    monkeypatch.setattr(sharded_module, "ProcessPoolExecutor", counted)
    return pools


def snapshot(survey, results):
    """Everything a survey run exports, byte for byte."""
    telemetry = survey.telemetry
    return (
        [result.table2_rows() for result in results],
        [
            (name, s.result.records, s.result.engine_stats)
            for result in results
            for name, s in result.input_sets.items()
        ],
        telemetry.to_jsonl(),
        telemetry.to_prometheus(),
        survey.runner.ring_stats,
    )


class TestPipelinedShardPool:
    """On several shards, ``scan_all`` runs a campaign's scans on one pool
    and submits each job's shards ahead of its turn, realising the jobs
    in order and at most two tasks per worker in flight."""

    CONFIG = ScanConfig(pps=200_000.0, seed=5)

    def test_rescan_campaign_on_shards_forks_one_pool(
        self, tiny_world, tiny_hitlist, monkeypatch
    ):
        from repro.core.probing import run_sra_vs_random

        targets = tiny_hitlist.unique_slash64s()[:400]

        def series(executor):
            runner = ShardedScanRunner(tiny_world, shards=2, executor=executor)
            result = run_sra_vs_random(tiny_world, targets, epochs=3, runner=runner)
            return [
                (scan.result.name, scan.result.records, scan.result.engine_stats)
                for pair in zip(result.sra, result.random)
                for scan in pair
            ]

        expected = series("serial")
        pools = count_pools(monkeypatch)
        assert series("process") == expected
        assert len(pools) == 1

    def test_jobs_realise_in_turn(self, tiny_world, stress_targets, monkeypatch):
        """A config that is a function of the targets is resolved when
        the job starts: at most three lazy sets are ever resident (the
        one scanned and two started), realised in job order, and at most
        two jobs' shards are in flight on the two workers."""
        realised = []

        def streams():
            def factory(index):
                realised.append(index)
                return stress_targets[100 * index :]

            return [
                LazyStream(partial(factory, index), name=f"set{index}")
                for index in range(5)
            ]

        def config(targets):
            return ScanConfig(pps=paced_pps(len(targets), 6.0, 50_000.0), seed=5)

        in_flight = []
        real_submit = sharded_module._submit

        def submit(pool, *args):
            futures = real_submit(pool, *args)
            in_flight.append(len(pool._pending_work_items))
            return futures

        monkeypatch.setattr(sharded_module, "_submit", submit)

        def scanned(executor):
            sets = streams()
            runner = ShardedScanRunner(tiny_world, shards=2, executor=executor)
            jobs = [(stream, config, stream.name, 1) for stream in sets]
            out = []
            for stream, result in zip(sets, runner.scan_all(jobs), strict=True):
                out.append((result.name, result.records, result.engine_stats))
                resident.append(sum(s.realised for s in sets))
                stream.release()
            return out

        resident = []
        serial = scanned("serial")
        assert resident == [1] * 5
        realised.clear()
        resident.clear()
        assert scanned("process") == serial
        assert realised == [0, 1, 2, 3, 4]
        depth = min(2, CORES) + 1  # jobs in flight, and one more
        assert resident == [min(depth, 5 - index) for index in range(5)]
        assert len(in_flight) == 5 and max(in_flight) <= 2 * 2

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2, reason="auto never forks on one core"
    )
    def test_auto_sends_only_large_jobs_to_the_pool(
        self, tiny_world, stress_targets, monkeypatch
    ):
        monkeypatch.setattr(sharded_module, "PROCESS_POOL_THRESHOLD", 1_000)
        jobs = [
            (list(stress_targets), self.CONFIG, "large", 1),
            (stress_targets[:500], self.CONFIG, "small", 1),
            (list(stress_targets), self.CONFIG, "large-again", 2),
        ]
        serial = [
            result.records
            for result in ShardedScanRunner(
                tiny_world, shards=2, executor="serial"
            ).scan_all(jobs)
        ]
        in_process = []
        real = sharded_module.scan_shard

        def spy(world, config, targets, **kwargs):
            in_process.append(kwargs["name"])
            return real(world, config, targets, **kwargs)

        monkeypatch.setattr(sharded_module, "scan_shard", spy)
        runner = ShardedScanRunner(tiny_world, shards=2, executor="auto")
        assert [result.records for result in runner.scan_all(jobs)] == serial
        assert in_process == ["small", "small"]
        assert runner.ring_stats.segments == 4

    def test_small_campaign_under_auto_never_forks(
        self, tiny_world, stress_targets, monkeypatch
    ):
        """The pool opens for the first job that goes to it, so a campaign
        whose jobs all stay below the threshold forks nothing."""
        pools = count_pools(monkeypatch)
        runner = ShardedScanRunner(tiny_world, shards=2, executor="auto")
        jobs = [(stress_targets[:500], self.CONFIG, f"small{i}", i) for i in (1, 2)]
        assert len(list(runner.scan_all(jobs))) == 2
        assert pools == []


_real_worker_scan_shard_for_survey = sharded_module._worker_scan_shard


def _crash_on_bgp64(targets, config, scan, **kwargs):
    """Pool work function (module level: it is pickled by name) whose
    shards of the survey's ``bgp-64`` scan, its third job, fail."""
    if kwargs["name"] == "bgp-64":
        raise InjectedCrash("bgp-64 shard crashed")
    return _real_worker_scan_shard_for_survey(targets, config, scan, **kwargs)


# A campaign on a two-shard pool that takes its first result and then
# works on it (as the survey alias-filters) while the next jobs' shards run.
_CAMPAIGN_BETWEEN_RESULTS = """
import multiprocessing, random, time
from contextlib import closing
from repro.scanner.sharded import ShardedScanRunner
from repro.scanner.targets import bgp_slash48_targets
from repro.scanner.zmapv6 import ScanConfig
from repro.topology.config import tiny_config
from repro.topology.generator import build_world

world = build_world(tiny_config(seed=7))
targets = list(
    bgp_slash48_targets(
        world.bgp, max_per_prefix=16, max_targets=2_500, rng=random.Random(0)
    )
)
jobs = [(targets, ScanConfig(pps=200_000.0, seed=5), f"job{i}", i) for i in range(4)]
runner = ShardedScanRunner(world, shards=2, executor="process")
with closing(runner.scan_all(jobs)) as scans:
    next(scans)
    print(*(child.pid for child in multiprocessing.active_children()), flush=True)
    time.sleep(60)
"""


def _running(pid: int) -> bool:
    """Whether process ``pid`` still runs (a zombie does not)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestSurveyPipelineFailures:
    """The survey's shared shard pool fails the way per-scan pools do:
    the same typed errors, and every time the pool is joined and every
    ring frame — the prefetched next jobs' included — unlinked."""

    @pytest.fixture(autouse=True)
    def leaves_nothing_behind(self):
        before = shm_segments()
        yield
        # An interrupt does not wait out the shards already running: they
        # finish, release their frames on arrival, and the workers exit.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and (
            multiprocessing.active_children() or shm_segments() != before
        ):
            time.sleep(0.05)
        assert multiprocessing.active_children() == []
        assert shm_segments() == before

    @pytest.fixture
    def survey(self, tiny_world, tiny_hitlist, tiny_alias_list):
        return survey_of(
            tiny_world, tiny_hitlist, tiny_alias_list, shards=2, parallel="process"
        )

    def test_worker_exception_in_the_third_job_surfaces(self, survey, monkeypatch):
        assert list(survey.build_input_sets())[2] == "bgp-64"
        monkeypatch.setattr(sharded_module, "_worker_scan_shard", _crash_on_bgp64)
        with pytest.raises(ShardFailedError) as excinfo:
            survey.run()
        assert isinstance(excinfo.value.error, InjectedCrash)
        assert excinfo.value.checkpoint_path is None

    def test_interrupt_mid_survey_ends_in_scan_interrupted(
        self, survey, monkeypatch
    ):
        real = sharded_module.drain_outcome
        drained = []

        def drain_then_interrupt(outcome, stats=None):
            real(outcome, stats)
            drained.append(outcome.shard)
            if len(drained) == 5:  # the first shard of the third scan
                survey.runner.request_interrupt()

        monkeypatch.setattr(sharded_module, "drain_outcome", drain_then_interrupt)
        with pytest.raises(ScanInterrupted) as excinfo:
            survey.run()
        assert excinfo.value.checkpoint_path is None
        assert (excinfo.value.completed, excinfo.value.remaining) == (1, 1)

    def test_failure_after_the_first_result_joins_the_pool(self, survey, monkeypatch):
        """The survey's own per-result work fails while the next jobs'
        shards are out: the pool is joined and their frames unlinked
        before the error leaves ``run``, not when the generator is
        collected."""

        def alias_filter_fails(*args):
            raise RuntimeError("alias filter failed")

        monkeypatch.setattr(survey, "_set_result", alias_filter_fails)
        # The caller holds the error, and with it the traceback's frames.
        with pytest.raises(RuntimeError, match="alias filter") as excinfo:
            survey.run()
        assert multiprocessing.active_children() == []
        assert survey.runner._prefetched is None
        assert excinfo.traceback

    def test_sigterm_between_results_unwinds_the_campaign(self, tmp_path):
        """SIGTERM while the caller works on a result and the pool has
        the next jobs out: the campaign ends in ScanInterrupted through
        scan_all's cleanup, leaving no worker and no ring frame."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        stderr = tmp_path / "stderr"
        with open(stderr, "w") as err:
            # Its own process group, which its pool workers join: whatever
            # is left of it at the end can be killed in one call.
            child = subprocess.Popen(
                [sys.executable, "-c", _CAMPAIGN_BETWEEN_RESULTS],
                stdout=subprocess.PIPE,
                stderr=err,
                env={**os.environ, "PYTHONPATH": path},
                text=True,
                start_new_session=True,
            )
        frames = f"sra{child.pid}-"
        workers = left = []
        try:
            workers = [int(pid) for pid in child.stdout.readline().split()]
            child.send_signal(signal.SIGTERM)
            child.wait(timeout=60)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and (
                any(map(_running, workers))
                or any(name.startswith(frames) for name in shm_segments())
            ):
                time.sleep(0.05)
            left = list(filter(_running, workers))
        finally:
            child.stdout.close()
            if child.poll() is None or left:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
        assert workers, stderr.read_text()
        assert "ScanInterrupted" in stderr.read_text()
        assert left == []
        assert not any(name.startswith(frames) for name in shm_segments())

    def test_closing_the_campaign_after_one_result_joins_the_pool(self, survey):
        scans = survey.runner.scan_all(survey_jobs(survey))
        first = next(scans)
        assert first.name == "bgp-plain"
        scans.close()

    def test_foreign_scan_mid_campaign_is_refused(self, survey, stress_targets):
        """While the campaign has the next scan's shards out, a scan of
        any other job raises ScanOrderError instead of adopting them; the
        campaign itself carries on to the serial bytes."""
        reference = survey_of(
            survey.world, survey.hitlist, survey.alias_list, shards=2,
            parallel="serial",
        )
        expected = [
            result.records
            for result in reference.runner.scan_all(survey_jobs(reference))
        ]
        scans = survey.runner.scan_all(survey_jobs(survey))
        got = [next(scans).records]
        config = ScanConfig(pps=200_000.0, seed=5)
        with pytest.raises(ScanOrderError, match="'bgp-48'"):
            survey.runner.scan(stress_targets, config, name="foreign", epoch=0)
        with pytest.raises(ScanOrderError, match="with a sink"):
            survey.runner.scan(
                stress_targets, config, name="bgp-48", epoch=0, sink=MemorySink()
            )
        got += [result.records for result in scans]
        assert got == expected

    def test_failed_scan_releases_the_frames_of_jobs_behind_it(
        self, tiny_world, stress_targets
    ):
        """The jobs submitted behind a failing scan finish on the pool,
        frames packed, and are never drained: the campaign unlinks them."""
        config = ScanConfig(pps=200_000.0, seed=5)
        jobs = [(PoisonedTargets(stress_targets), config, "poisoned", 1)]
        jobs += [(list(stress_targets), config, f"next{i}", 1) for i in (1, 2)]
        runner = ShardedScanRunner(tiny_world, shards=2, executor="process")
        with pytest.raises(ShardFailedError) as excinfo:
            list(runner.scan_all(jobs))
        assert isinstance(excinfo.value.error, InjectedCrash)

    def test_frames_are_released_when_a_checkpoint_write_fails(
        self, tiny_world, stress_targets, monkeypatch, tmp_path
    ):
        """A per-scan pool whose journal write fails after the first
        shard: the other shard's frame is never drained, and the runner
        unlinks it all the same."""

        def full_disk(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(sharded_module, "save_checkpoint", full_disk)
        runner = ShardedScanRunner(tiny_world, shards=2, executor="process")
        with pytest.raises(OSError, match="no space"):
            runner.scan(
                stress_targets,
                ScanConfig(pps=200_000.0, seed=5),
                name="scan",
                epoch=1,
                checkpoint=tmp_path / "scan.ckpt",
            )


class TestSurveyParallel:
    def test_sharded_survey_matches_serial(self, tiny_world):
        hitlist = harvest_hitlist(tiny_world, seed=97)
        alias_list = published_alias_list(tiny_world, seed=101)

        def run(shards):
            config = SurveyConfig(
                seed=11,
                max_bgp_48=2_000,
                max_bgp_64=2_000,
                max_route6=2_000,
                max_hitlist=2_000,
                shards=shards,
                parallel="serial",
            )
            return SRASurvey(
                tiny_world, hitlist, alias_list=alias_list, config=config
            ).run()

        serial = run(1)
        sharded = run(3)
        assert sharded.table2_rows() == serial.table2_rows()
        for name, result in serial.input_sets.items():
            other = sharded.input_sets[name]
            assert other.result.records == result.result.records
            assert other.router_ips == result.router_ips

    @pytest.mark.parametrize("shards", [2, 4])
    def test_process_survey_is_the_per_scan_pools_survey(
        self, tiny_world, tiny_hitlist, tiny_alias_list, monkeypatch, shards
    ):
        """One pool for the whole survey, and byte for byte what per-scan
        pools export: records, engine stats, Table 2, telemetry JSONL,
        Prometheus text and the runner's ring counters."""
        knobs = dict(shards=shards, parallel="process")
        per_scan = survey_of(tiny_world, tiny_hitlist, tiny_alias_list, **knobs)
        pools = count_pools(monkeypatch)
        expected = snapshot(per_scan, per_scan_survey(per_scan))
        assert len(pools) == 5
        pools.clear()
        survey = survey_of(tiny_world, tiny_hitlist, tiny_alias_list, **knobs)
        result = survey.run()
        assert len(pools) == 1
        assert snapshot(survey, [result]) == expected
        assert survey.runner.ring_stats.segments == 5 * shards
        serial = survey_of(
            tiny_world, tiny_hitlist, tiny_alias_list, parallel="serial"
        ).run()
        assert result.table2_rows() == serial.table2_rows()
        for name, input_set in serial.input_sets.items():
            assert result.input_sets[name].result.records == input_set.result.records

    @pytest.mark.parametrize(
        "shards, parallel, most",
        [(1, "serial", 1), (2, "serial", 1), (2, "process", min(2, CORES) + 1)],
    )
    def test_input_sets_are_realised_in_turn(
        self, tiny_world, tiny_hitlist, tiny_alias_list, monkeypatch, shards,
        parallel, most,
    ):
        """No set is realised before its turn: one resident at a time
        when nothing runs ahead, the scanned one and two started on the
        shared pool."""
        survey = survey_of(
            tiny_world, tiny_hitlist, tiny_alias_list, shards=shards,
            parallel=parallel,
        )
        streams = []
        build, scan = survey.build_input_sets, survey.runner.scan

        def built():
            sets = build()
            streams.extend(sets.values())
            return sets

        def scanned(*args, **kwargs):
            resident.append(sum(stream.realised for stream in streams))
            return scan(*args, **kwargs)

        resident = []
        monkeypatch.setattr(survey, "build_input_sets", built)
        monkeypatch.setattr(survey.runner, "scan", scanned)
        survey.run()
        assert len(resident) == 5 and max(resident) == most

    def test_repeated_process_survey_is_the_per_set_loop(
        self, tiny_world, tiny_hitlist, tiny_alias_list, monkeypatch
    ):
        """``run_repeated`` hands all times × 5 scans to one scan_all."""
        knobs = dict(shards=2, parallel="process")
        per_scan = survey_of(tiny_world, tiny_hitlist, tiny_alias_list, **knobs)
        expected = snapshot(per_scan, per_scan_survey(per_scan, times=2))
        pools = count_pools(monkeypatch)
        survey = survey_of(tiny_world, tiny_hitlist, tiny_alias_list, **knobs)
        results = survey.run_repeated(2)
        assert len(pools) == 1
        assert snapshot(survey, results) == expected
        serial = survey_of(
            tiny_world, tiny_hitlist, tiny_alias_list, parallel="serial"
        ).run_repeated(2)
        for got, want in zip(results, serial, strict=True):
            assert got.table2_rows() == want.table2_rows()
            for name, input_set in want.input_sets.items():
                assert got.input_sets[name].result.records == input_set.result.records

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2, reason="auto never forks on one core"
    )
    def test_auto_forks_the_same_scans(
        self, tiny_world, tiny_hitlist, tiny_alias_list, monkeypatch
    ):
        """Under ``auto`` each input set forks exactly when its own scan
        did on per-scan pools: those at the threshold, not the smaller."""
        knobs = dict(shards=2, parallel="auto")
        sizes = {
            name: len(targets)
            for name, targets in survey_of(
                tiny_world, tiny_hitlist, tiny_alias_list, **knobs
            ).build_input_sets().items()
        }
        threshold = max(sizes.values())
        assert min(sizes.values()) < threshold
        monkeypatch.setattr(sharded_module, "PROCESS_POOL_THRESHOLD", threshold)
        in_process = []
        real = sharded_module.scan_shard

        def spy(world, config, targets, **kwargs):
            in_process.append(kwargs["name"])
            return real(world, config, targets, **kwargs)

        monkeypatch.setattr(sharded_module, "scan_shard", spy)
        pools = count_pools(monkeypatch)
        per_scan = survey_of(tiny_world, tiny_hitlist, tiny_alias_list, **knobs)
        expected = snapshot(per_scan, per_scan_survey(per_scan))
        forked = [name for name, size in sizes.items() if size >= threshold]
        assert len(pools) == len(forked)
        expected_in_process, in_process[:] = list(in_process), []
        pools.clear()
        survey = survey_of(tiny_world, tiny_hitlist, tiny_alias_list, **knobs)
        assert snapshot(survey, [survey.run()]) == expected
        assert in_process == expected_in_process
        assert sorted(set(in_process)) == sorted(set(sizes) - set(forked))
        assert len(pools) == 1


class TestRunnerCLI:
    def test_experiment_ids_deduped_in_order(self):
        from repro.experiments.runner import resolve_experiment_ids

        assert resolve_experiment_ids(["table2", "table2"]) == ["table2"]
        assert resolve_experiment_ids(["fig5", "table2", "fig5"]) == [
            "fig5",
            "table2",
        ]

    def test_all_expands_sorted(self):
        from repro.experiments.runner import EXPERIMENTS, resolve_experiment_ids

        assert resolve_experiment_ids(["all"]) == sorted(EXPERIMENTS)
        assert resolve_experiment_ids([]) == sorted(EXPERIMENTS)

    def test_unknown_id_raises(self):
        from repro.experiments.runner import resolve_experiment_ids

        with pytest.raises(ValueError, match="unknown experiment"):
            resolve_experiment_ids(["table99"])

    def test_sra_scan_cli_sharded(self, capsys):
        from repro.scanner import cli

        code = cli.main(
            [
                "--world",
                "tiny",
                "--seed",
                "7",
                "--input-set",
                "bgp-plain",
                "--shards",
                "2",
                "--parallel",
                "serial",
                "--summary",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shards     : 2 (serial)" in out

    def test_sra_scan_cli_offers_no_thread_executor(self, capsys):
        from repro.scanner import cli

        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--shards", "2", "--parallel", "thread"])
        assert excinfo.value.code == 2
        assert "auto, process, serial" in capsys.readouterr().err.replace("'", "")
