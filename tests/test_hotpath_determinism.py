"""Hot-path determinism regression tests.

The batched probe engine, the LPM/trie result caches, and the memoised
stable-randomness hashers are all pure throughput work: results must be
bit-identical to the independent per-probe model in
``reference_engine.py``, called once per probe.  These tests pin that
contract at chunk sizes 1 vs N and on deferred shards, hold sinks,
telemetry and crash-resume to the plain scan, and compare whole scans
against the reference model.  The shards × batch × backend × executor ×
targets × sink comparison lives in ``test_identity_matrix.py``.
"""

import random
from contextlib import nullcontext
from dataclasses import asdict

import pytest
from faults import ChaosEngine, FailingSink, FaultPlan, InjectedSinkError, injected
from reference_harness import probe_row, reference_rows, reference_scan, row_of

from repro.core.probing import run_sra_vs_random
from repro.netsim.engine import FLAG_REPLY, SimulationEngine
from repro.scanner.sharded import ShardedScanRunner
from repro.scanner.backends.sim import SimBackend
from repro.scanner.records import ScanRecord
from repro.scanner.stream import (
    CountingSink,
    CsvSink,
    JsonlSink,
    MemorySink,
    TeeSink,
)
from repro.scanner.targets import bgp_slash48_targets
from repro.scanner.zmapv6 import ScanConfig, ZMapV6Scanner
from repro.telemetry import ScanTelemetry


@pytest.fixture(scope="module")
def stress_targets(tiny_world):
    """Targets covering every engine behaviour: routed subnets (SRA, rate
    limiting), unassigned space, and amplifying loop regions."""
    targets = list(
        bgp_slash48_targets(
            tiny_world.bgp,
            max_per_prefix=12,
            max_targets=2_000,
            rng=random.Random(3),
        )
    )
    for region in tiny_world.loop_regions[:2]:
        targets.extend(region.prefix.network | offset for offset in range(1, 30))
    return targets


@pytest.fixture(scope="module")
def class_targets(tiny_world):
    """Every destination class the kernel branches on, each address twice.

    ``stress_targets`` holds one target per subnet; here, for one subnet
    of every (state, router policy) combination the world has, the batch
    repeats the SRA address, the router interface, a host and an
    unassigned in-subnet address — several rows of one subnet and one
    router per batch — and adds alias-region, infrastructure (interface
    and not), announced-but-unassigned, unrouted and loop targets.
    """
    world = tiny_world
    chosen = {}
    for subnet in world.subnets.values():
        router = world.routers[subnet.router_id]
        key = (
            subnet.aliased,
            subnet.flaky,
            subnet.death_epoch is not None and subnet.death_epoch <= 3,
            bool(subnet.hosts),
            router.vendor.sra_behavior,
            router.replies_from_peering and router.peering_lan_address is not None,
            router.sra_from_primary,
            router.unstable_reply_source,
            router.errors_from_primary,
            router.emits_unreachables,
            router.answers_direct_ping,
        )
        chosen.setdefault(key, subnet)
    seen = {flag: set() for flag in range(2, 11)}
    for key in chosen:
        for flag in seen:
            seen[flag].add(key[flag])
    # The world must offer both sides of every policy the kernel reads.
    assert all(len(values) > 1 for values in seen.values()), seen
    assert {key[:2] for key in chosen} >= {(False, False), (True, False), (False, True)}
    targets = []
    for subnet in chosen.values():
        unassigned = subnet.prefix.first | 0xFFF7
        assert unassigned not in subnet.hosts
        assert unassigned != subnet.router_interface
        targets += [subnet.sra_address, subnet.router_interface, unassigned]
        targets += subnet.hosts[:1]
    for region in world.alias_regions[:2]:
        targets += [region.prefix.network, region.prefix.network | 0xBEEF]
    for infra in list(world.infra_subnets.values())[:6]:
        targets += list(infra.interfaces)[:2]
        targets.append(infra.prefix.first | 0xFFF7)
    for region in world.loop_regions[:3]:
        targets += [region.prefix.network | offset for offset in (1, 2)]
    targets += bgp_slash48_targets(
        world.bgp, max_per_prefix=2, max_targets=60, rng=random.Random(9)
    )
    targets += [0xFD00 << 112 | index << 64 for index in range(4)]  # unrouted
    targets += targets
    random.Random(11).shuffle(targets)
    return targets


def scan_snapshot(result):
    """Everything a scan produced, in comparable form."""
    return (
        result.records,
        result.sent,
        result.lost,
        result.loops_observed,
        result.duration,
        asdict(result.engine_stats),
    )


class TestBatchPathEquivalence:
    """Chunk-boundary invariance (identical ScanResults for any batch
    size) and scalar-vs-kernel equality at engine and scan level."""

    def _scan(self, world, targets, *, batch_size, epoch=0):
        engine = SimulationEngine(world, epoch=epoch)
        scanner = ZMapV6Scanner(
            engine, ScanConfig(pps=150_000.0, seed=5, batch_size=batch_size)
        )
        return scanner.scan(targets, name="scan", epoch=epoch)

    @pytest.mark.parametrize("batch_size", [2, 7, 256, 1024, 10**6])
    def test_batched_scan_matches_single(
        self, tiny_world, stress_targets, batch_size
    ):
        single = self._scan(tiny_world, stress_targets, batch_size=1)
        batched = self._scan(
            tiny_world, stress_targets, batch_size=batch_size
        )
        assert scan_snapshot(batched) == scan_snapshot(single)

    @pytest.mark.parametrize("shard, shards", [(0, 1), (1, 3)])
    def test_scan_matches_per_probe_reference(
        self, tiny_world, stress_targets, shard, shards
    ):
        """The scanner (columnar kernel, chunking, pacing, probe ids)
        against the reference model, one probe at a time in
        ``shard_positions`` order."""
        pps, seed, epoch = 150_000.0, 5, 2
        records, lost, loops, stats = reference_scan(
            tiny_world,
            stress_targets,
            pps=pps,
            seed=seed,
            epoch=epoch,
            shard=shard,
            shards=shards,
        )
        scanned = ZMapV6Scanner(
            SimulationEngine(tiny_world, epoch=epoch),
            ScanConfig(pps=pps, seed=seed, shard=shard, shards=shards),
        ).scan(stress_targets, name="scan", epoch=epoch)
        assert records and lost and loops  # every path is exercised
        assert scanned.records == records
        assert (scanned.lost, scanned.loops_observed) == (lost, loops)
        assert asdict(scanned.engine_stats) == stats

    def test_batch_size_one_is_a_chunk_of_one(self, tiny_world, stress_targets):
        """``batch_size=1`` selects nothing: the backend is driven through
        ``probe_columns`` only, one probe per call."""

        class ColumnsOnly(SimBackend):
            calls = 0

            def probe_columns(self, targets, *args, **kwargs):
                assert len(targets) == 1
                self.calls += 1
                return super().probe_columns(targets, *args, **kwargs)

        backend = ColumnsOnly(SimulationEngine(tiny_world, epoch=0))
        result = ZMapV6Scanner(
            backend, ScanConfig(pps=150_000.0, seed=5, batch_size=1)
        ).scan(stress_targets, name="scan", epoch=0)
        assert backend.calls == result.sent == len(stress_targets)
        assert scan_snapshot(result) == scan_snapshot(
            self._scan(tiny_world, stress_targets, batch_size=1024)
        )

    @pytest.mark.parametrize("with_ids", [True, False])
    def test_sim_backend_rows_are_the_reference(
        self, tiny_world, stress_targets, with_ids
    ):
        """The sim backend's rows against the reference model (probe ids
        given or defaulted to 0)."""
        targets = stress_targets[:600]
        times = [i / 150_000.0 for i in range(len(targets))]
        ids = list(range(len(targets))) if with_ids else None
        expected, stats = reference_rows(
            tiny_world, targets, times, epoch=2, probe_ids=ids
        )
        columnar = SimBackend(SimulationEngine(tiny_world, epoch=2))
        cols = columnar.probe_columns(targets, times, probe_ids=ids)
        assert [row_of(cols, i) for i in range(cols.n)] == expected
        assert asdict(columnar.stats) == stats

    def test_probe_columns_match_serial_probe(self, tiny_world, stress_targets):
        """Column-level contract: the packed verdict/source/TTL columns
        hold, row for row, what the reference model answers one probe at
        a time, and so do one-row batches."""
        targets = stress_targets[:600]
        times = [i / 150_000.0 for i in range(len(targets))]
        ids = list(range(len(targets)))
        expected, stats = reference_rows(
            tiny_world, targets, times, epoch=2, probe_ids=ids
        )
        col_engine = SimulationEngine(tiny_world, epoch=2)
        cols = col_engine.probe_columns(targets, times, probe_ids=ids)
        assert [row_of(cols, i) for i in range(cols.n)] == expected
        assert asdict(col_engine.stats) == stats
        serial_engine = SimulationEngine(tiny_world, epoch=2)
        assert [
            probe_row(serial_engine, target, time, probe_id=probe_id)
            for target, time, probe_id in zip(targets, times, ids)
        ] == expected
        assert asdict(serial_engine.stats) == stats

    # 2**62 and -1 do not pack as one key word: the kernel's draws take
    # their generic fallback there.
    @pytest.mark.parametrize("epoch", [0, 3, 2**62, -1])
    def test_kernel_matches_reference_on_every_destination_class(
        self, tiny_world, class_targets, epoch
    ):
        """Several rows of one subnet and one router in a batch, at hop
        limits on both sides of every transit length: ``probe_columns``
        at batch sizes n and 1 equals the reference model, one probe per
        row."""
        targets = class_targets
        times = [i / 150_000.0 for i in range(len(targets))]
        ids = [(epoch << 32) | i for i in range(len(targets))]
        transits = {len(path) for path in tiny_world.paths.values()}
        hop_limits = {0, 1, 64} | transits | {hops + 1 for hops in transits}
        totals = dict.fromkeys(
            ("suppressed_errors", "error_replies", "echo_replies", "lost", "loops_hit"), 0
        )
        for hop_limit in sorted(hop_limits):
            expected, stats = reference_rows(
                tiny_world, targets, times, epoch=epoch, hop_limit=hop_limit, probe_ids=ids
            )
            batch_engine = SimulationEngine(tiny_world, epoch=epoch)
            cols = batch_engine.probe_columns(
                targets, times, hop_limit=hop_limit, probe_ids=ids
            )
            assert [row_of(cols, i) for i in range(cols.n)] == expected, hop_limit
            assert asdict(batch_engine.stats) == stats, hop_limit
            single_engine = SimulationEngine(tiny_world, epoch=epoch)
            single = [
                row_of(
                    single_engine.probe_columns(
                        targets[i : i + 1],
                        times[i : i + 1],
                        hop_limit=hop_limit,
                        probe_ids=ids[i : i + 1],
                    ),
                    0,
                )
                for i in range(len(targets))
            ]
            assert single == expected, hop_limit
            assert asdict(single_engine.stats) == stats, hop_limit
            for name in totals:
                totals[name] += stats[name]
        # every effect is exercised, the rate limiter on both sides
        assert all(totals.values()), totals

    @pytest.mark.parametrize("epoch", [0, 3, 2**62, -1])
    @pytest.mark.parametrize("hop_limit", [1, 3, 64])
    def test_deferred_shards_replay_to_serial_on_every_class(
        self, tiny_world, class_targets, epoch, hop_limit
    ):
        """Four deferred shards plus the merge's rate-limit replay
        through ``error_allowed()`` equal the serial scan."""
        config = ScanConfig(pps=150_000.0, seed=5, hop_limit=hop_limit)
        serial = ZMapV6Scanner(
            SimulationEngine(tiny_world, epoch=epoch), config
        ).scan(class_targets, name="scan", epoch=epoch)
        sharded = ShardedScanRunner(
            tiny_world, shards=4, executor="serial"
        ).scan(class_targets, config, name="scan", epoch=epoch)
        assert serial.engine_stats.suppressed_errors
        assert scan_snapshot(sharded) == scan_snapshot(serial)


class TestEpochIsolation:
    """Batching must not leak the memoised hasher across epochs."""

    def test_new_epoch_changes_draws(self, tiny_world, stress_targets):
        targets = stress_targets[:400]
        times = [i / 150_000.0 for i in range(len(targets))]

        def run(epoch):
            engine = SimulationEngine(tiny_world, epoch=epoch)
            cols = engine.probe_columns(
                targets, times, probe_ids=list(range(len(targets)))
            )
            flags = cols.flags.tobytes()[: cols.n]
            return flags, [
                (cols.source(i), cols.icmp_type[i], cols.code[i], cols.count[i])
                for i in range(cols.n)
                if flags[i] & FLAG_REPLY
            ]

        assert run(0) == run(0)
        assert run(0) != run(4)


class TestTelemetryDeterminism:
    """Telemetry never changes what a scan finds.  (That it is the same
    for every shard and batch count, and run after run, is
    tests/test_identity_matrix.py's.)"""

    CFG = dict(pps=200_000.0, seed=5, progress_every=500)
    EPOCH = 2

    def test_telemetry_never_changes_scan_results(
        self, tiny_world, stress_targets
    ):
        def run(telemetry):
            engine = SimulationEngine(tiny_world, epoch=self.EPOCH)
            scanner = ZMapV6Scanner(
                engine, ScanConfig(**self.CFG), telemetry=telemetry
            )
            return scanner.scan(stress_targets, name="scan", epoch=self.EPOCH)

        observed = run(ScanTelemetry())
        bare = run(None)
        assert scan_snapshot(observed) == scan_snapshot(bare)


class TestStreamVsListEquivalence:
    """The streaming pipeline is pure plumbing: record sinks change
    memory behaviour, never bytes.  Here: file sinks against the writers,
    one drain per batch, a failing sink, and a journal's one-shard
    differences.  (List vs stream and buffered vs sink across shard and
    batch counts are tests/test_identity_matrix.py's.)
    """

    CFG = dict(pps=200_000.0, seed=5, progress_every=500)
    EPOCH = 2

    def _scan(
        self, world, targets, *, batch_size=1024, sink=None, telemetry=None
    ):
        engine = SimulationEngine(world, epoch=self.EPOCH)
        scanner = ZMapV6Scanner(
            engine,
            ScanConfig(batch_size=batch_size, **self.CFG),
            telemetry=telemetry,
        )
        return scanner.scan(
            targets, name="scan", epoch=self.EPOCH, sink=sink
        )

    def test_file_sinks_byte_identical_to_writers(
        self, tiny_world, stress_targets, tmp_path
    ):
        buffered = self._scan(tiny_world, stress_targets)
        buffered.write_jsonl(tmp_path / "buffered.jsonl")
        buffered.write_csv(tmp_path / "buffered.csv")
        sink = TeeSink(
            (JsonlSink(tmp_path / "stream.jsonl"), CsvSink(tmp_path / "stream.csv"))
        )
        with sink:
            self._scan(tiny_world, stress_targets, sink=sink)
        assert (tmp_path / "stream.jsonl").read_bytes() == (
            tmp_path / "buffered.jsonl"
        ).read_bytes()
        assert (tmp_path / "stream.csv").read_bytes() == (
            tmp_path / "buffered.csv"
        ).read_bytes()

    @pytest.mark.parametrize("batch_size", [1, 7, 1024])
    def test_in_place_streaming_hands_over_one_drain_per_batch(
        self, tiny_world, stress_targets, tmp_path, batch_size
    ):
        """The sink gets the buffered scan's records, in its order and to
        its bytes, in one ``drain`` per batch that matched anything."""
        buffered = self._scan(tiny_world, stress_targets)
        buffered.write_jsonl(tmp_path / "buffered.jsonl")

        class DrainSpy:
            def __init__(self, sink):
                self.sink, self.batches = sink, []

            def drain(self, rows):
                self.batches.append(rows)
                self.sink.drain(rows)

        memory = MemorySink()
        spy = DrainSpy(TeeSink((memory, JsonlSink(tmp_path / "stream.jsonl"))))
        streamed = self._scan(
            tiny_world, stress_targets, batch_size=batch_size, sink=spy
        )
        spy.sink.close()
        assert memory.rows == buffered.rows
        assert (tmp_path / "stream.jsonl").read_bytes() == (
            tmp_path / "buffered.jsonl"
        ).read_bytes()
        assert streamed.records_streamed == len(buffered.records)
        # An unsharded scan probes position p at p / pps, batch p // size.
        expected: dict[int, list[ScanRecord]] = {}
        for record in buffered.records:
            position = round(record.time * self.CFG["pps"])
            expected.setdefault(position // batch_size, []).append(record)
        assert [list(batch) for batch in spy.batches] == list(expected.values())

    def test_failed_streaming_scan_leaves_the_facade_untouched(
        self, tiny_world, stress_targets
    ):
        """A sink that raises mid-scan: nothing of that scan reaches the
        facade but the ``scan_started`` emitted before its first probe."""
        telemetry = ScanTelemetry()
        self._scan(tiny_world, stress_targets, telemetry=telemetry)
        registry_before = telemetry.registry.as_dict()
        prometheus_before = telemetry.to_prometheus()
        events_before = list(telemetry.events)
        sink = FailingSink(MemorySink(), fail_after=40)
        with pytest.raises(InjectedSinkError):
            self._scan(
                tiny_world, stress_targets, telemetry=telemetry, sink=sink
            )
        assert sink.emitted == 40
        assert telemetry.registry.as_dict() == registry_before
        assert telemetry.to_prometheus() == prometheus_before
        assert telemetry.events[: len(events_before)] == events_before
        assert [
            event["event"] for event in telemetry.events[len(events_before):]
        ] == ["scan_started"]

    def test_in_place_vs_journaled_one_shard_differences_pinned(
        self, tiny_world, stress_targets, tmp_path
    ):
        """What a checkpoint journal changes at one shard, exactly: the
        scan runs as a deferred shard, so the stream gains a
        ``shard_finished`` and ``progress`` counts provisional error
        records the replay later drops.  Records, every other event field
        and the Prometheus text are identical."""

        def run(checkpoint):
            telemetry = ScanTelemetry()
            runner = ShardedScanRunner(
                tiny_world, shards=1, executor="serial", telemetry=telemetry
            )
            result = runner.scan(
                stress_targets,
                ScanConfig(**self.CFG),
                name="scan",
                epoch=self.EPOCH,
                checkpoint=checkpoint,
            )
            return result, telemetry

        in_place, plain = run(None)
        journaled, deferred = run(tmp_path / "scan.ckpt")
        assert scan_snapshot(journaled) == scan_snapshot(in_place)
        assert deferred.to_prometheus() == plain.to_prometheus()
        assert deferred.to_jsonl() != plain.to_jsonl()

        def comparable(events):
            out = []
            for event in events:
                if event["event"] == "shard_finished":
                    continue
                event = {k: v for k, v in event.items() if k != "seq"}
                if event["event"] == "progress":
                    del event["records"]
                out.append(event)
            return out

        assert comparable(deferred.events) == comparable(plain.events)
        assert [e["event"] for e in plain.events].count("shard_finished") == 0
        finished = [e for e in deferred.events if e["event"] == "shard_finished"]
        assert len(finished) == 1
        assert finished[0]["records"] == len(in_place.records)
        pairs = [
            (ours["records"], theirs["records"])
            for ours, theirs in zip(
                (e for e in deferred.events if e["event"] == "progress"),
                (e for e in plain.events if e["event"] == "progress"),
            )
        ]
        assert pairs and all(ours >= theirs for ours, theirs in pairs)
        assert pairs[-1][0] > pairs[-1][1]  # the limiter did suppress

    def test_a_journaled_tee_sink_exports_like_a_serial_sink(
        self, tiny_world, stress_targets, tmp_path
    ):
        """sra-scan's operator shape (the scan_export benchmark): one
        deferred shard through the journal and the merge, which must fold
        the metrics before the sink takes the records — even the gauges
        agree with a serial scan's sink."""
        serial = ScanTelemetry()
        reference = MemorySink()
        self._scan(tiny_world, stress_targets, telemetry=serial, sink=reference)
        journaled = ScanTelemetry()
        runner = ShardedScanRunner(
            tiny_world, shards=1, executor="serial", telemetry=journaled
        )
        memory = MemorySink()
        result = runner.scan(
            stress_targets,
            ScanConfig(**self.CFG),
            name="scan",
            epoch=self.EPOCH,
            sink=TeeSink((memory, CountingSink())),
            checkpoint=tmp_path / "scan.ckpt",
        )
        assert journaled.to_prometheus() == serial.to_prometheus()
        assert memory.rows == reference.rows
        assert (len(result.records), result.records_streamed) == (
            0,
            len(reference.rows),
        )


class TestCrashResumeDeterminism:
    """Kill-at-shard-N → resume must equal the uninterrupted run, byte
    for byte: merged records, Prometheus export, telemetry JSONL, and
    streamed JSONL output files.

    The interrupted run uses a :class:`ChaosEngine` (armed by
    :func:`faults.injected`) to self-interrupt
    mid-scan (exactly what the SIGINT/SIGTERM handlers do) and salvages
    completed shards into a checkpoint; the resume re-runs only the
    missing index windows.  The baseline runs with checkpointing enabled
    too — journaled scans run one dispatch loop at every shard count, so
    this also pins "journal on, never interrupted" against "journal on,
    killed, resumed".
    """

    CFG = dict(pps=200_000.0, seed=5, progress_every=500)
    EPOCH = 2

    def _runner(self, world, shards):
        return ShardedScanRunner(
            world, shards=shards, executor="serial", sleep=lambda _d: None
        )

    def _scan(self, world, targets, *, shards, checkpoint, sink_path=None,
              resume=False, chaos=None):
        from repro.scanner.stream import JsonlSink

        telemetry = ScanTelemetry()
        sink = JsonlSink(sink_path) if sink_path else None
        try:
            with injected(chaos) if chaos is not None else nullcontext():
                result = self._runner(world, shards).scan(
                    targets,
                    ScanConfig(**self.CFG),
                    name="scan",
                    epoch=self.EPOCH,
                    telemetry=telemetry,
                    sink=sink,
                    checkpoint=checkpoint,
                    resume=resume,
                )
        except BaseException:
            if sink is not None:
                sink.abort()
            raise
        if sink is not None:
            sink.close()
        return result, telemetry

    @pytest.mark.parametrize("shards", [1, 4, 8])
    def test_resume_is_byte_identical(
        self, tiny_world, stress_targets, tmp_path, shards
    ):
        from repro.scanner.sharded import ScanInterrupted

        checkpoint = tmp_path / f"scan-{shards}.ckpt"
        baseline, base_telemetry = self._scan(
            tiny_world,
            stress_targets,
            shards=shards,
            checkpoint=checkpoint,
            sink_path=tmp_path / "baseline.jsonl",
        )
        assert not checkpoint.exists()

        chaos = ChaosEngine(
            plan=FaultPlan(interrupt_after_shards=max(1, shards // 2))
        )
        with pytest.raises(ScanInterrupted) as excinfo:
            self._scan(
                tiny_world,
                stress_targets,
                shards=shards,
                checkpoint=checkpoint,
                sink_path=tmp_path / "resumed.jsonl",
                chaos=chaos,
            )
        assert checkpoint.exists()
        assert excinfo.value.completed >= 1
        # The kill left only a .partial output, never a torn destination.
        assert not (tmp_path / "resumed.jsonl").exists()

        resumed, resumed_telemetry = self._scan(
            tiny_world,
            stress_targets,
            shards=shards,
            checkpoint=checkpoint,
            sink_path=tmp_path / "resumed.jsonl",
            resume=True,
        )
        assert not checkpoint.exists()
        assert resumed.records == baseline.records
        assert resumed.records_streamed == baseline.records_streamed
        assert asdict(resumed.engine_stats) == asdict(baseline.engine_stats)
        assert resumed_telemetry.to_jsonl() == base_telemetry.to_jsonl()
        assert (
            resumed_telemetry.to_prometheus() == base_telemetry.to_prometheus()
        )
        assert (tmp_path / "resumed.jsonl").read_bytes() == (
            tmp_path / "baseline.jsonl"
        ).read_bytes()

    def test_recovery_mode_equals_plain_run(
        self, tiny_world, stress_targets, tmp_path
    ):
        """Journal on == journal off.  Both run the one dispatch loop —
        the journal only makes ``flush()`` write — so checkpointing must
        not perturb a byte, and a finished scan leaves no journal."""
        plain = ScanTelemetry()
        plain_result = ShardedScanRunner(
            tiny_world, shards=4, executor="serial"
        ).scan(
            stress_targets,
            ScanConfig(**self.CFG),
            name="scan",
            epoch=self.EPOCH,
            telemetry=plain,
        )
        journalled_result, journalled = self._scan(
            tiny_world,
            stress_targets,
            shards=4,
            checkpoint=tmp_path / "scan.ckpt",
        )
        assert not (tmp_path / "scan.ckpt").exists()
        assert journalled_result.records == plain_result.records
        assert asdict(journalled_result.engine_stats) == asdict(
            plain_result.engine_stats
        )
        assert journalled.to_jsonl() == plain.to_jsonl()
        assert journalled.to_prometheus() == plain.to_prometheus()

    def test_table2_survey_interrupt_and_resume(self, tmp_path):
        """The paper's Table 2 mini-survey, killed mid-campaign and
        resumed from its checkpoint directory: identical survey output."""
        from repro.core.survey import SRASurvey, SurveyConfig
        from repro.scanner.sharded import ScanInterrupted
        from repro.datasets.tum import harvest_hitlist, published_alias_list
        from repro.topology.config import tiny_config
        from repro.topology.generator import build_world

        world = build_world(tiny_config(seed=7))
        hitlist = harvest_hitlist(world, seed=97)
        aliases = published_alias_list(world, seed=101)
        budgets = dict(
            seed=13,
            slash48_per_prefix=4,
            max_bgp_48=600,
            slash64_per_prefix=4,
            max_bgp_64=500,
            route6_per_prefix=2,
            max_route6=600,
            max_hitlist=600,
        )
        checkpoint_dir = tmp_path / "journals"

        def survey(runner):
            return SRASurvey(
                world,
                hitlist,
                alias_list=aliases,
                config=SurveyConfig(**budgets),
                runner=runner,
            ).run()

        def runner():
            return ShardedScanRunner(
                world,
                shards=4,
                executor="serial",
                sleep=lambda _d: None,
                checkpoint_dir=checkpoint_dir,
            )

        baseline = survey(
            ShardedScanRunner(world, shards=4, executor="serial")
        )
        chaos = ChaosEngine(plan=FaultPlan(interrupt_after_shards=2))
        with pytest.raises(ScanInterrupted), injected(chaos):
            survey(runner())
        assert list(checkpoint_dir.glob("*.ckpt"))
        # Re-running the same campaign auto-resumes from the journals.
        resumed = survey(runner())
        assert not list(checkpoint_dir.glob("*.ckpt"))
        assert set(resumed.input_sets) == set(baseline.input_sets)
        for name, expected in baseline.input_sets.items():
            got = resumed.input_sets[name]
            assert got.router_ips == expected.router_ips, name
            assert scan_snapshot(got.result) == scan_snapshot(
                expected.result
            ), name
        assert resumed.table2_rows() == baseline.table2_rows()

    @pytest.mark.parametrize("shards", [1, 4])
    def test_fig5_campaign_interrupt_and_resume(
        self, tiny_world, tiny_hitlist, tmp_path, shards
    ):
        """The Fig. 5 SRA-vs-random campaign, killed mid-epoch and
        resumed from its checkpoint directory: identical series."""
        from repro.scanner.sharded import ScanInterrupted

        sra_targets = tiny_hitlist.unique_slash64s()[:1200]
        checkpoint_dir = tmp_path / "journals"
        checkpoint_dir.mkdir()

        def campaign(runner):
            series = run_sra_vs_random(
                tiny_world, sra_targets, epochs=2, runner=runner
            )
            return [
                scan_snapshot(scan.result)
                for scan in series.sra + series.random
            ]

        def runner():
            return ShardedScanRunner(
                tiny_world,
                shards=shards,
                executor="serial",
                sleep=lambda _d: None,
                checkpoint_dir=checkpoint_dir,
            )

        baseline = campaign(
            ShardedScanRunner(tiny_world, shards=shards, executor="serial")
        )
        chaos = ChaosEngine(
            plan=FaultPlan(interrupt_after_shards=max(1, shards // 2))
        )
        with pytest.raises(ScanInterrupted), injected(chaos):
            campaign(runner())
        assert list(checkpoint_dir.glob("*.ckpt"))
        # Re-running the same campaign auto-resumes from the journals.
        resumed = campaign(runner())
        assert not list(checkpoint_dir.glob("*.ckpt"))
        assert resumed == baseline
