"""Outside-in tracing: spans around the public callables of each layer.

``install()`` rebinds class attributes and module-level names of
``repro`` (and of this benchmark's ``workloads`` module) to wrappers that
record a span — name, start, end, parent — into an in-memory list.  A
span's name is the per-layer metric its *self* time (duration minus the
part its child spans cover) is reported under, so the breakdown sums to
the traced wall by construction.

Only per-scan and per-batch calls are wrapped.  Layers reachable only per
probe or per record, or only inside pool workers (permutation walk, shard
scans, the shared-memory ring), are measured by the ``replay_*``
functions instead: the same public functions called again, in-process,
on the inputs the traced campaign used.
"""

from __future__ import annotations

import os
import pickle
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

from repro.analysis.loops import LoopAnalysis
from repro.bgp.frozenfib import FrozenLPM
from repro.bgp.lpm import LengthIndexedLPM
from repro.core.survey import SRASurvey
from repro.netsim.engine import SimulationEngine
from repro.scanner.backends.resilient import ResilientBackend
from repro.scanner.backends.sim import SimBackend
from repro.scanner.sharded import ShardedScanRunner, scan_shard
from repro.scanner.shmring import RingStats, drain_outcome, pack_outcome
from repro.scanner.stream import IndexWindow, RecordSink, TargetStream, shard_positions
from repro.scanner.zmapv6 import ZMapV6Scanner
from repro.telemetry.scan import ScanTelemetry
from repro.topology.artifact import world_payload

TARGET_BUILDERS = (
    "bgp_plain_targets",
    "bgp_slash48_targets",
    "bgp_slash64_targets",
    "route6_slash64_targets",
    "hitlist_slash64_targets",
)
ENGINE_COUNTS = (
    "probes",
    "echo_replies",
    "error_replies",
    "suppressed_errors",
    "loops_hit",
    "lost",
)


@dataclass
class Tracer:
    """Span list, counters, and the inputs the replays need."""

    spans: list[list] = field(default_factory=list)  # [name, start, end, parent]
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    # (targets, seed, epoch) of every outermost scan: permutation replay.
    scans: list[tuple[int, int, int]] = field(default_factory=list)
    # (targets or their spec, config, name, epoch) of every runner scan:
    # shard replay.
    runner_calls: list[tuple] = field(default_factory=list)
    lpm_blocks: dict[int, set] = field(default_factory=lambda: defaultdict(set))
    _stack: list[int] = field(default_factory=list)
    _scan_depth: int = 0

    def wrap(self, name: str, fn, after=None):
        """``fn`` wrapped in a span called ``name``; ``after(result, args,
        kwargs)`` does the counting once the span has ended."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Rebind ``owner.attr`` (class attribute or module name)."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__, after))
        else:
            wrapped = self.wrap(name, raw, after)
        setattr(owner, attr, wrapped)

    def wrap_scan(self, name: str, fn, describe, after=None):
        """A span around a scan entry point.  The outermost one of a
        nest (runner.scan -> scanner.scan) owns the scan's exact counts;
        ``describe(args, kwargs)`` gives its (targets, seed, epoch)."""
        traced = self.wrap(name, fn, after)

        def scan(*args, **kwargs):
            self._scan_depth += 1
            try:
                result = traced(*args, **kwargs)
            finally:
                self._scan_depth -= 1
            if self._scan_depth == 0:
                self.scans.append(describe(args, kwargs))
                counts = self.counts
                counts["scanner.records.emitted"] += result.received
                stats = result.engine_stats
                for key in ENGINE_COUNTS:
                    counts[f"netsim.engine.{key}"] += getattr(stats, key)
            return result

        return scan

    def self_times(self, first: int = 0, last: "int | None" = None) -> dict[str, float]:
        """Self time per span name over ``spans[first:last]``."""
        spans = self.spans[first:last]
        covered = defaultdict(float)
        for _, start, end, parent in spans:
            if parent >= first:
                covered[parent - first] += end - start
        out: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(spans):
            out[name] += (end - start) - covered[index]
        return out


def install(tracer: Tracer) -> None:
    """Rebind every traced callable.  The process is expected to exit
    afterwards: nothing is restored."""
    import repro.core.probing as probing
    import repro.core.survey as survey
    import repro.scanner.cli as cli
    import repro.scanner.sharded as sharded
    import repro.topology.artifact as artifact
    import repro.topology.generator as generator

    import workloads

    counts = tracer.counts
    patch = tracer.patch

    def lpm_lookups(_, args, __):
        lpm, addresses, indices = args[0], args[1], args[2]
        counts["bgp.lpm.lookups"] += len(indices)
        shift = lpm.block_shift
        tracer.lpm_blocks[id(lpm)].update([addresses[i] >> shift for i in indices])

    def frozen_lookups(_, args, __):
        counts["bgp.frozenfib.lookups"] += len(args[2])

    patch(LengthIndexedLPM, "longest_match_batch", "bgp.lpm.batch_s", lpm_lookups)
    patch(FrozenLPM, "longest_match_batch", "bgp.frozenfib.batch_s", frozen_lookups)
    patch(SimulationEngine, "probe_columns", "netsim.engine.probe_columns_s")
    patch(SimBackend, "probe_columns", "scanner.backends.sim.seam_s")
    patch(SimBackend, "send_batch", "scanner.backends.sim.seam_s")

    def resilient_batch(*_):
        counts["scanner.backends.resilient.batches"] += 1

    patch(
        ResilientBackend,
        "send_batch",
        "scanner.backends.resilient.self_s",
        resilient_batch,
    )

    def generated(result, *_):
        counts["scanner.targets.count"] += len(result)

    for module in (survey, cli):
        for builder in TARGET_BUILDERS:
            patch(module, builder, "scanner.targets.generate_s", generated)
        patch(module, "filter_aliased", "core.aliasfilter.filter_s")
    draw = probing.random_targets_for_sras

    def drawn(*args):
        # A generator: consume it inside the span (the caller's LazyStream
        # would list() it right away, with the same draws in the same order).
        return list(draw(*args))

    probing.random_targets_for_sras = tracer.wrap(
        "scanner.targets.generate_s", drawn, generated
    )

    def scanner_scan(args, kwargs):
        scanner, targets = args[0], args[1]
        epoch = kwargs.get("epoch")
        if epoch is None:
            epoch = scanner.backend.epoch
        return len(targets), scanner.config.seed, epoch

    def scanned(*_):
        counts["scanner.zmapv6.scans"] += 1

    def runner_scan(args, kwargs):
        targets, config = args[1], args[2]
        epoch = kwargs.get("epoch", 0)
        # What the runner ships to a process pool: the stream's recipe
        # when it has one (each worker then rebuilds the targets), the
        # targets otherwise — copied now, the survey releases its streams.
        payload = targets.spec() if isinstance(targets, TargetStream) else None
        if payload is None:
            payload = list(targets)
        tracer.runner_calls.append((payload, config, kwargs.get("name"), epoch))
        return len(targets), config.seed, epoch

    ZMapV6Scanner.scan = tracer.wrap_scan(
        "scanner.zmapv6.scan_self_s", ZMapV6Scanner.scan, scanner_scan, scanned
    )
    ShardedScanRunner.scan = tracer.wrap_scan(
        "scanner.sharded.runner_self_s", ShardedScanRunner.scan, runner_scan
    )

    def merged(_, args, __):
        counts["scanner.sharded.replayed_checks"] += sum(
            len(outcome.checks) for outcome in args[1]
        )

    patch(sharded, "merge_shard_outcomes", "scanner.sharded.merge_s", merged)

    def saved(_, args, __):
        counts["scanner.checkpoint.saves"] += 1
        counts["scanner.checkpoint.bytes"] += os.path.getsize(args[1])

    patch(sharded, "save_checkpoint", "scanner.checkpoint.save_s", saved)
    patch(RecordSink, "drain", "scanner.stream.sink_emit_s")

    def exported(_, args, __):
        counts["telemetry.scan.events"] = len(args[0].events)

    patch(ScanTelemetry, "write_jsonl", "telemetry.scan.export_s", exported)
    patch(ScanTelemetry, "write_prometheus", "telemetry.scan.export_s")

    patch(SRASurvey, "run", "core.survey.self_s")
    patch(SRASurvey, "run_input_set", "core.survey.self_s")
    patch(LoopAnalysis, "from_scans", "analysis.loops.from_scans_s")
    patch(workloads, "run_sra_vs_random", "core.probing.self_s")
    patch(workloads, "run_stability", "core.probing.self_s")
    patch(cli, "main", "scanner.cli.self_s")

    build_world = tracer.wrap(
        "topology.generator.build_world_s", generator.build_world
    )
    build_artifact = tracer.wrap(
        "topology.artifact.build_s", generator.build_world_artifact
    )
    harvest = tracer.wrap("datasets.tum.harvest_s", workloads.harvest_hitlist)
    workloads.build_world = build_world
    cli.build_world = build_world
    # cli imports these two at call time, from their defining modules.
    workloads.build_world_artifact = build_artifact
    generator.build_world_artifact = build_artifact
    patch(artifact, "load_world_artifact", "topology.artifact.load_s")
    workloads.harvest_hitlist = harvest
    cli.harvest_hitlist = harvest


def working_set_blocks(tracer: Tracer) -> int:
    """Distinct cache blocks the BGP/resolution LPMs were asked for,
    for the largest table (compare with the 8,192-block cache)."""
    return max((len(blocks) for blocks in tracer.lpm_blocks.values()), default=0)


def replay_permutation(scans) -> dict[str, float]:
    """Walk each scan's visit order again, serially."""
    positions = 0
    start = perf_counter()
    for size, seed, epoch in scans:
        for _ in shard_positions(
            size, seed=seed, epoch=epoch, window=IndexWindow(0, 1), permute=True
        ):
            positions += 1
    return {
        "addr.permutation.iterate_s": perf_counter() - start,
        "addr.permutation.positions": positions,
    }


def replay_shards(world, runner_calls, shards: int) -> dict[str, float]:
    """What the pool workers did, one shard at a time in this process:
    ``scan_shard`` per (scan, shard), then the ring's pack and drain."""
    slowest = total = pack_s = drain_s = 0.0
    stats = RingStats()
    for payload, config, name, epoch in runner_calls:
        times = []
        for shard in range(shards):
            start = perf_counter()
            outcome = scan_shard(
                world, config, payload, name=name, epoch=epoch, shard=shard, shards=shards
            )
            times.append(perf_counter() - start)
            start = perf_counter()
            pack_outcome(outcome)
            packed = perf_counter()
            drain_outcome(outcome, stats)
            drain_s += perf_counter() - packed
            pack_s += packed - start
        slowest += max(times)
        total += sum(times)
    return {
        "scanner.sharded.shard_scan_s_max": slowest,
        "scanner.sharded.shard_scan_s_sum": total,
        "scanner.shmring.pack_s": pack_s,
        "scanner.shmring.drain_s": drain_s,
    }


def worldref_bytes(world) -> int:
    """Size of what a process pool ships to each worker for ``world``."""
    return len(pickle.dumps(world_payload(world)))
