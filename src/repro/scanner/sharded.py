"""Sharded parallel scan execution with deterministic merge semantics.

The paper's real campaign splits its 28.2 B-target scan across machines
using zmap's sharding: shard *i* of *N* visits every *N*-th slot of the
cyclic-group permutation.  :class:`ShardedScanRunner` reproduces that for
the simulator and executes the shards — concurrently on a process pool
for large scans, one after another in this process for small ones —
while guaranteeing that the merged result is **bit-for-bit identical** to
a serial run of the same seed and epoch.

Why determinism is non-trivial: the simulation engine is almost entirely
stateless per probe (loss, subnet liveness, reply sources are all stable
hashes of seed/target/epoch), *except* for the RFC 4443 token bucket and
its background-load gate, whose verdicts depend on the full time-ordered
sequence of error emissions per router — state that interleaves across
shards.  The runner therefore executes each shard with the rate limiter
*deferred* (every check is recorded as ``(time, router_id)`` and
provisionally allowed) and replays all recorded checks in global virtual
time order on a fresh engine at merge time.  Because every shard paces on
its global permutation position, the replay sees exactly the call
sequence a serial scan would have produced, so the same error records are
suppressed and the same counters come out.
"""

from __future__ import annotations

import gc
import itertools
import os
import signal
import threading
import time
from array import array
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import partial
from operator import getitem, itemgetter, not_, or_
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from ..netsim.engine import EngineStats, SimulationEngine
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.scan import (
    HotPathCollector,
    ScanTelemetry,
    ShardTelemetry,
    merge_first_times,
    populate_registry,
)
from ..topology.artifact import WorldRef, resolve_world_ref, world_payload
from ..topology.entities import World
from .backends import BACKENDS, RetryPolicy
from .checkpoint import (
    ScanCheckpoint,
    config_key,
    load_checkpoint,
    restore_telemetry,
    save_checkpoint,
    snapshot_telemetry,
    target_fingerprint,
)
from .records import RecordColumns, ScanResult, merge_results
from .shmring import (
    RingHandle,
    RingStats,
    drain_outcome,
    outcome_columns,
    outcome_rows,
    pack_outcome,
    release_frame,
    release_outcome,
)
from .stream import (
    RecordSink,
    TargetStream,
    scannable,
    stream_buffered,
)
from .zmapv6 import ScanConfig, ZMapV6Scanner

__all__ = [
    "ScanInterrupted",
    "ScanOrderError",
    "ShardFailedError",
    "ShardOutcome",
    "ShardedScanRunner",
    "auto_shard_count",
    "merge_shard_outcomes",
    "scan_shard",
]


class ScanInterrupted(RuntimeError):
    """The scan stopped on SIGINT/SIGTERM after flushing a checkpoint.

    Completed shards are salvaged in the journal at ``checkpoint_path``;
    re-running with ``resume`` finishes only the remaining shards.  A
    scan that does not journal has ``checkpoint_path`` None and nothing
    to resume from.
    """

    def __init__(
        self, checkpoint_path: "Path | None", completed: int, remaining: int
    ) -> None:
        self.checkpoint_path = checkpoint_path
        self.completed = completed
        self.remaining = remaining
        where = (
            f"; {completed} completed shard(s) saved to {checkpoint_path}"
            if checkpoint_path is not None
            else ""
        )
        super().__init__(
            f"scan interrupted with {remaining} shard(s) outstanding{where}"
        )


class ShardFailedError(RuntimeError):
    """A shard kept failing past ``max_shard_retries``."""

    def __init__(
        self,
        shard: int,
        attempts: int,
        error: BaseException,
        checkpoint_path: "Path | None",
    ) -> None:
        self.shard = shard
        self.attempts = attempts
        self.error = error
        self.checkpoint_path = checkpoint_path
        salvage = (
            f" (completed shards salvaged in {checkpoint_path})"
            if checkpoint_path is not None
            else ""
        )
        super().__init__(
            f"shard {shard} failed {attempts} attempt(s): "
            f"{type(error).__name__}: {error}{salvage}"
        )


class ScanOrderError(RuntimeError):
    """A ``runner.scan`` of another job while ``scan_all`` has work out."""


# Below this many targets a process pool costs more (world pickling, fork)
# than the scan itself; the shards run in this process instead.
PROCESS_POOL_THRESHOLD = 16_384

# First delay and ceiling of the exponential backoff between shard retry
# rounds, seconds.
SHARD_BACKOFF = 0.1
SHARD_BACKOFF_CAP = 5.0

EXECUTORS = ("auto", "process", "serial")


def auto_shard_count() -> int:
    """A sensible default shard count for this machine: one per core, at
    most 8."""
    return max(1, min(8, os.cpu_count() or 1))


@dataclass(slots=True)
class ShardOutcome:
    """One shard's scan (its rows as columns) plus what the merge needs."""

    shard: int
    result: ScanResult
    stats: EngineStats
    # Deferred rate-limit checks in shard probe order: (virtual time,
    # emitting router id).  Replayed globally at merge time.
    checks: list[tuple[float, int]]
    # Raw telemetry capture (progress events, first loop sightings) when
    # the scan ran with telemetry on; None otherwise.
    telemetry: ShardTelemetry | None = None
    # Denominator of this shard's index window (IndexWindow(shard, shards)):
    # the merge validates that outcomes tile the permutation exactly once.
    shards: int = 1
    # Shared-memory frame holding the rows and checks while the outcome
    # crosses a process boundary (see repro.scanner.shmring).  Drained —
    # and cleared — in the parent before the merge or the checkpoint
    # journal ever touch the outcome.
    ring: RingHandle | None = None
    # The worker wanted the ring but had to fall back to pickling.
    ring_fallback: bool = False

    def __reduce__(self):
        # Pickled (pool future, ring fallback, checkpoint journal) as the
        # ring frame's columns: no ScanRecord or check tuple is pickled.
        state = {field.name: getattr(self, field.name) for field in fields(self)}
        columns = outcome_columns(self.result, state.pop("checks"))
        state["result"] = replace(self.result, rows=RecordColumns.empty())
        return _restore_outcome, (state, *columns)


def _restore_outcome(state: dict, *columns) -> ShardOutcome:
    rows, checks = outcome_rows(*columns)
    state["result"].rows = rows
    return ShardOutcome(checks=checks, **state)


def scan_shard(
    world: World,
    config: ScanConfig,
    targets: "Sequence[int] | TargetStream",
    *,
    name: str,
    epoch: int,
    shard: int,
    shards: int,
    collect_telemetry: bool = False,
    attempt: int = 0,
) -> ShardOutcome:
    """Run one shard of a scan with the rate limiter deferred.

    Picklable by construction (module-level, plain-data arguments) so it
    can serve as the process-pool work function.  ``targets`` is the
    data itself — a list or a stream, never a recipe to rebuild one.

    ``config.batch_size`` is passed through unchanged, so shard scans run
    on the engine's batched hot path.  Batching composes with deferred
    rate limiting because both preserve per-shard probe order: the
    recorded ``(time, router_id)`` checks come out in exactly the order a
    per-probe scan would record them, which the merge replay relies on.

    ``attempt`` is the retry ordinal of this run of the shard (0 first);
    it names the shard's ring frame, and fault tests key on it.
    """
    # The scanner builds the backend from the config around this deferred
    # engine — the config crossing the pickle boundary *is* the backend
    # transport, exactly like WorldRef for worlds; no live backend is
    # ever pickled.
    scanner = ZMapV6Scanner(
        SimulationEngine(world, epoch=epoch, defer_rate_limit=True),
        replace(config, shard=shard, shards=shards),
        capture_telemetry=collect_telemetry,
    )
    result = scanner.scan(targets, name=f"{name}#s{shard}", epoch=epoch)
    capture = scanner.last_capture if collect_telemetry else None
    if capture is not None:
        # Progress events carry the shard-local result name; rewrite to
        # the campaign name so the merged stream reads uniformly (the
        # shard number is its own field).
        for event in capture.events:
            event["scan"] = name
    return ShardOutcome(
        shard=shard,
        result=result,
        stats=replace(scanner.backend.stats),
        checks=list(scanner.backend.pending_checks),
        telemetry=capture,
        shards=shards,
    )


def merge_shard_outcomes(
    world: World,
    outcomes: Iterable[ShardOutcome],
    *,
    name: str,
    epoch: int,
    telemetry: ScanTelemetry | None = None,
    targets_buffered: int = 0,
    sink: RecordSink | None = None,
    ring_stats: RingStats | None = None,
) -> ScanResult:
    """Merge deferred-mode shards into the exact serial result.

    Replays every recorded rate-limit check in global virtual-time order
    on a fresh engine; checks the replay rejects drop their provisional
    error rows and move from ``error_replies`` to ``suppressed_errors``.
    The shards' columns are then interleaved by probe time, which *is*
    the global permutation order, one column at a time.

    With ``telemetry`` the scan's metrics are folded once, here, from the
    corrected stats and the merged records — the serial run's, so its
    registry — before a ``sink`` takes the records away, and the facade
    runs the closing sequence a scan in place runs, over the shards'
    progress streams and first sightings (the earliest loop sighting
    across shards wins) and with one ``shard_finished`` per shard.  The
    replay engine doubles as the authority for ``rate_limit_engaged``
    events: deferred shards never exercise the limiter, but the replay
    walks the exact serial check sequence.
    """
    ordered = sorted(outcomes, key=lambda outcome: outcome.shard)
    _validate_shard_windows(ordered)
    for outcome in ordered:
        # Outcomes that crossed a process boundary carry their rows and
        # checks in a shared-memory frame; drain them here, in serial
        # shard order (no-op for in-process shards and for outcomes the
        # dispatch loop already drained).
        drain_outcome(outcome, ring_stats)
    # (time, shard, router_id) — at most one rate-limit check exists per
    # probe, and probe times are unique, so sorting by time alone
    # reconstructs the serial check sequence.
    checks = [
        (time, outcome.shard, router_id)
        for outcome in ordered
        for time, router_id in outcome.checks
    ]
    checks.sort(key=itemgetter(0))

    replay = SimulationEngine(world, epoch=epoch)
    collector = HotPathCollector()
    if telemetry is not None:
        replay.telemetry = collector
    # Per shard, the probe times whose check the replay rejects: the error
    # records at those times are the provisional ones to drop.
    dropped: dict[int, set[float]] = {outcome.shard: set() for outcome in ordered}
    disallowed = 0
    for time, shard, router_id in checks:
        if not replay.error_allowed(router_id, time):
            disallowed += 1
            dropped[shard].add(time)
    del checks  # replayed: its memory is free for the rows and the sink

    for outcome in ordered:
        rows = outcome.result.rows
        if doomed := dropped[outcome.shard]:
            # A doomed probe time loses its error rows, not its replies.
            spared = map(not_, map(doomed.__contains__, rows.time))
            rows = rows.select(bytes(map(or_, map((128).__le__, rows.icmp_type), spared)))
        outcome.result.rows = rows  # what its shard_finished counts
        outcome.result.engine_stats = outcome.stats
    # Counters only: the rows are interleaved below, not concatenated.
    merged = merge_results(
        name, [replace(o.result, rows=RecordColumns.empty()) for o in ordered]
    )
    merged.epoch = epoch
    merged.rows = rows = _interleave_by_time([o.result.rows for o in ordered])
    if merged.engine_stats is not None:
        merged.engine_stats.error_replies -= disallowed
        merged.engine_stats.suppressed_errors += disallowed
    if telemetry is not None:
        # Into a registry of the scan's own: a sink that fails below
        # leaves the facade's untouched.
        registry = populate_registry(
            MetricsRegistry(), merged.engine_stats, rows.time, rows.count
        )
    if sink is not None:
        # Shards must buffer their rows for the replay correction, so
        # streaming drains here, post-merge — in exact serial order, and
        # before the closing telemetry so gauges see the drained state.
        sink.drain(rows)
        merged.records_streamed += len(rows)
        merged.rows = RecordColumns.empty()

    if telemetry is not None:
        captures = [
            outcome.telemetry
            for outcome in ordered
            if outcome.telemetry is not None
        ]
        telemetry.scan_closed(
            scan=name,
            epoch=epoch,
            result=merged,
            capture=ShardTelemetry(
                events=[event for capture in captures for event in capture.events],
                first_loop=merge_first_times(
                    capture.first_loop for capture in captures
                ),
                first_suppressed=collector.first_suppressed,
            ),
            registry=registry,
            targets_buffered=targets_buffered,
            shard_results=[(outcome.shard, outcome.result) for outcome in ordered],
        )
    return merged


def _interleave_by_time(parts: "list[RecordColumns]") -> RecordColumns:
    """The rows of ``parts`` in probe-time order (a stable sort: a probe's
    rows keep theirs), gathered once per column by ``(part, row)`` index."""
    if len(parts) == 1:
        return parts[0]
    where, rows, times = array("I"), array("q"), array("d")
    for index, part in enumerate(parts):
        where.extend(itertools.repeat(index, len(part)))
        rows.extend(range(len(part)))
        times.extend(part.time)
    order = sorted(range(len(times)), key=times.__getitem__)
    where = array("I", map(where.__getitem__, order))
    rows = array("q", map(rows.__getitem__, order))
    del order, times
    gathered = []
    for name in RecordColumns.__slots__:
        sources = [getattr(part, name) for part in parts]
        picked = map(getitem, map(sources.__getitem__, where), rows)
        gathered.append(array(sources[0].typecode, picked))
    return RecordColumns(*gathered)


def _validate_shard_windows(ordered: Sequence[ShardOutcome]) -> None:
    """Refuse to merge unless the outcomes tile the permutation exactly.

    Each outcome covers index window ``(shard, shards)`` — every
    ``shards``-th slot of the global permutation starting at ``shard``.
    The windows partition the target range iff every outcome agrees on
    the denominator and each shard index 0..shards-1 appears exactly
    once.  A silent gap (crashed shard never re-run) or overlap (shard
    retried into the same merge twice) would otherwise produce a
    plausible-looking but wrong merged result.
    """
    if not ordered:
        raise ValueError("no shard outcomes to merge")
    shards = ordered[0].shards
    seen: set[int] = set()
    for outcome in ordered:
        if outcome.shards != shards:
            raise ValueError(
                f"shard window mismatch: outcome for shard {outcome.shard} "
                f"covers window ({outcome.shard}, {outcome.shards}), other "
                f"outcomes use denominator {shards}"
            )
        if not 0 <= outcome.shard < shards:
            raise ValueError(
                f"shard window ({outcome.shard}, {shards}) is outside the "
                f"permutation: shard index must be in [0, {shards})"
            )
        if outcome.shard in seen:
            raise ValueError(
                f"overlapping shard windows: shard {outcome.shard} of "
                f"{shards} appears more than once in the merge"
            )
        seen.add(outcome.shard)
    missing = sorted(set(range(shards)) - seen)
    if missing:
        raise ValueError(
            f"shard windows leave gaps: missing shard(s) {missing} of "
            f"{shards}; refusing to merge a partial scan"
        )


# Shard futures not yet released below.  An abandoned pool (an interrupt)
# releases on its manager thread, under the resource tracker's lock: a pool
# forked meanwhile would hand its workers that lock, held for good.
_UNRELEASED: set[Future] = set()


def _release_unclaimed(
    futures: "dict[Future, int]", scan: str, attempts: dict[int, int]
) -> None:
    """As each shard future of ``scan`` ends, unlink the ring frame nobody
    drained, which would outlive the process in ``/dev/shm``: a failed
    task's handle is lost, so its frame goes by the name the parent gave
    it; shards still running when a scan is abandoned release on arrival."""

    def release(frame: str, future: Future) -> None:
        try:
            if future.cancelled():
                return
            if future.exception() is None:
                release_outcome(future.result())
            else:
                release_frame(frame)
        finally:
            _UNRELEASED.discard(future)

    _UNRELEASED.update(futures)
    for future, shard in futures.items():
        frame = _frame_name(scan, shard, attempts.get(shard, 0))
        future.add_done_callback(partial(release, frame))


# ---------------------------------------------------------------------- #
# process-pool plumbing: ship world + targets once per worker, not once
# per shard task.  Artifact-backed worlds don't ship at all — the
# initializer receives a WorldRef (path + fingerprint, O(KB) pickled): a
# forked worker adopts the parent's loaded world, a spawned one maps the file.
# ---------------------------------------------------------------------- #

_WORKER_WORLD: World | None = None
# Target lists the pool's tasks name by index: the one list a shard pool
# splits, or the lists several scans of a campaign share.
_WORKER_TARGETS: tuple[Sequence[int], ...] = ()

# The parent names the ring frames (pid, scan number, shard, attempt): one
# worker dying takes every sibling's RingHandle down with the pool, and
# the frames must be unlinked all the same.
_SCAN_NUMBERS = itertools.count()


def _scan_id() -> str:
    return f"sra{os.getpid()}-{next(_SCAN_NUMBERS)}"


def _frame_name(scan: str, shard: int, attempt: int) -> str:
    return f"{scan}-{shard}-{attempt}"


def _init_worker(world: "World | WorldRef", targets: tuple[Sequence[int], ...]) -> None:
    global _WORKER_WORLD, _WORKER_TARGETS
    if isinstance(world, WorldRef):
        world = resolve_world_ref(world)
    _WORKER_WORLD = world
    _WORKER_TARGETS = targets
    # The world and the lists live as long as the worker: keep the
    # collector from walking them on every full collection (and from
    # dirtying their copy-on-write pages under fork); collect all the same
    # in a worker forked inside a paused scan.
    gc.freeze()
    gc.enable()


@contextmanager
def _collector_paused():
    """Pause the cyclic collector, then restore the state found: what a
    scan or a CLI job keeps (decoded entities, records, replay checks, a
    hitlist) has no cycles."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _scanner_in_place(world: World, config: ScanConfig, epoch: int, **telemetry):
    """The scanner of a one-shard scan run in place, in any process."""
    return ZMapV6Scanner(
        SimulationEngine(world, epoch=epoch),
        replace(config, shard=0, shards=1),
        **telemetry,
    )


def _open_pool(world: World, workers: int, targets: tuple) -> ProcessPoolExecutor:
    """A pool whose workers hold ``world`` and the ``targets`` lists its
    tasks name by index, forked once every abandoned shard has released."""
    while _UNRELEASED:  # each goes as its shard ends
        time.sleep(0.01)
    return ProcessPoolExecutor(
        workers, initializer=_init_worker, initargs=(world_payload(world), targets)
    )


def _worker_targets(targets):
    """A task's targets: the index of a list the pool shares, or the
    targets themselves."""
    return _WORKER_TARGETS[targets] if isinstance(targets, int) else targets


def _worker_scan(targets, config: ScanConfig, name: str, epoch: int, capture: bool):
    """One whole scan in place in a pool worker: its result, rows packed
    as columns, and the capture the parent adopts it with."""
    scanner = _scanner_in_place(
        _WORKER_WORLD, config, epoch, capture_telemetry=capture
    )
    result = scanner.scan(_worker_targets(targets), name=name, epoch=epoch)
    return result, scanner.last_capture


def _submit(pool, targets, config, scan: str, attempts, work) -> "dict[Future, int]":
    """One attempt of each shard in ``attempts`` (shard -> attempt) on
    ``pool``; ``targets`` as :func:`_worker_targets` takes them."""
    submit = partial(pool.submit, _worker_scan_shard, targets, config, scan, **work)
    return {
        submit(shard=shard, attempt=attempt): shard
        for shard, attempt in attempts.items()
    }


def _worker_scan_shard(targets, config: ScanConfig, scan: str, **kwargs) -> ShardOutcome:
    """:func:`scan_shard` against this worker's world."""
    assert _WORKER_WORLD is not None
    outcome = scan_shard(_WORKER_WORLD, config, _worker_targets(targets), **kwargs)
    # Ship the records and checks through a shared-memory frame instead of
    # the pool's pickled-result channel; without shared memory this no-ops
    # and the pickled return carries the same columns (ShardOutcome.__reduce__).
    pack_outcome(outcome, _frame_name(scan, kwargs["shard"], kwargs["attempt"]))
    return outcome


@dataclass(slots=True)
class _Job:
    """One :meth:`ShardedScanRunner.scan_all` job, from its start (config
    resolved, so a lazy set realised) until its result is yielded.  Once
    submitted, ``futures`` is what the campaign's pool runs ahead for it:
    ``{future: 0}`` for the whole scan on one shard (its rows held as the
    columns the worker packed), ``{future: shard}`` on several (frames
    named by ``scan``); ``collected`` tells the campaign that work is in."""

    targets: Sequence[int]
    config: ScanConfig
    name: str
    epoch: int
    futures: "dict[Future, int] | None" = None
    scan: str = ""
    collected: "Callable[[], None] | None" = None


class ShardedScanRunner:
    """Drop-in scan executor: splits a scan across shards, runs them
    concurrently, and merges deterministically.

    ``runner.scan(targets, config, name=..., epoch=...)`` returns the same
    :class:`ScanResult` a single :class:`ZMapV6Scanner` would — same
    records in the same order, same counters — regardless of shard count
    or executor choice.  ``config.shard``/``config.shards`` are overridden
    per shard; the runner's ``shards`` is authoritative.

    Executors: ``"process"`` (true parallelism; pays world pickling),
    ``"serial"`` (the shards one after another in this process),
    ``"auto"`` (process from :data:`PROCESS_POOL_THRESHOLD` targets up on
    multi-core hosts, serial otherwise).

    Every multi-shard scan runs one dispatch loop: each shard scans with
    the rate limiter deferred, completed shards are collected (and, with
    a checkpoint path or ``checkpoint_dir``, journaled) as they finish,
    failed shards are retried on a fresh pool with bounded exponential
    backoff up to ``max_shard_retries`` times and then end the scan in
    :class:`ShardFailedError`, and SIGINT/SIGTERM end it in
    :class:`ScanInterrupted` with the completed shards salvaged into the
    journal.  A journal and a retry budget are inputs to that loop, not
    a mode; either also sends a ``shards=1`` scan through it, which
    otherwise runs in place.  A resumed scan re-runs only the missing
    index windows and merges to the exact bytes an uninterrupted run
    produces.
    """

    def __init__(
        self,
        world: World,
        *,
        shards: int,
        executor: str = "auto",
        telemetry: ScanTelemetry | None = None,
        max_shard_retries: int = 0,
        checkpoint_dir: "str | Path | None" = None,
        sleep: "Callable[[float], None]" = time.sleep,
    ) -> None:
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {'/'.join(EXECUTORS)}")
        if max_shard_retries < 0:
            raise ValueError("max_shard_retries must be >= 0")
        self.world = world
        self.shards = shards
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        self.executor = executor
        self.telemetry = telemetry
        self.max_shard_retries = max_shard_retries
        # Injectable so fault-injection tests drive the retry loop in
        # zero wall-time; the schedule itself is RetryPolicy's backoff.
        self._sleep = sleep
        self._retry_schedule = RetryPolicy(
            max_retries=max_shard_retries,
            backoff=SHARD_BACKOFF,
            backoff_cap=SHARD_BACKOFF_CAP,
        )
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        # Shared-memory transport counters, accumulated across every scan
        # this runner executes (exported as a CI artifact by smoke-perf).
        self.ring_stats = RingStats()
        self._interrupted = False
        # The job scan_all hands out next, whose submitted work only that
        # job's scan may adopt.
        self._prefetched: _Job | None = None

    def request_interrupt(self) -> None:
        """Ask a multi-shard scan to stop after the in-flight round,
        flush a final checkpoint (when it journals), and raise
        :class:`ScanInterrupted`.  Signal handlers and tests call this;
        safe from any thread."""
        self._interrupted = True

    @_collector_paused()
    def scan(
        self,
        targets: Sequence[int] | Iterable[int],
        config: ScanConfig | None = None,
        *,
        name: str = "scan",
        epoch: int = 0,
        telemetry: ScanTelemetry | None = None,
        sink: RecordSink | None = None,
        checkpoint: "str | Path | None" = None,
        resume: bool = False,
    ) -> ScanResult:
        """Scan all targets across ``self.shards`` shards and merge.

        ``telemetry`` (per call, falling back to the runner default)
        receives the event stream and the scan's metrics, folded once
        from the merged result; both come out shard-count invariant
        except for the per-shard ``progress`` / ``shard_finished`` events.

        ``sink`` streams rows out instead of buffering them on the
        returned result.  A scan run in place drains each batch's rows
        as they are matched; deferred shards must buffer theirs for the
        rate-limit replay, so the sink is drained once after the merge.
        Either way the sink sees the rows in exact serial order and the
        returned result counts them in ``records_streamed`` instead of
        holding them in ``rows``.

        ``checkpoint`` names the journal file for this scan (overriding
        the runner's ``checkpoint_dir`` naming); ``resume`` loads it if
        present and re-runs only the missing shards (a ``checkpoint_dir``
        journal auto-resumes).
        """
        config = config or ScanConfig()
        if not BACKENDS[config.backend].deterministic:
            # The whole runner contract — deferred replay, checkpoints,
            # byte-identical merges — presumes reproducible probes.
            raise ValueError(
                f"backend {config.backend!r} is not deterministic; the "
                "sharded runner cannot merge or resume it (drive a "
                "ZMapV6Scanner directly instead)"
            )
        effective = telemetry if telemetry is not None else self.telemetry
        target_list = scannable(targets)
        prefetched = self._prefetched
        if prefetched is None or not prefetched.futures:
            prefetched = None
        else:
            # What scan_all submitted for this scan: adopting it for any
            # other would hand out another scan's records.
            job = (prefetched.name, prefetched.epoch)
            if job != (name, epoch) or sink is not None:
                raise ScanOrderError(
                    f"scan_all runs {job} next, not {(name, epoch)}"
                    + (" with a sink" if sink is not None else "")
                )
            self._prefetched = None
        checkpoint_path = self._checkpoint_path(checkpoint, name, epoch)
        if self.shards == 1 and self._unattended(checkpoint_path):
            # Scan in place, which is also what streams a sink batch by
            # batch — or adopt the very scan scan_all ran in a worker.
            scanner = _scanner_in_place(
                self.world, config, epoch, telemetry=effective
            )
            if prefetched is None:
                return scanner.scan(target_list, name=name, epoch=epoch, sink=sink)
            (future,) = prefetched.futures
            result, capture = future.result()
            prefetched.collected()
            return scanner.adopt(target_list, result, capture)
        return self._scan_shards(
            target_list,
            config,
            name=name,
            epoch=epoch,
            telemetry=effective,
            sink=sink,
            checkpoint_path=checkpoint_path,
            # checkpoint_dir journals auto-resume: a file left behind
            # means an interrupted scan, and resuming is always byte-safe.
            resume=resume or self.checkpoint_dir is not None,
            prefetched=prefetched,
        )

    def scan_all(
        self,
        jobs: "Sequence[tuple[Sequence[int], ScanConfig, str, int]]",
        telemetry: ScanTelemetry | None = None,
    ) -> Iterator[ScanResult]:
        """Scan independent jobs ``(targets, config, name, epoch)``, each
        result handed out by :meth:`scan` and yielded in job order (a
        job's targets may be released once its result is yielded).  A
        ``config`` may be a function of the targets, called when the job
        starts, so a lazy stream paced by its size is realised in turn.

        With nothing to journal or retry, jobs run ahead on one pool,
        opened for the first job that goes to it, and ``scan``
        adopts their work — the very scans and shards it would have run.
        On one shard that is whole scans, when the executor resolves to
        ``process`` over the campaign's targets; on several, the shards
        of each job whose own scan resolves to ``process``, so workers
        scan the next job while the parent merges this one.  At most two
        tasks per worker are in flight.  Meanwhile a ``scan`` of another
        job raises :class:`ScanOrderError`.  ``serial`` never forks.
        """
        jobs = list(jobs)
        sharded = self.shards > 1
        if sharded:
            forks = self._resolve_executor(PROCESS_POOL_THRESHOLD) == "process"
            workers = min(self.shards, os.cpu_count() or 1)
        else:
            # A lazy stream counts once realised: len() would realise it.
            size = sum(stream_buffered(targets) for targets, *_ in jobs)
            forks = self._resolve_executor(size) == "process"
            workers = min(auto_shard_count(), len(jobs))
        forks = forks and self._unattended(self.checkpoint_dir)
        # Pool jobs submitted and not yet collected, at most.
        flight = max(1, 2 * workers // self.shards)
        # Jobs started (config resolved, so a lazy set realised), the one
        # scanned next included.
        depth = flight + sharded if forks else 1
        capture = telemetry is not None or self.telemetry is not None
        # Lists cross once per worker, in the initializer (free under
        # fork), and tasks name them by index; other targets go with each
        # task (pickling them once per job instead held ~10 MiB more).
        shared = {id(t): t for t, *_ in jobs if isinstance(t, list)}
        slots = {key: index for index, key in enumerate(shared)}
        pool = restore_sigterm = None
        started: deque[_Job] = deque()
        unsent: deque[_Job] = deque()  # started jobs not yet offered to the pool
        flying = 0

        def send() -> None:
            nonlocal pool, restore_sigterm, flying
            while unsent and flying < flight:
                job = unsent.popleft()
                size = len(job.targets)  # realised here, not in the feeder thread
                if sharded and self._resolve_executor(size) != "process":
                    continue  # its shards run in this process, in its turn
                if pool is None:
                    pool = _open_pool(self.world, workers, tuple(shared.values()))
                    restore_sigterm = self._unwind_on_sigterm()
                payload = slots.get(id(job.targets), job.targets)
                if sharded:
                    job.scan = _scan_id()
                    work = self._shard_work(job.name, job.epoch, capture)
                    attempts = dict.fromkeys(range(self.shards), 0)
                    job.futures = _submit(
                        pool, payload, job.config, job.scan, attempts, work
                    )
                else:
                    future = pool.submit(
                        _worker_scan, payload, job.config, job.name, job.epoch, capture
                    )
                    job.futures = {future: 0}
                job.collected = collected
                flying += 1

        def collected() -> None:
            nonlocal flying
            flying -= 1
            send()

        upcoming = iter(jobs)
        try:
            for _ in jobs:
                for targets, config, name, epoch in itertools.islice(
                    upcoming, depth - len(started)
                ):
                    if callable(config):
                        config = config(targets)
                    started.append(_Job(targets, config, name, epoch))
                    if forks:
                        # Submitted as soon as it is realised: the workers
                        # need not wait for the sets started after it.
                        unsent.append(started[-1])
                        send()
                job = self._prefetched = started[0]
                result = self.scan(
                    job.targets, job.config, name=job.name, epoch=job.epoch,
                    telemetry=telemetry,
                )
                started.popleft()
                # Claimed only by the next job's scan.
                self._prefetched = started[0] if started else None
                yield result
        finally:
            self._prefetched = None
            # The two closures name each other (and hold the pool): unbind
            # both, so the campaign leaves no cycle for the collector.
            send = collected = None
            if pool is not None:
                restore_sigterm()
                # An interrupt leaves running shards to release their
                # frames on arrival (below) instead of waiting them out.
                pool.shutdown(wait=not self._interrupted, cancel_futures=True)
                # What a failed scan's shards and the jobs behind it leave.
                for job in started if sharded else ():
                    if job.futures:
                        _release_unclaimed(job.futures, job.scan, {})

    def _unattended(self, journal: "Path | None") -> bool:
        """Whether a scan has nothing to journal or retry (on one shard,
        nothing to merge either: it runs in place)."""
        return journal is None and self.max_shard_retries == 0

    def _shard_work(self, name: str, epoch: int, capture: bool) -> dict:
        """What every attempt of every shard of a scan is called with."""
        return dict(
            name=name, epoch=epoch, shards=self.shards, collect_telemetry=capture
        )

    def _resolve_executor(self, size: int) -> str:
        if self.executor != "auto":
            return self.executor
        if size >= PROCESS_POOL_THRESHOLD and (os.cpu_count() or 1) > 1:
            return "process"
        return "serial"

    def _checkpoint_path(
        self, checkpoint: "str | Path | None", name: str, epoch: int
    ) -> Path | None:
        """Resolve where this scan journals: an explicit path wins,
        otherwise ``checkpoint_dir`` names one file per (scan, epoch)."""
        if checkpoint is not None:
            return Path(checkpoint)
        if self.checkpoint_dir is not None:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
            safe = name.replace(os.sep, "_")
            return self.checkpoint_dir / f"{safe}-epoch{epoch}.ckpt"
        return None

    def _unwind_on_sigterm(self) -> "Callable[[], object]":
        """Make SIGTERM raise :class:`ScanInterrupted` wherever the main
        thread is, so a campaign that has a pool out unwinds through
        :meth:`scan_all`'s cleanup, also while its caller works between
        two results; by default SIGTERM would kill the process and leave
        the ring frames in ``/dev/shm``.  Returns what puts the handler
        found back.  (Inside a scan :meth:`_signal_guard` takes over.)"""
        if threading.current_thread() is not threading.main_thread():
            return lambda: None

        def handler(signum, frame):  # pragma: no cover - signal delivery
            self._interrupted = True
            raise ScanInterrupted(None, 0, self.shards)

        previous = signal.signal(signal.SIGTERM, handler)
        return partial(signal.signal, signal.SIGTERM, previous)

    @contextmanager
    def _signal_guard(self):
        """Route SIGINT/SIGTERM to a graceful interrupt while a
        multi-shard scan runs (main thread only; restores handlers on
        exit)."""
        if threading.current_thread() is not threading.main_thread():
            yield
            return
        previous = {}

        def handler(signum, frame):  # pragma: no cover - signal delivery
            self._interrupted = True

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
        try:
            yield
        finally:
            for sig, old in previous.items():
                signal.signal(sig, old)

    def _scan_shards(
        self,
        target_list: Sequence[int],
        config: ScanConfig,
        *,
        name: str,
        epoch: int,
        telemetry: ScanTelemetry | None,
        sink: RecordSink | None,
        checkpoint_path: Path | None,
        resume: bool,
        prefetched: _Job | None = None,
    ) -> ScanResult:
        """The one dispatch loop: run, collect, journal, retry, merge.

        Every shard runs through the deferred-replay pipeline (even at
        ``shards=1``, so a journaled scan and a plain one share one code
        path and one byte-level outcome).  With a ``checkpoint_path`` the
        journal is rewritten atomically after each completed shard;
        without one ``flush`` does nothing.  Failed shards retry on a
        fresh pool with bounded exponential backoff until the retry
        budget (possibly zero) is spent; an interrupt flushes a final
        checkpoint and raises :class:`ScanInterrupted`.
        """
        shards = self.shards
        scan_key = config_key(config)
        target_count = len(target_list)
        fingerprint = target_fingerprint(target_list)

        outcomes: dict[int, ShardOutcome] = {}
        resumed = False
        if checkpoint_path is not None and resume and checkpoint_path.exists():
            journal = load_checkpoint(checkpoint_path)
            journal.validate_resume(
                name=name,
                epoch=epoch,
                shards=shards,
                scan_key=scan_key,
                target_count=target_count,
                fingerprint=fingerprint,
            )
            outcomes = dict(journal.outcomes)
            resumed = True
            if telemetry is not None and journal.telemetry is not None:
                restore_telemetry(telemetry, journal.telemetry)
        if telemetry is not None and not resumed:
            telemetry.scan_started(
                scan=name,
                epoch=epoch,
                targets=target_count,
                shards=shards,
                pps=config.pps,
            )

        def flush() -> None:
            if checkpoint_path is None:
                return
            snapshot = (
                snapshot_telemetry(telemetry) if telemetry is not None else None
            )
            save_checkpoint(
                ScanCheckpoint(
                    name=name,
                    epoch=epoch,
                    shards=shards,
                    scan_key=scan_key,
                    target_count=target_count,
                    fingerprint=fingerprint,
                    outcomes=outcomes,
                    telemetry=snapshot,
                ),
                checkpoint_path,
            )

        def complete(outcome: ShardOutcome) -> None:
            outcomes[outcome.shard] = outcome
            flush()

        work = self._shard_work(name, epoch, telemetry is not None)
        # The first round of a prefetched scan already runs on scan_all's
        # pool, which unlinks whatever frames it leaves behind.
        scan = _scan_id() if prefetched is None else prefetched.scan
        pending = [s for s in range(shards) if s not in outcomes]
        attempts = {s: 0 for s in pending}
        self._interrupted = False
        round_index = 0
        with self._signal_guard():
            while pending:
                if prefetched is not None:
                    failures = self._collect(prefetched.futures, complete)
                    if not (failures or self._interrupted):
                        # Only a scan that goes on frees its slot.
                        prefetched.collected()
                    prefetched = None
                else:
                    failures = self._run_round(
                        pending, target_list, config, scan, work, attempts, complete
                    )
                if self._interrupted:
                    flush()
                    raise ScanInterrupted(
                        checkpoint_path, len(outcomes), shards - len(outcomes)
                    )
                pending = []
                for shard, error in failures:
                    attempts[shard] += 1
                    if attempts[shard] > self.max_shard_retries:
                        raise ShardFailedError(
                            shard, attempts[shard], error, checkpoint_path
                        )
                    pending.append(shard)
                if pending:
                    delay = self._retry_schedule.backoff_delay(round_index)
                    if delay > 0:
                        self._sleep(delay)
                    round_index += 1

        merged = merge_shard_outcomes(
            self.world,
            outcomes.values(),
            name=name,
            epoch=epoch,
            telemetry=telemetry,
            targets_buffered=stream_buffered(target_list),
            sink=sink,
            ring_stats=self.ring_stats,
        )
        if checkpoint_path is not None:
            # The scan is whole; a leftover journal would make the next
            # run of the same (name, epoch) resume into stale state.
            checkpoint_path.unlink(missing_ok=True)
        return merged

    def _run_round(
        self,
        pending: list[int],
        target_list: Sequence[int],
        config: ScanConfig,
        scan: str,
        work: dict,
        attempts: dict[int, int],
        complete: "Callable[[ShardOutcome], None]",
    ) -> list[tuple[int, BaseException]]:
        """Run one attempt of every pending shard; report failures.

        Each round gets a *fresh* pool — a hard-crashed worker breaks a
        process pool for good, so reuse is never safe.  ``complete`` is
        called in the parent as each shard finishes (checkpoint); an
        interrupt request stops the round early, leaving in-flight shards
        for a future resume.
        """
        failures: list[tuple[int, BaseException]] = []
        if self._resolve_executor(len(target_list)) == "serial":
            for shard in pending:
                if self._interrupted:
                    break
                try:
                    outcome = scan_shard(
                        self.world,
                        config,
                        target_list,
                        shard=shard,
                        attempt=attempts[shard],
                        **work,
                    )
                except Exception as error:
                    failures.append((shard, error))
                else:
                    complete(outcome)
            return failures
        # The stream itself: inherited under fork, pickled otherwise — a
        # computable one as a few hundred bytes, a realised one as its
        # list, never as a recipe to re-run.
        workers = min(self.shards, os.cpu_count() or 1)
        pool = _open_pool(self.world, workers, (target_list,))
        futures = _submit(
            pool, 0, config, scan, {s: attempts[s] for s in pending}, work
        )
        try:
            return self._collect(futures, complete)
        finally:
            cancel = self._interrupted
            pool.shutdown(wait=not cancel, cancel_futures=cancel)
            _release_unclaimed(futures, scan, attempts)

    def _collect(
        self,
        futures: dict[Future, int],
        complete: "Callable[[ShardOutcome], None]",
    ) -> list[tuple[int, BaseException]]:
        """Drain and ``complete`` each shard future's outcome as it
        arrives; report the shards that failed.  An interrupt request
        stops early, leaving the rest for a future resume."""
        failures: list[tuple[int, BaseException]] = []
        outstanding = set(futures)
        while outstanding and not self._interrupted:
            # Wake at each completion, so a finished shard drains while its
            # siblings run, and every 0.2 s, so an interrupt (a signal
            # handler or request_interrupt) is honoured promptly.
            done, outstanding = wait(outstanding, 0.2, FIRST_COMPLETED)
            for future in done:
                if self._interrupted:
                    # Stop mid-batch: unprocessed results are simply re-run
                    # on resume, which stays byte-identical.
                    break
                try:
                    outcome = future.result()
                except Exception as error:
                    # A dead worker surfaces as BrokenProcessPool on every
                    # in-flight future; each affected shard is recorded and
                    # retried on the next (fresh) pool.
                    failures.append((futures[future], error))
                else:
                    # Drain the shared-memory frame *before* complete: the
                    # checkpoint journal pickles the outcome, and a
                    # journaled ring handle would dangle on resume.
                    drain_outcome(outcome, self.ring_stats)
                    complete(outcome)
        return failures
