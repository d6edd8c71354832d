"""A ZMapv6-style stateless scanner over a pluggable probe backend.

Reproduces the operational properties of the paper's modified ZMapv6:

* **stateless**: the probed target rides in the ICMPv6 payload and is
  recovered from replies (Echo) or from the quoted packet (errors) — no
  per-probe state table,
* **permuted order**: targets are visited through a cyclic-group
  permutation so probes to one network are spread over the whole scan,
* **paced**: a fixed packets-per-second budget on a virtual clock (the
  paper scans at 200 k pps; rate limiting depends on this),
* **sharded**: the permutation can be split across shards, as zmap does
  for multi-machine scans.

The scanner itself never touches a wire or an engine directly — it
drives a :class:`~repro.scanner.backends.base.ProbeBackend` (``sim``,
``wire-sim``, or the opt-in ``raw``; see :mod:`repro.scanner.backends`),
chosen by ``ScanConfig.backend``.  Everything above the backend seam —
permutation, pacing, sharding, record building, telemetry — is backend
agnostic, and the ``sim`` path is byte-identical to the pre-seam scanner
(pinned by the determinism suite).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress, islice
from typing import Callable, Iterable, Iterator, Sequence

from ..netsim.engine import (
    FLAG_LOOPED,
    FLAG_LOST,
    FLAG_REPLY,
    ProbeColumns,
    SimulationEngine,
)
from ..telemetry.events import make_event
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.scan import (
    HotPathCollector,
    ScanTelemetry,
    ShardTelemetry,
    populate_registry,
)
from .backends import (
    BACKENDS,
    DEFAULT_PROBE_KEY,
    ProbeBackend,
    ResilientBackend,
    RetryPolicy,
    build_backend,
)
from .records import RecordColumns, ScanResult
from .stream import (
    IndexWindow,
    RecordSink,
    gather_targets,
    scannable,
    shard_window,
    stream_buffered,
)

# flags bytes -> FLAG_REPLY for rows that carry a reply (one record each).
_REPLY_ROWS = bytes(flag & FLAG_REPLY for flag in range(256))
_LOOPED_REPLY = FLAG_LOOPED | FLAG_REPLY


@dataclass(frozen=True, slots=True)
class ScanConfig:
    """Scanner knobs; defaults mirror the paper's setup, scaled down."""

    pps: float = 50_000.0
    hop_limit: int = 64
    seed: int = 1
    shard: int = 0
    shards: int = 1
    permute: bool = True
    key: bytes = DEFAULT_PROBE_KEY
    # Probes handed to the backend per call: a chunk size, nothing more.
    # Results are bit-identical for any value; larger chunks amortise
    # per-probe Python overhead until the chunk bookkeeping itself stops
    # mattering — past ~1k there is nothing left to win.  Memory cost is
    # one chunk of targets, times and outcomes.
    batch_size: int = 1024
    # Telemetry progress cadence: emit one `progress` event every N
    # probes (0 = none).  Snapshots land at fixed probe-count boundaries,
    # so the event stream is identical for every batch_size; it only
    # takes effect when a scan runs with telemetry capture enabled.
    progress_every: int = 0
    # Which probe backend executes the scan: "sim" (default), "wire-sim"
    # (byte-accurate wire round trip over the simulator), or "raw"
    # (raw-socket ICMPv6; never default, requires authorized=True).
    backend: str = "sim"
    # Explicit authorization for backends that probe real networks
    # (--i-am-authorized); ignored by the simulated backends.
    authorized: bool = False
    # Backend-level resilience (retry/timeout/backoff, circuit breaker,
    # quarantine): when set, the scanner wraps its backend in a
    # ResilientBackend.  Rides this config across pickle boundaries to
    # pool workers and into the checkpoint config key; None (default)
    # keeps the pre-resilience failure semantics, byte for byte.
    retry_policy: RetryPolicy | None = None

    def __post_init__(self) -> None:
        if self.pps <= 0:
            raise ValueError("pps must be positive")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r} "
                f"(choose from {', '.join(sorted(BACKENDS))})"
            )
        if self.retry_policy is not None and not isinstance(
            self.retry_policy, RetryPolicy
        ):
            raise ValueError("retry_policy must be a RetryPolicy (or None)")
        if not 1 <= self.hop_limit <= 255:
            raise ValueError("hop_limit must be in [1, 255]")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if not 0 <= self.shard < self.shards:
            raise ValueError("shard must be in [0, shards)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.progress_every < 0:
            raise ValueError("progress_every must be >= 0")


class ZMapV6Scanner:
    """Drives a probe backend like zmap drives a NIC.

    ``engine`` may be a :class:`SimulationEngine` (wrapped in the backend
    ``config.backend`` names — the compatible default) or any
    :class:`~repro.scanner.backends.base.ProbeBackend` directly.

    Telemetry comes in two modes, both off by default and costing nothing
    on the hot path when off:

    * ``telemetry=`` — a :class:`ScanTelemetry` facade; the scanner emits
      the full event stream (``scan_started`` ... ``scan_finished``) and
      folds the scan's metrics into the facade's registry once, when the
      scan has finished,
    * ``capture_telemetry=True`` — raw capture only: after each scan,
      :attr:`last_capture` holds a picklable :class:`ShardTelemetry`
      (progress events and first loop / suppression sightings, no
      metrics) for a coordinator to merge — the sharded runner's mode.
    """

    def __init__(
        self,
        engine: SimulationEngine | ProbeBackend,
        config: ScanConfig | None = None,
        *,
        telemetry: ScanTelemetry | None = None,
        capture_telemetry: bool = False,
    ) -> None:
        self.config = config or ScanConfig()
        if isinstance(engine, ProbeBackend):
            self.backend = engine
        else:
            # The same call pool workers make, so a locally-built scanner
            # and a worker-built one agree.
            self.backend = build_backend(self.config, engine)
        policy = self.config.retry_policy
        if policy is not None and not isinstance(self.backend, ResilientBackend):
            self.backend = ResilientBackend(self.backend, policy)
        # Back-compat alias: simulated backends expose the engine they
        # wrap; wire backends have none.
        self.engine = getattr(self.backend, "engine", None)
        self.telemetry = telemetry
        self.capture_telemetry = capture_telemetry or telemetry is not None
        self.last_capture: ShardTelemetry | None = None
        self._capture: ShardTelemetry | None = None
        self._rows: RecordColumns | None = None
        self._deliver: Callable[[RecordColumns], None] | None = None

    def scan(
        self,
        targets: Sequence[int] | Iterable[int],
        *,
        name: str = "scan",
        epoch: int | None = None,
        sink: RecordSink | None = None,
    ) -> ScanResult:
        """Probe every target once; returns the matched reply records.

        ``targets`` may be any sequence — a list, a
        :class:`~repro.scanner.targets.TargetList`, or a lazy
        :class:`~repro.scanner.stream.TargetStream`; non-sequence
        iterables are materialised.  With a ``sink``, matched rows
        stream to it in probe order, one ``sink.drain`` of
        :class:`RecordColumns` per batch that has any, instead of
        buffering in ``result.rows`` (``result.records_streamed`` counts
        them); everything else — counters, telemetry events, metrics — is
        byte-identical to the buffered path.  Neither path builds a
        :class:`~repro.scanner.records.ScanRecord`.
        """
        config = self.config
        backend = self.backend
        backend.open()
        if epoch is not None:
            backend.new_epoch(epoch)
        target_list = scannable(targets)
        result = ScanResult(name=name, epoch=backend.epoch)
        unmatched_before = backend.unmatched_replies
        resilience_before = (
            backend.resilience.copy()
            if isinstance(backend, ResilientBackend)
            else None
        )
        capture: ShardTelemetry | None = None
        collector: HotPathCollector | None = None
        # The scan's own registry, merged into the facade's by the closing
        # sequence: a scan that fails leaves the facade as it found it.
        registry = MetricsRegistry() if self.telemetry is not None else None
        if self.capture_telemetry:
            capture = ShardTelemetry()
            collector = HotPathCollector()
            if self.telemetry is not None:
                self._scan_started(result, len(target_list))
        self._capture = capture
        if sink is None:
            self._rows = result.rows
        else:

            def deliver(batch: RecordColumns) -> None:
                sink.drain(batch)
                result.records_streamed += len(batch)
                if registry is not None:
                    populate_registry(registry, None, batch.time, batch.count)

            self._deliver = deliver
        if collector is not None:
            backend.telemetry = collector
        try:
            sent, last_position = self._scan_columns(target_list, result)
        finally:
            if collector is not None:
                backend.telemetry = None
            self._capture = None
            self._rows = None
            self._deliver = None
        result.sent = sent
        result.duration = (last_position + 1) / config.pps if sent else 0.0
        result.engine_stats = replace(backend.stats)
        result.unmatched_replies = backend.unmatched_replies - unmatched_before
        if resilience_before is not None:
            result.resilience = backend.resilience.since(resilience_before)
        if capture is not None and collector is not None:
            capture.first_loop = dict(collector.first_loop)
            capture.first_suppressed = dict(collector.first_suppressed)
            self.last_capture = capture
            if self.telemetry is not None:
                # Records a sink took are already folded in, batch by
                # batch, and result.rows is empty: this adds the stats.
                self._scan_closed(result, registry, target_list)
        return result

    def adopt(self, targets, result: ScanResult, capture) -> ScanResult:
        """Finish ``result``, the scan of ``targets`` a twin of this
        scanner ran with capture on in a pool worker, as :meth:`scan`
        would have: the same telemetry, from the twin's ``capture``."""
        self.last_capture = capture
        if self.telemetry is not None:
            self._scan_started(result, len(targets))
            self._scan_closed(result, MetricsRegistry(), targets)
        return result

    def _scan_started(self, result: ScanResult, targets: int) -> None:
        self.telemetry.scan_started(
            scan=result.name,
            epoch=result.epoch,
            targets=targets,
            shards=self.config.shards,
            pps=self.config.pps,
        )

    def _scan_closed(
        self, result: ScanResult, registry: MetricsRegistry, targets: Sequence[int]
    ) -> None:
        populate_registry(
            registry, result.engine_stats, result.column("time"), result.column("count")
        )
        self.telemetry.scan_closed(
            scan=result.name,
            epoch=result.epoch,
            result=result,
            capture=self.last_capture,
            registry=registry,
            targets_buffered=stream_buffered(targets),
        )

    def _chunks(
        self, target_list: Sequence[int]
    ) -> Iterator[tuple[int, list[int], list[float], "list[int] | None"]]:
        """This shard's probes, ``batch_size`` at a time: ``(last global
        position, targets, times, probe ids)`` per chunk, in visit order.

        Probes pace on the *global* permutation position, not the
        shard-local send counter: every shard of a multi-shard scan then
        shares one virtual clock, exactly as zmap's multi-machine shards
        share wall-clock time — and a sharded run becomes time-identical
        to the serial run of the same seed/epoch.  The id column is
        skipped for a backend that never reads it.
        """
        backend = self.backend
        pps = self.config.pps
        batch_size = self.config.batch_size
        epoch_bits = backend.epoch << 32
        need_ids = backend.needs_probe_ids
        positions, indexes = self._probe_window(len(target_list))
        for start in range(0, len(positions), batch_size):
            chunk = positions[start : start + batch_size]
            picked = list(islice(indexes, batch_size))
            yield (
                chunk[-1],
                gather_targets(target_list, picked),
                [position / pps for position in chunk],
                [epoch_bits | index for index in picked] if need_ids else None,
            )

    def _scan_columns(
        self, target_list: Sequence[int], result: ScanResult
    ) -> tuple[int, int]:
        """The scan loop: one ``probe_columns`` call per chunk.

        The chunking is invisible in the results (the determinism
        regression tests pin this).  Each batch reuses one
        :class:`ProbeColumns` buffer, whose reply rows are copied column to
        column into the scan's :class:`RecordColumns` (or a batch's own,
        handed to the sink).  Batches reach the backend, and records
        leave, in ``batch_size`` groups, which is what lets the raw backend
        pace a whole batch and pay its receive linger once per batch.
        """
        config = self.config
        backend = self.backend
        hop_limit = config.hop_limit
        probe_columns = backend.probe_columns
        rows = self._rows
        deliver = self._deliver
        capture = self._capture
        every = config.progress_every if capture is not None else 0
        progress = (0, 0, 0, 0)
        sent = 0
        last_position = -1
        loops_observed = 0
        probes_lost = 0
        cols = ProbeColumns()
        for last_position, targets, times, ids in self._chunks(target_list):
            # The backend may answer in columns of its own (a resilience
            # wrapper's watchdog attempt): read what it returns.
            cols = probe_columns(
                targets, times, hop_limit=hop_limit, probe_ids=ids, out=cols
            )
            n = len(targets)
            sent += n
            # Most rows are silent: count and pick the others at C speed.
            flags = memoryview(cols.flags)[:n].tobytes()
            replied = flags.translate(_REPLY_ROWS)
            probes_lost += flags.count(FLAG_LOST)
            loops_observed += flags.count(FLAG_LOOPED) + flags.count(_LOOPED_REPLY)
            batch = rows if deliver is None else RecordColumns.empty()
            batch.pack_rows(compress(range(n), replied), targets, times, cols)
            if deliver is not None and len(batch):
                deliver(batch)
            if every:
                progress = self._capture_batch_progress(
                    capture, result, flags, replied, cols.extra, times, every,
                    progress,
                )
        result.loops_observed += loops_observed
        result.lost += probes_lost
        return sent, last_position

    def _capture_batch_progress(
        self,
        capture: ShardTelemetry,
        result: ScanResult,
        flags: bytes,
        replied: bytes,
        extra: list,
        batch_times: Sequence[float],
        every: int,
        progress: tuple[int, int, int, int],
    ) -> tuple[int, int, int, int]:
        """Emit the ``progress`` events a batch crosses.

        Run only when telemetry is on.  The batch's flag bytes (and their
        reply-row translation — every reply row becomes one record, every
        ``extra`` reply one more) are counted at C speed up to each
        ``every`` boundary, which gives the cumulative counters a
        probe-by-probe walk would: the progress stream is the same for
        any ``batch_size``.
        """
        shard = self.config.shard
        sent, n_records, lost, loops = progress
        start, n = 0, len(flags)
        while start < n:
            end = min(n, start + every - sent % every)
            sent += end - start
            n_records += replied.count(FLAG_REPLY, start, end)
            if extra:
                n_records += sum(start <= reply[0] < end for reply in extra)
            lost += flags.count(FLAG_LOST, start, end)
            loops += flags.count(FLAG_LOOPED, start, end) + flags.count(
                _LOOPED_REPLY, start, end
            )
            if sent % every == 0:
                capture.events.append(
                    make_event(
                        "progress",
                        scan=result.name,
                        epoch=result.epoch,
                        vtime=batch_times[end - 1],
                        shard=shard,
                        sent=sent,
                        records=n_records,
                        lost=lost,
                        loops=loops,
                    )
                )
            start = end
        return sent, n_records, lost, loops

    def _probe_window(self, size: int) -> tuple[range, Iterator[int]]:
        """This shard's ``(global positions, target indexes)`` columns.

        Delegates to :func:`repro.scanner.stream.shard_window`, the
        shared definition of the permuted visit order and its shard
        windows (pairwise disjoint; position-ordered union == serial).
        """
        config = self.config
        return shard_window(
            size,
            seed=config.seed,
            epoch=self.backend.epoch,
            window=IndexWindow(config.shard, config.shards),
            permute=config.permute,
        )
