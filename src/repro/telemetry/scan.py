"""The scan telemetry facade and its hot-path instrumentation pieces.

Three layers, from the packet engine up:

* :class:`HotPathCollector` — the only object the simulation engine ever
  sees.  It records *first occurrences* (first probe to hit each loop
  router, first error each router's RFC 4443 limiter suppressed) into
  plain dicts, so the engine's hot path pays one ``is not None`` check on
  rare branches and nothing anywhere else.
* :class:`ShardTelemetry` — the per-shard capture: progress events and
  the collector dicts.  Plain data by construction so it rides home
  through the process pool (and into a checkpoint journal) with the
  shard's outcome.
* :class:`ScanTelemetry` — the user-facing facade: owns the global event
  stream (``seq`` assignment) and the registry, and writes the JSONL /
  Prometheus sinks.

A scan's metrics are folded once, at its end, from its final engine stats
and records (:func:`populate_registry`): by the scanner for a scan run in
place, by :func:`repro.scanner.sharded.merge_shard_outcomes` — after the
rate-limit replay — for one run in shards.  Both then hand everything to
:meth:`ScanTelemetry.scan_closed`, the one closing sequence.

Determinism contract: for a fixed configuration (seed, shard count,
progress cadence) two runs produce byte-identical JSONL and Prometheus
text.  The *registry* (and therefore the Prometheus export) is moreover
invariant to batch size and shard count — it is a function of the merged
stats and record multiset, which are the serial scan's.
``loop_detected`` and ``rate_limit_engaged`` events are shard-invariant
too (first occurrences in virtual time are global properties); only
``progress`` and ``shard_finished`` events are per-shard by nature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from ..atomicio import atomic_write_text
from .events import body_sort_key, events_to_jsonl, make_event, write_events
from .metrics import MetricsRegistry

if TYPE_CHECKING:  # telemetry stays import-light; scans are duck-typed
    from ..netsim.engine import EngineStats
    from ..scanner.records import ScanResult

__all__ = [
    "AMPLIFICATION_EDGES",
    "BACKEND_RETRIES_TOTAL",
    "BACKEND_SCANS_TOTAL",
    "BACKEND_TIMEOUTS_TOTAL",
    "BACKEND_WARNINGS_TOTAL",
    "BREAKER_TRANSITIONS_TOTAL",
    "CHECKPOINTS_TOTAL",
    "FAULTED_PROBES_TOTAL",
    "QUARANTINED_BATCHES_TOTAL",
    "ENGINE_STAT_COUNTERS",
    "RECORDS_BUFFERED_GAUGE",
    "REPLY_VTIME_EDGES",
    "RESUMES_TOTAL",
    "SHARDS_SALVAGED_TOTAL",
    "SHARD_RETRIES_TOTAL",
    "TARGETS_BUFFERED_GAUGE",
    "UNMATCHED_REPLIES_TOTAL",
    "HotPathCollector",
    "ScanTelemetry",
    "ShardTelemetry",
    "collector_events",
    "merge_first_times",
    "populate_registry",
]

# Virtual seconds into the scan at which a reply arrived.  Fixed edges:
# campaign scans pace over single-digit virtual durations (SurveyConfig
# scan_duration defaults to 6s), benchmarks run longer.
REPLY_VTIME_EDGES = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

# Reply replication count per matched record; the top edge is the
# engine's amplification cap (~4.2M replies, see netsim.engine).
AMPLIFICATION_EDGES = (1.0, 2.0, 8.0, 64.0, 1024.0, 65536.0, float(1 << 22))

# EngineStats field -> (metric name, help), mirrored one-to-one.
ENGINE_STAT_COUNTERS = {
    "probes": ("sra_scan_probes_total", "Echo Requests sent"),
    "lost": ("sra_scan_probes_lost_total", "probes lost in flight"),
    "echo_replies": ("sra_scan_echo_replies_total", "Echo Replies received"),
    "error_replies": (
        "sra_scan_error_replies_total",
        "ICMPv6 error messages received (incl. amplified duplicates)",
    ),
    "suppressed_errors": (
        "sra_scan_suppressed_errors_total",
        "errors suppressed by RFC 4443 rate limiting",
    ),
    "loops_hit": ("sra_scan_loops_hit_total", "probes that entered a routing loop"),
    "amplified_replies": (
        "sra_scan_amplified_replies_total",
        "duplicate replies fabricated by loop amplification",
    ),
}

RECORDS_TOTAL = "sra_scan_records_total"
FLOOD_PACKETS_TOTAL = "sra_scan_flood_packets_total"
REPLY_VTIME_HISTOGRAM = "sra_scan_reply_vtime_seconds"
AMPLIFICATION_HISTOGRAM = "sra_scan_reply_amplification"
SCANS_TOTAL = "sra_scans_total"
LAST_DURATION_GAUGE = "sra_scan_last_duration_seconds"
# Streaming-pipeline memory gauges: how many targets / records the last
# scan held in memory.  A constant-memory scan (computable TargetStream +
# streaming RecordSink) reports 0/0; the materialised path reports its
# full counts — the gauges are the observable difference between the two
# modes, everything else is byte-identical.
TARGETS_BUFFERED_GAUGE = "sra_scan_targets_buffered"
RECORDS_BUFFERED_GAUGE = "sra_scan_records_buffered"
# Per-strategy race counters: what each discovery strategy spent and
# found, keyed by strategy name in the metric name (the flat registry
# has no labels).  Deterministic facts of the race — main channel.
STRATEGY_COUNTER_SUFFIXES = {
    "windows_total": "strategy windows scanned",
    "probes_total": "probe targets the strategy spent",
    "discoveries_total": "router IPs first discovered by the strategy",
    "dark_probes_total": "probes that landed in unallocated space",
    "suppressed_errors_total": "errors rate limiting withheld from the strategy",
}


def strategy_metric_name(strategy: str, suffix: str) -> str:
    """``sra_strategy_<name>_<suffix>`` with Prometheus-safe characters."""
    return f"sra_strategy_{strategy.replace('-', '_')}_{suffix}"
# Operational (crash-recovery) counters.  These live on the facade's
# separate ops registry: checkpoints, retries, and resumes are properties
# of *this process's* execution, not of the scan's deterministic outcome,
# so keeping them out of the main registry is what lets a resumed run's
# Prometheus export stay byte-identical to an uninterrupted run's.
CHECKPOINTS_TOTAL = "sra_scan_checkpoints_total"
SHARD_RETRIES_TOTAL = "sra_scan_shard_retries_total"
RESUMES_TOTAL = "sra_scan_resumes_total"
SHARDS_SALVAGED_TOTAL = "sra_scan_shards_salvaged_total"
# Probe-backend accounting (ops-channel too: *which executor* probed and
# what inbound traffic failed to match are execution properties — the
# deterministic outcome of a sim/wire-sim scan is identical either way).
BACKEND_SCANS_TOTAL = "sra_scan_backend_scans_total"
UNMATCHED_REPLIES_TOTAL = "sra_scan_unmatched_replies_total"
# Backend-resilience counters (ops-channel: retries, watchdog timeouts,
# breaker trips, and quarantines describe how this process fought its
# transport, not what the scan found — a retried run's main channel is
# byte-identical to a fault-free one's).
BACKEND_RETRIES_TOTAL = "sra_scan_backend_retries_total"
BACKEND_TIMEOUTS_TOTAL = "sra_scan_backend_timeouts_total"
QUARANTINED_BATCHES_TOTAL = "sra_scan_quarantined_batches_total"
FAULTED_PROBES_TOTAL = "sra_scan_faulted_probes_total"
BREAKER_TRANSITIONS_TOTAL = "sra_scan_breaker_transitions_total"
BACKEND_WARNINGS_TOTAL = "sra_scan_backend_warnings_total"
# Shared-memory shard-transport counters (also ops-channel: they describe
# how this process moved bytes, not what the scan found).  Names mirror
# RingStats fields: sra_scan_ring_<field>_total.
RING_COUNTERS = {
    "segments": (
        "sra_scan_ring_segments_total",
        "shared-memory frames shipped by shard workers",
    ),
    "bytes": (
        "sra_scan_ring_bytes_total",
        "bytes moved through shared-memory frames",
    ),
    "records": (
        "sra_scan_ring_records_total",
        "scan records transported via shared memory",
    ),
    "checks": (
        "sra_scan_ring_checks_total",
        "rate-limit checks transported via shared memory",
    ),
    "fallbacks": (
        "sra_scan_ring_fallbacks_total",
        "shard outcomes that fell back to pickle transport",
    ),
}


class HotPathCollector:
    """First-occurrence recorder attached to a :class:`SimulationEngine`.

    The engine calls :meth:`on_loop` when a probe enters a loop region and
    :meth:`on_suppressed` when a router's rate limiter swallows an error.
    Both paths are rare by construction, and with telemetry disabled the
    engine's only cost is the ``telemetry is not None`` check guarding the
    call — the packet hot path itself is untouched.

    Scans probe in non-decreasing virtual time, so "first insert wins"
    records the *earliest* occurrence; sharded scans merge their
    shard-local dicts by minimum time, which reproduces the serial
    first occurrence exactly.
    """

    __slots__ = ("first_loop", "first_suppressed")

    def __init__(self) -> None:
        self.first_loop: dict[int, float] = {}
        self.first_suppressed: dict[int, float] = {}

    def on_loop(self, router_id: int, time: float) -> None:
        if router_id not in self.first_loop:
            self.first_loop[router_id] = time

    def on_suppressed(self, router_id: int, time: float) -> None:
        if router_id not in self.first_suppressed:
            self.first_suppressed[router_id] = time


def merge_first_times(dicts: Iterable[dict[int, float]]) -> dict[int, float]:
    """Merge per-shard first-occurrence dicts: earliest time wins."""
    merged: dict[int, float] = {}
    for current in dicts:
        for router_id, time in current.items():
            known = merged.get(router_id)
            if known is None or time < known:
                merged[router_id] = time
    return merged


def collector_events(
    *,
    scan: str,
    epoch: int,
    first_loop: dict[int, float],
    first_suppressed: dict[int, float],
) -> list[dict]:
    """``loop_detected`` / ``rate_limit_engaged`` events from collector
    dicts (unsorted; callers sort the whole body with
    :func:`~repro.telemetry.events.body_sort_key`)."""
    events = [
        make_event(
            "loop_detected", scan=scan, epoch=epoch, vtime=time, router=router
        )
        for router, time in first_loop.items()
    ]
    events.extend(
        make_event(
            "rate_limit_engaged",
            scan=scan,
            epoch=epoch,
            vtime=time,
            router=router,
        )
        for router, time in first_suppressed.items()
    )
    return events


@dataclass(slots=True)
class ShardTelemetry:
    """One shard's (or one serial scan's) captured telemetry.

    Plain data: a list and two dicts — picklable, so process-pool shards
    ship it back with their outcome.  No metrics: a deferred shard's
    records are provisional until the merge has replayed the limiter.
    """

    events: list[dict] = field(default_factory=list)  # progress snapshots
    first_loop: dict[int, float] = field(default_factory=dict)
    first_suppressed: dict[int, float] = field(default_factory=dict)


def populate_registry(
    registry: MetricsRegistry, stats: "EngineStats | None", times: Iterable, counts: Iterable
) -> MetricsRegistry:
    """Fold a scan's final engine stats and its records' ``time`` and
    ``count`` columns (all it reads of them) into a registry.

    Counters *add*, so one registry can accumulate a whole campaign.
    Counter sums and fixed-edge histograms are order-independent
    (histogram sums are exact scaled ints), so a scan that streams its
    records folds them batch by batch (``stats=None``) and its stats at
    the end, to a byte-identical export.
    """
    if stats is not None:
        for field_name, (metric_name, help_text) in ENGINE_STAT_COUNTERS.items():
            registry.counter(metric_name, help_text).inc(
                getattr(stats, field_name)
            )
    vtimes = registry.histogram(
        REPLY_VTIME_HISTOGRAM,
        REPLY_VTIME_EDGES,
        "virtual seconds into the scan at which replies arrived",
    )
    amplification = registry.histogram(
        AMPLIFICATION_HISTOGRAM,
        AMPLIFICATION_EDGES,
        "reply replication count per matched record",
    )
    count = 0
    flood_total = 0
    for time, replicas in zip(times, counts):
        count += 1
        vtimes.observe(time)
        amplification.observe(replicas)
        flood_total += replicas - 1
    registry.counter(RECORDS_TOTAL, "matched reply records").inc(count)
    registry.counter(
        FLOOD_PACKETS_TOTAL, "unsolicited duplicates from loop amplification"
    ).inc(flood_total)
    return registry


class ScanTelemetry:
    """The observability facade: one event stream + one metrics registry.

    Share a single instance across every scan of a campaign (the survey's
    five input sets, a Fig. 5 epoch series, ...): events append in scan
    order with a global ``seq``, and the registry accumulates counters
    across scans.  ``sra-scan --telemetry-out/--metrics-out`` and
    ``sra-repro --telemetry-out`` are thin wrappers over the two sinks.

    Crash-recovery machinery reports on a *second* channel
    (``ops_events`` / ``ops_registry``): checkpoint, retry, and resume
    events describe how this particular process execution went, not what
    the scan deterministically produced, so they must never perturb the
    main stream — the byte-identity contract between resumed and
    uninterrupted runs depends on it.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.events: list[dict] = []
        self._seq = 0
        self.ops_registry = MetricsRegistry()
        self.ops_events: list[dict] = []
        self._ops_seq = 0

    # ------------------------------------------------------------------ #
    # event emission
    # ------------------------------------------------------------------ #

    def emit(self, event: dict) -> dict:
        """Append one event, stamping its stream sequence number."""
        event["seq"] = self._seq
        self._seq += 1
        self.events.append(event)
        return event

    def emit_sorted(self, body: list[dict]) -> None:
        """Emit a scan's body events in deterministic order."""
        for event in sorted(body, key=body_sort_key):
            self.emit(event)

    def scan_started(
        self,
        *,
        scan: str,
        epoch: int,
        targets: int,
        shards: int,
        pps: float,
    ) -> None:
        self.emit(
            make_event(
                "scan_started",
                scan=scan,
                epoch=epoch,
                vtime=0.0,
                targets=targets,
                shards=shards,
                pps=pps,
            )
        )

    def scan_closed(
        self,
        *,
        scan: str,
        epoch: int,
        result: "ScanResult",
        capture: ShardTelemetry,
        registry: MetricsRegistry,
        backend: str,
        targets_buffered: int = 0,
        shard_results: "Sequence[tuple[int, ScanResult]]" = (),
        resilience: Iterable[tuple[int, object]] = (),
        warnings: Iterable[str] = (),
    ) -> None:
        """The closing sequence of every scan, in place or sharded.

        ``capture``'s progress and first-sighting events in deterministic
        order, one ``shard_finished`` per ``(shard, result)`` of
        ``shard_results`` (none for a scan run in place), the scan's
        ``registry`` (:func:`populate_registry` of its final stats and
        records) into the facade's, ``scan_finished`` with the summary
        gauges/counters (``sra_scans_total``, last duration, and the
        streaming-pipeline memory gauges), then the ops channel: unmatched
        replies, per-``(shard, delta)`` ``resilience``, backend
        ``warnings``.

        ``targets_buffered`` is how many target values the scan's input
        stream held in memory (``TargetStream.buffered``; a plain list
        counts in full).  Records buffered is read off the result — a
        streaming-sink scan leaves ``result.records`` empty.
        """
        self.emit_sorted(
            capture.events
            + collector_events(
                scan=scan,
                epoch=epoch,
                first_loop=capture.first_loop,
                first_suppressed=capture.first_suppressed,
            )
        )
        for shard, shard_result in shard_results:
            self.emit(
                make_event(
                    "shard_finished",
                    scan=scan,
                    epoch=epoch,
                    vtime=shard_result.duration,
                    shard=shard,
                    sent=shard_result.sent,
                    records=shard_result.received,
                    lost=shard_result.lost,
                    loops=shard_result.loops_observed,
                    duration=shard_result.duration,
                )
            )
        self.registry.merge(registry)
        stats = result.engine_stats
        stats_fields = {}
        if stats is not None:
            stats_fields = {
                name: getattr(stats, name) for name in ENGINE_STAT_COUNTERS
            }
        self.emit(
            make_event(
                "scan_finished",
                scan=scan,
                epoch=epoch,
                vtime=result.duration,
                sent=result.sent,
                records=result.received,
                lost=result.lost,
                loops=result.loops_observed,
                duration=result.duration,
                stats=stats_fields,
            )
        )
        self.registry.counter(SCANS_TOTAL, "scans completed").inc()
        self.registry.gauge(
            LAST_DURATION_GAUGE, "virtual duration of the last scan"
        ).set(result.duration)
        self.registry.gauge(
            TARGETS_BUFFERED_GAUGE,
            "target values the last scan held in memory",
        ).set(targets_buffered)
        self.registry.gauge(
            RECORDS_BUFFERED_GAUGE,
            "reply records the last scan held in memory",
        ).set(result.received - result.records_streamed)
        self.unmatched_replies_recorded(
            scan=scan,
            epoch=epoch,
            backend=backend,
            count=result.unmatched_replies,
        )
        for shard, delta in resilience:
            self.backend_resilience_recorded(
                scan=scan, epoch=epoch, shard=shard, stats=delta
            )
        for message in warnings:
            self.backend_warning_recorded(
                scan=scan, epoch=epoch, backend=backend, message=message
            )

    def strategy_window_finished(
        self,
        *,
        strategy: str,
        epoch: int,
        targets: int,
        new_router_ips: int,
        cumulative_router_ips: int,
        dark_probes: int,
        suppressed_errors: int,
    ) -> None:
        """Record one epoch of a discovery-strategy race.

        Emits a main-channel ``strategy_window`` event and bumps the
        per-strategy counters.  Everything here is a deterministic fact
        of the race (yield, budget spend, telescope exposure), so the
        main channel's byte-identity contract across shard counts and
        resume paths extends to strategy telemetry unchanged.
        """
        self.emit(
            make_event(
                "strategy_window",
                scan=strategy,
                epoch=epoch,
                vtime=0.0,
                targets=targets,
                new_router_ips=new_router_ips,
                cumulative_router_ips=cumulative_router_ips,
                dark_probes=dark_probes,
                suppressed_errors=suppressed_errors,
            )
        )
        amounts = {
            "windows_total": 1,
            "probes_total": targets,
            "discoveries_total": new_router_ips,
            "dark_probes_total": dark_probes,
            "suppressed_errors_total": suppressed_errors,
        }
        for suffix, help_text in STRATEGY_COUNTER_SUFFIXES.items():
            self.registry.counter(
                strategy_metric_name(strategy, suffix), help_text
            ).inc(amounts[suffix])

    # ------------------------------------------------------------------ #
    # operational (crash-recovery) channel
    # ------------------------------------------------------------------ #

    def emit_ops(self, event: dict) -> dict:
        """Append one event to the ops stream (its own ``seq`` space)."""
        event["seq"] = self._ops_seq
        self._ops_seq += 1
        self.ops_events.append(event)
        return event

    def scan_checkpointed(
        self,
        *,
        scan: str,
        epoch: int,
        vtime: float,
        shard: int,
        completed: int,
        remaining: int,
    ) -> None:
        self.emit_ops(
            make_event(
                "scan_checkpointed",
                scan=scan,
                epoch=epoch,
                vtime=vtime,
                shard=shard,
                completed=completed,
                remaining=remaining,
            )
        )
        self.ops_registry.counter(
            CHECKPOINTS_TOTAL, "scan checkpoints written"
        ).inc()

    def shard_retried(
        self,
        *,
        scan: str,
        epoch: int,
        shard: int,
        attempt: int,
        error: str,
    ) -> None:
        self.emit_ops(
            make_event(
                "shard_retried",
                scan=scan,
                epoch=epoch,
                vtime=0.0,
                shard=shard,
                attempt=attempt,
                error=error,
            )
        )
        self.ops_registry.counter(
            SHARD_RETRIES_TOTAL, "shard attempts retried after failure"
        ).inc()

    def scan_resumed(
        self,
        *,
        scan: str,
        epoch: int,
        completed: int,
        remaining: int,
    ) -> None:
        self.emit_ops(
            make_event(
                "scan_resumed",
                scan=scan,
                epoch=epoch,
                vtime=0.0,
                completed=completed,
                remaining=remaining,
            )
        )
        self.ops_registry.counter(
            RESUMES_TOTAL, "scans resumed from a checkpoint"
        ).inc()
        self.ops_registry.counter(
            SHARDS_SALVAGED_TOTAL,
            "completed shards salvaged from checkpoints instead of re-run",
        ).inc(completed)

    def backend_selected(
        self, *, scan: str, epoch: int, backend: str
    ) -> None:
        """Record which probe backend executed a scan.

        Ops-channel, and skipped entirely for the default ``sim``
        backend: a simulated scan's ops export stays byte-identical to
        what it was before the backend seam existed, and — just as
        important — ``sim`` and ``wire-sim`` runs of the same scan keep
        byte-identical *main* channels (backend identity never leaks
        there).
        """
        if backend == "sim":
            return
        self.emit_ops(
            make_event(
                "backend_selected",
                scan=scan,
                epoch=epoch,
                vtime=0.0,
                backend=backend,
            )
        )
        self.ops_registry.counter(
            BACKEND_SCANS_TOTAL, "scans executed by a non-default backend"
        ).inc()

    def unmatched_replies_recorded(
        self, *, scan: str, epoch: int, backend: str, count: int
    ) -> None:
        """Count inbound replies the backend could not match to a probe.

        These were silently dropped before (an invisible loss mode); now
        every wire backend surfaces them.  Zero counts are skipped — the
        ``ring_stats_updated`` idiom — so scans with nothing unmatched
        (every ``sim`` scan, and every healthy ``wire-sim`` scan) leave
        the ops export untouched.
        """
        if count <= 0:
            return
        self.emit_ops(
            make_event(
                "unmatched_replies",
                scan=scan,
                epoch=epoch,
                vtime=0.0,
                backend=backend,
                count=count,
            )
        )
        self.ops_registry.counter(
            UNMATCHED_REPLIES_TOTAL,
            "inbound replies that failed probe matching (auth or id)",
        ).inc(count)

    def backend_resilience_recorded(
        self, *, scan: str, epoch: int, shard: int, stats
    ) -> None:
        """Fold one scan's resilience deltas into the ops channel.

        ``stats`` is a (duck-typed) :class:`~repro.scanner.backends.\
        resilient.ResilienceStats` delta: one ``backend_resilience``
        summary event plus one ``breaker_transition`` event per breaker
        state change and one ``batch_quarantined`` event per
        :class:`BackendFault`, with matching ``sra_scan_*`` counters.
        ``None``/empty deltas are skipped — the ``ring_stats_updated``
        idiom — so scans without a policy (and policy-wrapped scans that
        never saw a fault) leave the ops export byte-identical.
        """
        if stats is None or stats.empty():
            return
        self.emit_ops(
            make_event(
                "backend_resilience",
                scan=scan,
                epoch=epoch,
                vtime=0.0,
                shard=shard,
                retries=stats.retries,
                timeouts=stats.timeouts,
                quarantined_batches=stats.quarantined_batches,
                faulted_probes=stats.faulted_probes,
                breaker_fastfails=stats.breaker_fastfails,
            )
        )
        for from_state, to_state in stats.transitions:
            self.emit_ops(
                make_event(
                    "breaker_transition",
                    scan=scan,
                    epoch=epoch,
                    vtime=0.0,
                    shard=shard,
                    from_state=from_state,
                    to_state=to_state,
                )
            )
        for fault in stats.faults:
            self.emit_ops(
                make_event(
                    "batch_quarantined",
                    scan=scan,
                    epoch=epoch,
                    vtime=0.0,
                    shard=shard,
                    batch=fault.batch,
                    probes=fault.probes,
                    attempts=fault.attempts,
                    reason=fault.reason,
                    error=fault.error,
                )
            )
        ops = self.ops_registry
        if stats.retries:
            ops.counter(
                BACKEND_RETRIES_TOTAL, "probe batches retried by the backend"
            ).inc(stats.retries)
        if stats.timeouts:
            ops.counter(
                BACKEND_TIMEOUTS_TOTAL,
                "probe batches abandoned at the watchdog deadline",
            ).inc(stats.timeouts)
        if stats.quarantined_batches:
            ops.counter(
                QUARANTINED_BATCHES_TOTAL,
                "probe batches quarantined after exhausting retries",
            ).inc(stats.quarantined_batches)
        if stats.faulted_probes:
            ops.counter(
                FAULTED_PROBES_TOTAL,
                "probes quarantined as BackendFault outcomes",
            ).inc(stats.faulted_probes)
        if stats.transitions:
            ops.counter(
                BREAKER_TRANSITIONS_TOTAL,
                "circuit breaker state transitions",
            ).inc(len(stats.transitions))

    def backend_warning_recorded(
        self, *, scan: str, epoch: int, backend: str, message: str
    ) -> None:
        """Surface a backend's operational warning (e.g. a receiver
        thread that refused to join) on the ops channel instead of
        letting it vanish."""
        self.emit_ops(
            make_event(
                "backend_warning",
                scan=scan,
                epoch=epoch,
                vtime=0.0,
                backend=backend,
                message=message,
            )
        )
        self.ops_registry.counter(
            BACKEND_WARNINGS_TOTAL, "operational warnings raised by backends"
        ).inc()

    def ring_stats_updated(
        self, *, scan: str, epoch: int, stats: dict[str, int]
    ) -> None:
        """Fold one scan's shared-memory transport deltas into the ops
        channel (one ``ring_stats`` event plus ``sra_scan_ring_*``
        counters).  The sharded runner calls this with per-scan deltas of
        its cumulative :class:`~repro.scanner.shmring.RingStats`; all-zero
        deltas (the serial executor, pickle fallback) are skipped so
        ops exports stay unchanged for scans that never touched a ring.
        """
        if not any(stats.get(field, 0) for field in RING_COUNTERS):
            return
        self.emit_ops(
            make_event(
                "ring_stats",
                scan=scan,
                epoch=epoch,
                vtime=0.0,
                **{field: stats.get(field, 0) for field in RING_COUNTERS},
            )
        )
        for field, (name, help_text) in RING_COUNTERS.items():
            self.ops_registry.counter(name, help_text).inc(
                stats.get(field, 0)
            )

    # ------------------------------------------------------------------ #
    # sinks
    # ------------------------------------------------------------------ #

    def to_jsonl(self) -> str:
        return events_to_jsonl(self.events)

    def write_jsonl(self, path: str | Path) -> None:
        write_events(self.events, path)

    def to_ops_jsonl(self) -> str:
        return events_to_jsonl(self.ops_events)

    def write_ops_jsonl(self, path: str | Path) -> None:
        write_events(self.ops_events, path)

    def to_prometheus(self) -> str:
        return self.registry.to_prometheus()

    def write_prometheus(self, path: str | Path) -> None:
        atomic_write_text(Path(path), self.to_prometheus())

    def to_ops_prometheus(self) -> str:
        return self.ops_registry.to_prometheus()
