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
    "ENGINE_STAT_COUNTERS",
    "RECORDS_BUFFERED_GAUGE",
    "REPLY_VTIME_EDGES",
    "TARGETS_BUFFERED_GAUGE",
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
# has no labels).  Deterministic facts of the race.
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

    Only what the scan deterministically produced lands here, so a resumed
    run exports the bytes of an uninterrupted one.  How one execution went
    rides elsewhere: unmatched replies and the resilience delta on the
    :class:`~repro.scanner.records.ScanResult`, shard-transport counters on
    the runner's ``ring_stats``, retries and interrupts in the runner's
    typed errors (DESIGN §6).
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.events: list[dict] = []
        self._seq = 0

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
        targets_buffered: int = 0,
        shard_results: "Sequence[tuple[int, ScanResult]]" = (),
    ) -> None:
        """The closing sequence of every scan, in place or sharded.

        ``capture``'s progress and first-sighting events in deterministic
        order, one ``shard_finished`` per ``(shard, result)`` of
        ``shard_results`` (none for a scan run in place), the scan's
        ``registry`` (:func:`populate_registry` of its final stats and
        records) into the facade's, then ``scan_finished`` with the summary
        gauges/counters (``sra_scans_total``, last duration, and the
        streaming-pipeline memory gauges).

        ``targets_buffered`` is how many target values the scan's input
        stream held in memory (``TargetStream.buffered``; a plain list
        counts in full).  Records buffered is read off the result — a
        streaming-sink scan leaves ``result.rows`` empty.
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

        Emits a ``strategy_window`` event and bumps the per-strategy
        counters.  Everything here is a deterministic fact of the race
        (yield, budget spend, telescope exposure), so the byte-identity
        contract across shard counts and resume paths extends to strategy
        telemetry unchanged.
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
    # sinks
    # ------------------------------------------------------------------ #

    def to_jsonl(self) -> str:
        return events_to_jsonl(self.events)

    def write_jsonl(self, path: str | Path) -> None:
        write_events(self.events, path)

    def to_prometheus(self) -> str:
        return self.registry.to_prometheus()

    def write_prometheus(self, path: str | Path) -> None:
        atomic_write_text(Path(path), self.to_prometheus())
