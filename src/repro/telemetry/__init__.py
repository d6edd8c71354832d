"""Scan observability: structured telemetry, JSONL events, metrics export.

The subsystem has three parts — see each module's docstring:

* :mod:`repro.telemetry.metrics` — deterministic counters, gauges, and
  fixed-edge histograms in a :class:`MetricsRegistry` with a Prometheus
  text exporter and a merge rule,
* :mod:`repro.telemetry.events` — the schema-versioned JSONL event
  stream (``scan_started`` ... ``scan_finished``),
* :mod:`repro.telemetry.scan` — the :class:`ScanTelemetry` facade plus
  the hot-path capture pieces the scanner and engine use.

Typical use::

    from repro.telemetry import ScanTelemetry

    telemetry = ScanTelemetry()
    runner = ShardedScanRunner(world, shards=4, telemetry=telemetry)
    runner.scan(targets, ScanConfig(progress_every=10_000))
    telemetry.write_jsonl("scan.events.jsonl")
    telemetry.write_prometheus("scan.prom")
"""

from .events import EVENT_TYPES, SCHEMA_VERSION, events_to_jsonl, make_event
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .scan import HotPathCollector, ScanTelemetry, ShardTelemetry

__all__ = [
    "Counter",
    "EVENT_TYPES",
    "Gauge",
    "Histogram",
    "HotPathCollector",
    "MetricsRegistry",
    "SCHEMA_VERSION",
    "ScanTelemetry",
    "ShardTelemetry",
    "events_to_jsonl",
    "make_event",
]
