"""The scan event stream: schema-versioned dicts, serialised as JSONL.

Every event is a flat(ish) JSON object with a fixed field contract —
**schema version 1**:

========================  =====================================================
field                     meaning
========================  =====================================================
``schema``                event-schema version (this module: ``1``)
``seq``                   position in the stream (assigned at emission)
``event``                 event type, one of :data:`EVENT_TYPES`
``scan``                  scan name (survey input set, campaign scan, ...)
``epoch``                 scan epoch
``vtime``                 virtual-clock seconds into the scan
========================  =====================================================

Event types and their extra fields:

* ``scan_started``      — ``targets``, ``shards``, ``pps``
* ``progress``          — ``shard``, ``sent``, ``records``, ``lost``,
  ``loops`` (cumulative for that shard, snapshotted every N probes)
* ``loop_detected``     — ``router`` (first probe to hit that loop router)
* ``rate_limit_engaged``— ``router`` (first error that router suppressed)
* ``shard_finished``    — ``shard``, ``sent``, ``records``, ``lost``,
  ``loops``, ``duration``
* ``scan_finished``     — ``sent``, ``records``, ``lost``, ``loops``,
  ``duration``, ``stats`` (the final ``EngineStats`` counters)
* ``strategy_window``   — ``targets``, ``new_router_ips``,
  ``cumulative_router_ips``, ``dark_probes``, ``suppressed_errors``
  (one per epoch of a discovery-strategy race; ``scan`` is the strategy
  name)

There is one stream.  How a particular execution went (checkpoints,
retries, resumes, backend resilience, shard transport) is not an event:
DESIGN §6 names where each of those facts lives.

Serialisation is deterministic by construction: keys sort, separators are
fixed, and every value is derived from the virtual clock and seeded
simulation state — two runs of the same configuration produce
byte-identical JSONL.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from ..atomicio import atomic_write_text

SCHEMA_VERSION = 1

EVENT_TYPES = (
    "scan_started",
    "progress",
    "loop_detected",
    "rate_limit_engaged",
    "shard_finished",
    "scan_finished",
    "strategy_window",
)

__all__ = [
    "EVENT_TYPES",
    "SCHEMA_VERSION",
    "body_sort_key",
    "event_line",
    "events_to_jsonl",
    "make_event",
    "write_events",
]


def make_event(
    event: str, *, scan: str, epoch: int, vtime: float, **fields
) -> dict:
    """Build one schema-v1 event dict (``seq`` is assigned at emission)."""
    if event not in EVENT_TYPES:
        raise ValueError(f"unknown event type {event!r}")
    built: dict = {
        "schema": SCHEMA_VERSION,
        "event": event,
        "scan": scan,
        "epoch": epoch,
        "vtime": vtime,
    }
    built.update(fields)
    return built


def body_sort_key(event: dict) -> tuple:
    """Deterministic order for within-scan body events.

    Sorts by virtual time, then event type, then the event's integer
    discriminator (shard for progress, router for loop/rate-limit
    events) — a total order because (vtime, type, discriminator) is
    unique per event.
    """
    return (
        event["vtime"],
        event["event"],
        event.get("shard", event.get("router", 0)),
    )


def event_line(event: dict) -> str:
    """One event as its canonical JSON line (sorted keys, no spaces)."""
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


def events_to_jsonl(events: Iterable[dict]) -> str:
    """The whole stream as JSONL text (trailing newline, may be empty)."""
    lines = [event_line(event) for event in events]
    return "\n".join(lines) + "\n" if lines else ""


def write_events(events: Iterable[dict], path: str | Path) -> None:
    atomic_write_text(Path(path), events_to_jsonl(events))
