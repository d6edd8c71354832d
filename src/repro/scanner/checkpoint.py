"""The scan checkpoint journal: killable, resumable, provably identical.

Real SRA campaigns run for hours across re-scan epochs; ZMap-lineage
scanners treat interruption as routine and must survive restarts
*without re-probing* (re-probing skews per-router rate-limit state and
wastes probe budget).  This module gives
:class:`~repro.scanner.sharded.ShardedScanRunner` a durable journal:

* after every completed shard the runner saves a :class:`ScanCheckpoint`
  — the scan's identity (name, epoch, shard count, config key and a
  target fingerprint; the targets themselves are the resuming caller's
  to supply again), every finished :class:`~repro.scanner.sharded.ShardOutcome`
  (records *and* deferred rate-limit checks, as the ring frame's columns),
  the streaming sink's byte offset, and a snapshot of the shared
  :class:`~repro.telemetry.scan.ScanTelemetry` facade;
* a resume loads the journal, restores the telemetry snapshot, and
  re-runs **only the index windows of the missing shards** (each window
  is reconstructed arithmetically by
  :func:`repro.scanner.stream.shard_positions` over the cyclic
  permutation — no per-probe state is needed to know what is left);
* the merge then replays all recorded rate-limit checks in global
  virtual-time order exactly as an uninterrupted run would, so the
  resumed result — records, counters, Prometheus export, event stream —
  is **byte-identical** to a never-interrupted run.

Durability: checkpoints are written via the shared temp + rename + fsync
helper (:mod:`repro.atomicio`), so a crash mid-save leaves the previous
complete journal, never a torn one.  Integrity: the on-disk container is
``MAGIC | schema version | payload length | CRC-32 | payload``; any
truncation, bit-flip, or schema skew is detected at load time and
reported as a typed :class:`CheckpointError` (the CLIs map these to exit
code 4 with a one-line message, no traceback).
"""

from __future__ import annotations

import pickle
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from ..atomicio import atomic_write_bytes

if TYPE_CHECKING:  # runtime import cycle: sharded imports this module
    from ..telemetry.scan import ScanTelemetry
    from .sharded import ShardOutcome
    from .zmapv6 import ScanConfig

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointMismatchError",
    "CheckpointSchemaError",
    "ScanCheckpoint",
    "TelemetrySnapshot",
    "config_key",
    "load_checkpoint",
    "restore_telemetry",
    "save_checkpoint",
    "snapshot_telemetry",
    "target_fingerprint",
]

# v2: snapshot histograms carry their sum as an int scaled by 2**1074 (v1
# pickled a Fraction; resumed, the two would add up to a wrong ``_sum``).
# v3: a journaled ShardOutcome.telemetry holds events and first sightings
# only (v2 pickled a per-shard metrics registry into it).
# v4: a ScanCheckpoint has no ``spec`` (v3 pickled the target stream's
# rebuild recipe, which no code read back).
# v5: a journaled ShardOutcome holds its records and checks as the ring
# frame's columns (v4 pickled one ScanRecord and one tuple per row).
# v6: the config key holds the backend's name and probe key (v5 pickled
# a backend rebuild recipe whose class this build no longer has).
# v7: a TelemetrySnapshot holds the one event stream and registry (v6 also
# pickled an ops stream, its seq and its registry), and a journaled shard's
# resilience delta rides its result (v6 kept it on the ShardOutcome).
CHECKPOINT_SCHEMA_VERSION = 7

# 8-byte magic, then schema (u32), payload length (u64), CRC-32 (u32),
# big-endian, then the pickled payload.
_MAGIC = b"SRACKPT\n"
_HEADER = struct.Struct(">IQI")


class CheckpointError(Exception):
    """Base class for everything that can go wrong with a journal."""


class CheckpointCorruptError(CheckpointError):
    """The file is truncated, bit-flipped, or not a checkpoint at all."""


class CheckpointSchemaError(CheckpointError):
    """The file is intact but written by an incompatible schema version."""


class CheckpointMismatchError(CheckpointError):
    """The journal belongs to a different scan than the one resuming."""


@dataclass(slots=True)
class TelemetrySnapshot:
    """A :class:`~repro.telemetry.scan.ScanTelemetry` facade, frozen: its
    events, seq and registry, so a resumed process picks up the event
    stream at the exact sequence number the crashed process reached."""

    events: list = field(default_factory=list)
    seq: int = 0
    registry: object = None


def snapshot_telemetry(telemetry: "ScanTelemetry") -> TelemetrySnapshot:
    """Freeze a facade's state (by reference; pickling at save time makes
    the copy, so snapshot + save must happen back to back)."""
    return TelemetrySnapshot(
        events=telemetry.events,
        seq=telemetry._seq,
        registry=telemetry.registry,
    )


def restore_telemetry(
    telemetry: "ScanTelemetry", snapshot: TelemetrySnapshot
) -> None:
    """Replace a facade's state with a loaded snapshot.

    Snapshots are cumulative prefixes of one deterministic stream, so a
    multi-scan campaign that resumes scan *k* restores the state the
    original process had reached at that point — including every event
    of scans 1..k-1 — and re-emission continues from there byte for
    byte.
    """
    telemetry.events = list(snapshot.events)
    telemetry._seq = snapshot.seq
    if snapshot.registry is not None:
        telemetry.registry = snapshot.registry


def config_key(config: "ScanConfig") -> tuple:
    """The scan-config fields a resume must agree on.

    Probe times, permutation order, and stochastic draws are functions of
    exactly these; ``batch_size`` and telemetry cadence are deliberately
    excluded (they are pinned bit-invariant by the determinism suite).
    The backend rides along as its name and probe key — resuming a
    ``wire-sim`` journal with a ``sim`` config (or a different probe key)
    is a config mismatch like any other.  So does the resilience policy:
    quarantine semantics decide which probes a completed shard gave up
    on, so resuming across a policy change (or from a policy-less
    journal into a policy-ful run) must fail loudly, not merge runs with
    different failure semantics.
    """
    return (
        config.pps,
        config.hop_limit,
        config.seed,
        config.permute,
        config.backend,
        config.key,
        config.retry_policy,
    )


def target_fingerprint(targets: Sequence[int]) -> int:
    """A cheap, O(1) identity check for a target sequence.

    Hashes the length plus three sampled elements — enough to catch the
    realistic failure mode (resuming against a different input set or
    budget) without walking a constant-memory stream end to end.
    """
    size = len(targets)
    sample = (size,)
    if size:
        sample += (
            int(targets[0]),
            int(targets[size // 2]),
            int(targets[size - 1]),
        )
    digest = zlib.crc32(repr(sample).encode("ascii"))
    return digest


@dataclass(slots=True)
class ScanCheckpoint:
    """Everything needed to resume a sharded scan after a crash."""

    name: str
    epoch: int
    shards: int
    scan_key: tuple
    target_count: int
    fingerprint: int
    # Completed shards, by shard index.  Records are pristine (pre-merge:
    # the rate-limit replay prunes at merge time, never here).
    outcomes: "dict[int, ShardOutcome]" = field(default_factory=dict)
    # Byte offset the streaming record sink had flushed when this
    # checkpoint was written (None when the scan buffers records).
    sink_offset: int | None = None
    telemetry: TelemetrySnapshot | None = None

    @property
    def completed_shards(self) -> list[int]:
        return sorted(self.outcomes)

    def validate_resume(
        self,
        *,
        name: str,
        epoch: int,
        shards: int,
        scan_key: tuple,
        target_count: int,
        fingerprint: int,
    ) -> None:
        """Raise :class:`CheckpointMismatchError` unless this journal
        belongs to exactly the scan that is resuming."""
        expected = {
            "scan name": (self.name, name),
            "epoch": (self.epoch, epoch),
            "shard count": (self.shards, shards),
            "scan config": (self.scan_key, scan_key),
            "target count": (self.target_count, target_count),
            "target fingerprint": (self.fingerprint, fingerprint),
        }
        for label, (stored, current) in expected.items():
            if stored != current:
                raise CheckpointMismatchError(
                    f"checkpoint {label} mismatch: journal has {stored!r}, "
                    f"resuming scan has {current!r} (delete the checkpoint "
                    f"to start over)"
                )
        for shard in self.outcomes:
            if not 0 <= shard < self.shards:
                raise CheckpointCorruptError(
                    f"checkpoint contains shard {shard} outside "
                    f"[0, {self.shards})"
                )


def save_checkpoint(checkpoint: ScanCheckpoint, path: str | Path) -> None:
    """Serialise and write the journal atomically.

    Layout: ``MAGIC | schema | payload length | CRC-32(payload) |
    payload``.  The write itself is temp + rename + fsync, so a crash
    mid-save leaves the previous journal intact.
    """
    payload = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
    header = _MAGIC + _HEADER.pack(
        CHECKPOINT_SCHEMA_VERSION, len(payload), zlib.crc32(payload)
    )
    atomic_write_bytes(path, header + payload)


def load_checkpoint(path: str | Path) -> ScanCheckpoint:
    """Load and integrity-check a journal.

    Raises :class:`CheckpointCorruptError` on truncation / bad magic /
    CRC mismatch / undecodable payload and
    :class:`CheckpointSchemaError` on a schema version this code does
    not speak.  Never returns a partially-valid checkpoint.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}") from None
    prefix_len = len(_MAGIC) + _HEADER.size
    if len(raw) < prefix_len or not raw.startswith(_MAGIC):
        raise CheckpointCorruptError(
            f"{path} is not a scan checkpoint (bad or truncated header)"
        )
    schema, length, crc = _HEADER.unpack_from(raw, len(_MAGIC))
    if schema != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointSchemaError(
            f"{path} uses checkpoint schema v{schema}; this build speaks "
            f"v{CHECKPOINT_SCHEMA_VERSION}"
        )
    payload = raw[prefix_len:]
    if len(payload) != length:
        raise CheckpointCorruptError(
            f"{path} is truncated: header promises {length} payload bytes, "
            f"found {len(payload)}"
        )
    if zlib.crc32(payload) != crc:
        raise CheckpointCorruptError(
            f"{path} failed its CRC-32 integrity check (corrupt journal)"
        )
    try:
        checkpoint = pickle.loads(payload)
    except Exception as error:
        raise CheckpointCorruptError(
            f"{path} payload does not decode: {error}"
        ) from None
    if not isinstance(checkpoint, ScanCheckpoint):
        raise CheckpointCorruptError(
            f"{path} decodes to {type(checkpoint).__name__}, "
            "not a ScanCheckpoint"
        )
    return checkpoint
