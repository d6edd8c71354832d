"""Zero-copy shared-memory transport for the shard → merge hand-off.

A pool worker's outcome holds its rows as flat parallel columns
(:class:`~repro.scanner.records.RecordColumns`); it memcpys them and two
check arrays — one buffer-protocol copy per column, no per-row objects —
into a single ``multiprocessing.shared_memory`` segment.  What crosses
the pickle channel is a tiny :class:`RingHandle` claim ticket.  The
parent attaches, copies the columns back out, and unlinks: neither side
builds a record.  The frame's columns are also the pickled and journaled
form of an outcome (:func:`outcome_columns` / :func:`outcome_rows`): the
pool future, the pickle fallback below and the checkpoint journal never
pickle a :class:`ScanRecord` or a check tuple either.

Frame layout (one segment per shard outcome)::

    header:  magic (8s) | record rows (Q) | check rows (Q)
    frame 0: record columns, each contiguous, in RecordColumns field order
    frame 1: check times as array('d'), check router ids as array('q')

Ownership protocol: the worker *creates* the segment but immediately
unregisters it from its resource tracker — the parent owns the unlink.
Draining is therefore mandatory; :func:`drain_outcome` both copies the
payload out and releases the segment, and :func:`release_outcome` unlinks an
undrained frame when a failure or interrupt means its payload will never
be merged.

Everything degrades gracefully: when shared memory is unavailable (or a
segment cannot be created) the outcome simply travels the pickled path,
flagged via ``ring_fallback`` so :class:`RingStats` can report it.  The
payload is identical either way, so transport never changes the output.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING

from .records import RecordColumns

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from .records import ScanResult
    from .sharded import ShardOutcome

try:  # gate: platforms without POSIX/System V shared memory pickle instead
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - exotic platforms only
    resource_tracker = None  # type: ignore[assignment]
    shared_memory = None  # type: ignore[assignment]

__all__ = [
    "RingHandle",
    "RingStats",
    "drain_outcome",
    "outcome_columns",
    "outcome_rows",
    "pack_outcome",
    "release_frame",
    "release_outcome",
    "ring_available",
]

_MAGIC = b"SRARING1"
# magic | record row count | check row count
_HEADER = struct.Struct("<8sQQ")


def ring_available() -> bool:
    """Whether this platform can ship outcomes through shared memory."""
    return shared_memory is not None


@dataclass(slots=True)
class RingHandle:
    """Picklable claim ticket for one shard's shared-memory frame."""

    name: str
    nbytes: int
    records: int
    checks: int


@dataclass(slots=True)
class RingStats:
    """Transport counters for the shared-memory shard channel.

    Accumulated on the parent as frames are drained; exported by the CI
    smoke-perf job as an artifact so transport regressions (silent
    pickle fallbacks, ballooning frame sizes) are visible per run.
    """

    segments: int = 0
    bytes: int = 0
    records: int = 0
    checks: int = 0
    fallbacks: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "segments": self.segments,
            "bytes": self.bytes,
            "records": self.records,
            "checks": self.checks,
            "fallbacks": self.fallbacks,
        }


def outcome_columns(result: "ScanResult", checks: list) -> tuple:
    """A shard's rows and checks as the frame's columns: its rows, check
    times as ``array('d')``, check router ids as ``array('q')``."""
    times = array("d", map(itemgetter(0), checks))
    routers = array("q", map(itemgetter(1), checks))
    return result.columns(), times, routers


def outcome_rows(cols: RecordColumns, times: array, routers: array) -> tuple:
    """The inverse of :func:`outcome_columns`: rows and check tuples."""
    return cols, list(zip(times, routers))


def _columns(cols: RecordColumns, times: array, routers: array) -> tuple:
    """The frame's column order — shared by pack and drain."""
    return (*map(cols.__getattribute__, RecordColumns.__slots__), times, routers)


def _disinherit(segment) -> None:
    """Hand unlink ownership to the parent process.

    Without this the worker's resource tracker destroys the segment when
    the pool shuts down, racing the parent's drain.  Unregistering is
    best-effort — a tracker that never saw the segment has nothing to
    forget.
    """
    if resource_tracker is None:  # pragma: no cover - import-gated
        return
    try:
        resource_tracker.unregister(
            getattr(segment, "_name", segment.name), "shared_memory"
        )
    except Exception:  # pragma: no cover - tracker quirks are non-fatal
        pass


def pack_outcome(outcome: "ShardOutcome", name: str | None = None) -> bool:
    """Move an outcome's records and checks into a shared-memory frame.

    Runs in the pool worker, just before the outcome crosses the result
    channel.  On success the records and checks are emptied (the handle
    replaces them) and ``True`` is returned; on any failure the outcome
    is left untouched, ``ring_fallback`` is flagged, and the caller's
    ordinary pickled return does the job.  ``name`` lets the parent pick
    the segment's name (and so :func:`release_frame` a frame whose handle
    never reached it); a name already taken is one more such failure.
    """
    if shared_memory is None:
        outcome.ring_fallback = True
        return False
    rows, times, routers = outcome_columns(outcome.result, outcome.checks)
    columns = _columns(rows, times, routers)
    total = _HEADER.size + sum(
        len(column) * column.itemsize for column in columns
    )
    try:
        segment = shared_memory.SharedMemory(name, create=True, size=total)
    except (OSError, ValueError):
        outcome.ring_fallback = True
        return False
    try:
        buf = segment.buf
        _HEADER.pack_into(buf, 0, _MAGIC, len(rows), len(times))
        offset = _HEADER.size
        for column in columns:
            view = memoryview(column).cast("B")
            end = offset + len(view)
            buf[offset:end] = view
            offset = end
        _disinherit(segment)
    except BaseException:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        outcome.ring_fallback = True
        return False
    name = segment.name
    segment.close()
    outcome.ring = RingHandle(
        name=name, nbytes=total, records=len(rows), checks=len(times)
    )
    outcome.result.records = []
    outcome.checks = []
    return True


def drain_outcome(
    outcome: "ShardOutcome", stats: RingStats | None = None
) -> None:
    """Copy an outcome's rows and checks back out of its ring frame.

    Runs in the parent, before the merge or the checkpoint journal ever
    look at the outcome.  Idempotent: outcomes without a frame
    (in-process shards, pickle fallbacks, already-drained or journal-
    restored outcomes) pass through untouched.  The segment is unlinked
    here — the parent owns the frame's lifetime.
    """
    if stats is not None and getattr(outcome, "ring_fallback", False):
        stats.fallbacks += 1
        outcome.ring_fallback = False
    handle = getattr(outcome, "ring", None)
    if handle is None:
        return
    rows, checks = _read_frame(handle)
    outcome.result.records = rows
    outcome.checks = checks
    outcome.ring = None
    if stats is not None:
        stats.segments += 1
        stats.bytes += handle.nbytes
        stats.records += handle.records
        stats.checks += handle.checks


def _read_frame(handle: RingHandle) -> tuple[RecordColumns, list[tuple[float, int]]]:
    if shared_memory is None:  # pragma: no cover - handle implies support
        raise RuntimeError(
            "received a shared-memory ring handle on a platform without "
            "multiprocessing.shared_memory"
        )
    segment = shared_memory.SharedMemory(name=handle.name)
    try:
        buf = segment.buf
        magic, n_records, n_checks = _HEADER.unpack_from(buf, 0)
        if magic != _MAGIC:
            raise ValueError(
                f"shared-memory segment {handle.name!r} is not a ring frame"
            )
        if (n_records, n_checks) != (handle.records, handle.checks):
            raise ValueError(
                f"ring frame {handle.name!r} header disagrees with its "
                f"handle: frame has ({n_records}, {n_checks}) rows, handle "
                f"claims ({handle.records}, {handle.checks})"
            )
        cols = RecordColumns.empty(n_records)
        times = array("d", bytes(8 * n_checks))
        routers = array("q", bytes(8 * n_checks))
        offset = _HEADER.size
        for column in _columns(cols, times, routers):
            view = memoryview(column).cast("B")
            end = offset + len(view)
            view[:] = buf[offset:end]
            offset = end
        return outcome_rows(cols, times, routers)
    finally:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def release_outcome(outcome: "ShardOutcome") -> None:
    """Unlink an undrained frame whose payload will never be merged.

    Failure/interrupt cleanup: a segment nobody unlinks outlives the
    process in ``/dev/shm``.  Best-effort by design — a frame that never
    finished being created simply is not there to release.
    """
    handle = getattr(outcome, "ring", None)
    outcome.ring = None
    if handle is not None:
        release_frame(handle.name)


def release_frame(name: str) -> None:
    """Unlink the frame called ``name``, if there is one."""
    if shared_memory is None:
        return
    try:
        segment = shared_memory.SharedMemory(name=name)
    except (OSError, ValueError):
        return
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - raced cleanup
        pass
