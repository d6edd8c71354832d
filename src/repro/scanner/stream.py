"""Streaming targets and record sinks: the constant-memory scan pipeline.

The paper's operational pipeline is a Go address generator *streaming*
targets into a stateless ZMapv6 — neither side ever holds the 28.2 B
target list in memory.  This module gives the reproduction the same
shape:

* :class:`TargetStream` — a named, length-known, index-seekable,
  provenance-carrying sequence of probe targets.  Implementations range
  from a materialised list (:class:`~repro.scanner.targets.TargetList`)
  through lazily-realised generator output (:class:`LazyStream`) to
  fully *computable* streams (:class:`SubnetPartitionStream`) whose
  ``stream[i]`` is pure arithmetic and whose memory footprint is O(1) in
  target count.  Streams are data: a process pool is sent the stream
  itself — a computable stream is O(1) as an object too, and a realised
  :class:`LazyStream` pickles as the targets it holds — so no worker
  ever re-runs a generator.
* :class:`RecordSink` — where matched reply rows go, as
  :class:`~repro.scanner.records.RecordColumns`.  ``drain`` is the write
  path: a scan streaming in place drains each batch's rows, a sharded one
  drains the merged rows once.  The in-memory sink holds columns as a
  buffered :class:`~repro.scanner.records.ScanResult` does; the JSONL/CSV
  sinks render and write a bounded chunk of rows at a time (and are what
  ``ScanResult.write_jsonl``/``write_csv`` drain through); the counting
  sink keeps aggregates only.
* :func:`shard_positions` — the single source of truth for the
  zmap-style permuted visit order and its shard windows, shared by the
  serial scanner and the sharded runner.

Determinism contract: a stream yields exactly the same target sequence
as the materialised list it replaces, and sinks receive rows in probe
order, so streamed scans are byte-identical to the list path.
"""

from __future__ import annotations

import os
from abc import abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import compress, islice
from operator import not_
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from ..addr.ipv6 import ADDRESS_BITS, IPv6Prefix
from ..addr.permutation import CyclicPermutation
from ..atomicio import partial_path, replace_partial
from .records import CSV_HEADER, RecordColumns, address_text, records_csv, records_jsonl

__all__ = [
    "CountingSink",
    "CsvSink",
    "IndexWindow",
    "JsonlSink",
    "LazyStream",
    "MemorySink",
    "RecordSink",
    "SubnetPartitionStream",
    "TargetStream",
    "gather_targets",
    "scannable",
    "shard_positions",
    "shard_window",
    "stream_buffered",
]


# --------------------------------------------------------------------- #
# permuted visit order and shard windows
# --------------------------------------------------------------------- #


class IndexWindow(NamedTuple):
    """One shard's slice of the permuted visit order.

    Shard ``shard`` of ``shards`` takes every ``shards``-th slot of the
    global probe order starting at slot ``shard`` — zmap's sharding rule.
    Windows are pairwise disjoint and their position-ordered union is
    exactly the serial order (pinned by a hypothesis property test).
    """

    shard: int = 0
    shards: int = 1


def shard_window(
    size: int,
    *,
    seed: int,
    epoch: int = 0,
    window: IndexWindow = IndexWindow(),
    permute: bool = True,
) -> tuple[range, Iterator[int]]:
    """One shard window of the visit order as two parallel columns,
    ``(global positions, target indexes)`` — no pair per probe.

    The global position is the probe's slot in the full (serial) visit
    order; pacing on it gives every shard of a multi-shard scan the same
    virtual clock as the serial scan.  O(1) in memory: positions are
    arithmetic and the indexes walk a cyclic group, never a list.
    """
    shard, shards = window
    if not 0 <= shard < shards:
        raise ValueError("window shard must be in [0, shards)")
    positions = range(shard, size, shards)
    if not permute or size == 0:
        return positions, iter(positions)
    permutation = CyclicPermutation(size, seed=seed ^ epoch)
    return positions, islice(permutation, shard, None, shards)


def shard_positions(
    size: int,
    *,
    seed: int,
    epoch: int = 0,
    window: IndexWindow = IndexWindow(),
    permute: bool = True,
) -> Iterator[tuple[int, int]]:
    """``(global_position, target_index)`` pairs of :func:`shard_window`."""
    return zip(
        *shard_window(size, seed=seed, epoch=epoch, window=window, permute=permute)
    )


# --------------------------------------------------------------------- #
# target streams
# --------------------------------------------------------------------- #


class TargetStream(Sequence):
    """A named, ordered sequence of probe targets (ints).

    Subclasses provide ``__len__`` and ``__getitem__``; the ``Sequence``
    mixins supply iteration and membership.  Being a ``Sequence`` means
    every existing scan entry point accepts a stream wherever it accepts
    a target list — the refactor's compatibility contract.

    ``buffered`` reports how many target values the stream currently
    holds in memory (the telemetry ``targets_buffered`` gauge); fully
    computable streams report 0.

    Slice contract (uniform across every implementation, pinned by the
    strategy contract suite): ``stream[i:j:k]`` returns a plain
    ``list[int]`` equal to ``list(stream)[i:j:k]``, and negative integer
    indices count from the end.  Implementations route slices through
    :meth:`_slice` unless the backing container already obeys this.
    """

    name: str = "targets"
    subnet_length: int | None = None

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def __getitem__(self, index):  # pragma: no cover - signature only
        ...

    def _slice(self, index: slice) -> list[int]:
        """Uniform slice semantics: a plain list of the selected targets."""
        return [self[i] for i in range(*index.indices(len(self)))]

    def gather(self, indexes: Iterable[int]) -> list[int]:
        """The targets at ``indexes``, in that order — how a scan reads a
        chunk.  Buffered streams override this to index their buffer
        directly instead of coming back through ``self[i]`` per target."""
        return [self[i] for i in indexes]

    @property
    def buffered(self) -> int:
        """Target values currently resident in memory."""
        return len(self)

    def spec(self) -> None:
        """Always None: a stream is its data, never a recipe.  Kept
        because the end-to-end benchmark's tracer (``trace.py``) calls it
        and replays a shard from ``list(targets)`` when it returns None."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, n={len(self)})"


class LazyStream(TargetStream):
    """Generator-backed stream: realises its targets on first access.

    Wraps the five input-set generators without changing their output:
    ``factory()`` is called once, on first length/index access, and the
    values are buffered so repeated scans see the same targets.

    ``after`` chains streams whose factories share one RNG (the survey's
    /48, /64 and route6 sets draw from a single ``random.Random``):
    realising a stream first ensures every predecessor has consumed its
    draws, so the realisation *order* — and therefore every sampled
    target — is identical to the eager build, no matter which stream is
    touched first.

    ``release()`` drops the buffer once a scan is done with it; the
    survey uses this to scan the five Table 2 sets without ever
    co-residing them.  A released stream cannot be re-realised (its RNG
    draws are spent), so further access raises :class:`RuntimeError`.
    """

    __slots__ = (
        "name",
        "subnet_length",
        "_factory",
        "_targets",
        "_consumed",
        "_released",
        "_after",
    )

    def __init__(
        self,
        factory: Callable[[], Iterable[int]],
        *,
        name: str = "targets",
        subnet_length: int | None = None,
        after: "LazyStream | None" = None,
    ) -> None:
        self.name = name
        self.subnet_length = subnet_length
        self._factory = factory
        self._targets: list[int] | None = None
        self._consumed = False
        self._released = False
        self._after = after

    # -- realisation machinery -- #

    def _ensure_consumed(self) -> None:
        """Run the factory (consuming its RNG draws) if it never ran."""
        if not self._consumed:
            self._realise()

    def _realise(self) -> list[int]:
        if self._released:
            raise RuntimeError(
                f"stream {self.name!r} was released; its targets are gone"
            )
        if self._targets is None:
            if self._after is not None:
                self._after._ensure_consumed()
            self._targets = list(self._factory())
            self._consumed = True
        return self._targets

    @property
    def realised(self) -> bool:
        return self._targets is not None

    def release(self) -> None:
        """Drop the realised buffer (constant-memory campaigns call this
        after scanning).  Safe to call on an unrealised stream."""
        self._targets = None
        self._released = True

    # -- sequence protocol -- #

    def __len__(self) -> int:
        return len(self._realise())

    def __getitem__(self, index):
        # The realised buffer is a plain list, so integer indices, negative
        # indices and slices all follow the uniform TargetStream contract.
        return self._realise()[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self._realise())

    def gather(self, indexes: Iterable[int]) -> list[int]:
        return list(map(self._realise().__getitem__, indexes))

    @property
    def buffered(self) -> int:
        return len(self._targets) if self._targets is not None else 0

    def __reduce__(self):
        # The factory (a closure, often over a shared RNG) cannot cross a
        # process boundary; the targets it produced can.
        from .targets import TargetList  # targets imports this module

        return TargetList, (self.name, self._realise(), self.subnet_length)


class SubnetPartitionStream(TargetStream):
    """The SRA addresses of a prefix's ``/length`` partition, computed.

    ``stream[i]`` is pure arithmetic — O(1) memory at any target count,
    which is what lets a 10⁶-target scan run with flat RSS.  This is the
    streaming twin of :meth:`repro.addr.ipv6.IPv6Prefix.subnets`.
    """

    __slots__ = ("name", "subnet_length", "prefix", "_step", "_count")

    def __init__(
        self,
        prefix: IPv6Prefix,
        subnet_length: int,
        *,
        name: str | None = None,
    ) -> None:
        if subnet_length < prefix.length or subnet_length > ADDRESS_BITS:
            raise ValueError(
                f"cannot partition /{prefix.length} into /{subnet_length}"
            )
        self.prefix = prefix
        self.subnet_length = subnet_length
        self.name = name or f"{prefix}@{subnet_length}"
        self._step = 1 << (ADDRESS_BITS - subnet_length)
        self._count = 1 << (subnet_length - prefix.length)

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._slice(index)
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(index)
        return self.prefix.network + index * self._step

    def __iter__(self) -> Iterator[int]:
        return iter(
            range(
                self.prefix.network,
                self.prefix.network + self._count * self._step,
                self._step,
            )
        )

    @property
    def buffered(self) -> int:
        return 0


def scannable(targets):
    """``targets`` itself when it can be scanned in place, else a list.

    Duck-typed: anything indexable with a length — a list, a
    :class:`~repro.scanner.targets.TargetList`, a ``range``, a lazy
    :class:`TargetStream` — scans in place (materialising it would copy
    the targets, and defeat O(1)-memory streams); other iterables are
    materialised.
    """
    if hasattr(targets, "__getitem__") and hasattr(targets, "__len__"):
        return targets
    return list(targets)


def gather_targets(targets, indexes: Iterable[int]) -> list[int]:
    """``[targets[i] for i in indexes]``, for whatever :func:`scannable`
    returned."""
    if isinstance(targets, TargetStream):
        return targets.gather(indexes)
    return list(map(targets.__getitem__, indexes))


def stream_buffered(targets) -> int:
    """How many target values ``targets`` holds in memory right now."""
    if isinstance(targets, TargetStream):
        return targets.buffered
    try:
        return len(targets)
    except TypeError:
        return 0


# --------------------------------------------------------------------- #
# record sinks
# --------------------------------------------------------------------- #


# Rows per chunk of a drain: bounds the text a sink renders at once
# (~150 bytes per row and format) however long the input.
_DRAIN_CHUNK = 1024


class RecordSink:
    """Where matched reply rows go, in probe order, as :class:`RecordColumns`.

    :meth:`drain` is the write path: it hands its rows, in slices of at
    most ``_DRAIN_CHUNK``, to :meth:`_write_chunk`, which every sink
    implements.  No sink overrides ``drain``: it is where a whole row
    stream passes, and where the end-to-end benchmark's tracer times sink
    output.  ``close`` flushes and releases any underlying file handle.
    Sinks count the rows they take so callers can report totals without
    buffering them.  Sinks are context managers:
    ``with JsonlSink(path) as sink: scanner.scan(..., sink=sink)``.

    Crash safety: file-backed sinks stage their output at
    ``<dest>.partial`` and promote it to the final name only on a clean
    ``close()`` — the final path never holds a torn file.  ``abort()``
    (called by ``__exit__`` when the scan raised) releases the handle but
    leaves the clearly-labelled partial file behind for post-mortems.
    """

    emitted: int = 0

    def drain(self, rows: RecordColumns) -> None:
        """Write ``rows`` in order, ``_DRAIN_CHUNK`` at a time."""
        size = len(rows)
        for start in range(0, size, _DRAIN_CHUNK):
            chunk = rows if size <= _DRAIN_CHUNK else rows[start : start + _DRAIN_CHUNK]
            self._write_chunk(chunk)

    def _write_chunk(self, rows: RecordColumns) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush, release resources, and promote staged output."""

    def abort(self) -> None:
        """Release resources *without* promoting staged output."""
        self.close()

    def byte_offset(self) -> int | None:
        """Bytes flushed so far, for file-backed sinks (else ``None``)."""
        return None

    def __enter__(self) -> "RecordSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


class MemorySink(RecordSink):
    """Buffer the rows, as the columns a buffered ``ScanResult`` holds."""

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows = RecordColumns.empty()

    @property
    def emitted(self) -> int:
        return len(self.rows)

    def _write_chunk(self, rows: RecordColumns) -> None:
        self.rows.extend(rows)


class _TextSink(RecordSink):
    """A row stream as text, a chunk per write, to a path — staged at
    ``<dest>.partial``, fsynced and promoted atomically on clean close —
    or to an open text handle the caller keeps.  A subclass names its
    format's batch renderer in :mod:`repro.scanner.records`; the
    ``ScanResult.write_*`` writers drain through these sinks.
    """

    __slots__ = ("emitted", "_handle", "_owns", "_dest", "_bytes")
    _header = ""

    def __init__(self, destination) -> None:
        self.emitted = 0
        if isinstance(destination, (str, Path)):
            self._dest = Path(destination)
            # newline="": the renderers write their own line ends.
            self._handle = open(
                partial_path(self._dest), "w", encoding="utf-8", newline=""
            )
            self._owns = True
        else:
            self._dest = None
            self._handle = destination
            self._owns = False
        self._handle.write(self._header)
        # Text-mode tell() returns opaque cookies; count bytes ourselves so
        # checkpoints can journal a real file offset (pure ASCII: one
        # character written is one byte).
        self._bytes = len(self._header)

    def _write_chunk(self, rows: RecordColumns, text=None) -> None:
        """``text``: the rows' ``address_text``, when a tee has it."""
        rendered = self._render(rows, text)
        self._handle.write(rendered)
        self._bytes += len(rendered)
        self.emitted += len(rows)

    def byte_offset(self) -> int:
        return self._bytes

    def close(self) -> None:
        if self._owns and not self._handle.closed:
            # The data reaches the disk before the rename makes it final.
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            replace_partial(self._dest)

    def abort(self) -> None:
        if self._owns and not self._handle.closed:
            self._handle.close()


class JsonlSink(_TextSink):
    """Stream rows to a JSONL file as they are matched.

    ``ScanResult.write_jsonl`` drains the buffered rows through this
    sink, so the streaming mode changes memory use, never output (pinned
    by the determinism tests).
    """

    __slots__ = ()
    _render = staticmethod(records_jsonl)


class CsvSink(_TextSink):
    """Stream rows to CSV, as ``ScanResult.write_csv`` does."""

    __slots__ = ()
    _render = staticmethod(records_csv)
    _header = CSV_HEADER


class CountingSink(RecordSink):
    """Keep scan aggregates without storing a single row.

    Tracks the counters Table 2 needs — rows, echo/error split, flood
    packets, distinct responsive targets and reply sources — in O(sources)
    memory (sets of distinct addresses, never rows).
    """

    __slots__ = (
        "emitted",
        "echo",
        "errors",
        "flood_packets",
        "responsive_targets",
        "sources",
        "echo_sources",
        "error_sources",
    )

    def __init__(self) -> None:
        self.emitted = 0
        self.echo = 0
        self.errors = 0
        self.flood_packets = 0
        self.responsive_targets: set[int] = set()
        self.sources: set[int] = set()
        self.echo_sources: set[int] = set()
        self.error_sources: set[int] = set()

    def _write_chunk(self, rows: RecordColumns) -> None:
        self.emitted += len(rows)
        self.flood_packets += sum(rows.count) - len(rows)
        self.responsive_targets.update(rows.addresses("target"))
        sources = list(rows.addresses("source"))
        self.sources.update(sources)
        errors = bytes(map((128).__gt__, rows.icmp_type))
        self.errors += errors.count(1)
        self.echo += len(rows) - errors.count(1)
        self.error_sources.update(compress(sources, errors))
        self.echo_sources.update(compress(sources, map(not_, errors)))

    def classify_sources(self) -> dict[str, set[int]]:
        """Echo-only / error-only / both partition (Fig. 4), like
        :meth:`ScanResult.classify_sources`."""
        return {
            "echo": self.echo_sources - self.error_sources,
            "error": self.error_sources - self.echo_sources,
            "both": self.echo_sources & self.error_sources,
        }


@dataclass(slots=True)
class TeeSink(RecordSink):
    """Fan one row stream out to several sinks."""

    sinks: tuple[RecordSink, ...] = field(default_factory=tuple)
    emitted: int = 0

    def _write_chunk(self, rows: RecordColumns) -> None:
        # Address text is most of a text sink's work and the same for
        # every format: render it once per chunk for all of them.
        text = None
        for sink in self.sinks:
            if isinstance(sink, _TextSink):
                if text is None:
                    text = address_text(rows)
                sink._write_chunk(rows, text)
            else:
                sink.drain(rows)
        self.emitted += len(rows)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    def abort(self) -> None:
        for sink in self.sinks:
            sink.abort()

    def byte_offset(self) -> int | None:
        offsets = [sink.byte_offset() for sink in self.sinks]
        known = [offset for offset in offsets if offset is not None]
        return sum(known) if known else None


__all__.append("TeeSink")
