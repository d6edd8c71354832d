"""Scan result records and aggregation.

A :class:`ScanRecord` is one received reply row — what the paper's pipeline
gets out of ZMapv6 after matching replies back to probes.  A
:class:`ScanResult` aggregates a whole scan: counters, per-source views,
and the echo/error/both classification of router IPs (Fig. 4).  A scan
holds its rows as the :class:`RecordColumns` the scanner packed them
into; the views and the text renderers read them, and ``records`` is a
view built on each read.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, fields
from itertools import compress
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from ..addr.ipv6 import format_address, join_columns, split_into
from ..packet.icmpv6 import ICMPv6Type

if TYPE_CHECKING:  # avoid a hard scanner -> netsim import at module load
    from ..netsim.engine import EngineStats
    from .backends.resilient import ResilienceStats


@dataclass(slots=True)
class ScanRecord:
    """One reply: which probe triggered it and what came back.

    Immutable by convention; not ``frozen=True`` because scans create one
    per matched reply and the frozen ``__init__``'s per-field
    ``object.__setattr__`` detour costs ~3x on construction.
    """

    target: int
    source: int
    icmp_type: int
    code: int
    count: int = 1
    time: float = 0.0

    @property
    def is_echo(self) -> bool:
        return self.icmp_type == ICMPv6Type.ECHO_REPLY

    @property
    def is_error(self) -> bool:
        return self.icmp_type < 128


# The two text formats of a record stream, each rendered a batch at a time
# by one function — shared by ``ScanResult.write_*`` and the streaming sinks
# of :mod:`repro.scanner.stream` — with plain f-strings: compressed
# addresses, ints, ``repr`` of a finite float (what ``json.dumps`` emits)
# and ``:.6f`` never need JSON escaping or CSV quoting.  The text is pure
# ASCII, so its ``len`` is its size in bytes.
CSV_HEADER = "target,source,icmp_type,code,count,time\r\n"


def address_text(rows: "RecordColumns", ints=None) -> tuple[list[str], list[str]]:
    """The target and source columns as RFC 5952 text — most of the cost
    of either format, so whoever writes both renders it once (``ints``:
    the two columns as 128-bit ints, when the caller has them)."""
    targets, sources = ints or (rows.addresses("target"), rows.addresses("source"))
    return list(map(format_address, targets)), list(map(format_address, sources))


def _text_rows(rows: "RecordColumns", text) -> Iterator[tuple]:
    """Per row: target and source text, then the four small fields."""
    small = rows.icmp_type, rows.code, rows.count, rows.time
    return zip(*(text or address_text(rows)), *small)


def records_jsonl(rows: "RecordColumns", text=None) -> str:
    """The rows as canonical JSONL, one line each (``text``: their
    :func:`address_text`, when the caller already has it)."""
    return "".join(
        [
            f'{{"target": "{target}", "source": "{source}", '
            f'"icmp_type": {icmp_type:d}, "code": {code:d}, '
            f'"count": {count:d}, "time": {time!r}}}\n'
            for target, source, icmp_type, code, count, time in _text_rows(rows, text)
        ]
    )


def records_csv(rows: "RecordColumns", text=None) -> str:
    """The rows as :data:`CSV_HEADER` rows (excel dialect: nothing
    quoted, ``\\r\\n`` line ends), header not included."""
    return "".join(
        [
            f"{target},{source},{icmp_type:d},{code:d},{count:d},{time:.6f}\r\n"
            for target, source, icmp_type, code, count, time in _text_rows(rows, text)
        ]
    )


@dataclass(slots=True)
class RecordColumns:
    """Reply rows as packed parallel columns: the one row form of a scan.

    Addresses are int-pair (hi, lo) ``array('Q')`` columns; the small
    fields are machine-width arrays.  Rows stay in this form from the
    kernel to the reader — packed by the scanner, shipped as flat buffers
    in shard frames (:mod:`repro.scanner.shmring`) and pool results, read
    by the views of :class:`ScanResult` and rendered by the sinks.  Only
    iterating builds :class:`ScanRecord`\\ s.

    ``from_records`` / ``to_records`` round-trip exactly — field for
    field, including ``count`` and the full float ``time``.
    """

    target_hi: array
    target_lo: array
    source_hi: array
    source_lo: array
    icmp_type: array  # 'B'
    code: array  # 'B'
    count: array  # 'Q'
    time: array  # 'd'

    def __len__(self) -> int:
        return len(self.icmp_type)

    @classmethod
    def empty(cls, n: int = 0) -> "RecordColumns":
        return cls(
            target_hi=array("Q", bytes(8 * n)),
            target_lo=array("Q", bytes(8 * n)),
            source_hi=array("Q", bytes(8 * n)),
            source_lo=array("Q", bytes(8 * n)),
            icmp_type=array("B", bytes(n)),
            code=array("B", bytes(n)),
            count=array("Q", bytes(8 * n)),
            time=array("d", bytes(8 * n)),
        )

    @classmethod
    def from_records(cls, records: "Iterable[ScanRecord]") -> "RecordColumns":
        rows = list(records)
        cols = cls.empty()
        for name in ("target", "source"):
            values = list(map(attrgetter(name), rows))
            split_into(values, getattr(cols, f"{name}_hi"), getattr(cols, f"{name}_lo"))
        for name in ("icmp_type", "code", "count", "time"):
            getattr(cols, name).extend(map(attrgetter(name), rows))
        return cols

    def __getitem__(self, rows: slice) -> "RecordColumns":
        """The rows of the slice ``rows``, as new columns."""
        return RecordColumns(*(getattr(self, name)[rows] for name in self.__slots__))

    def extend(self, rows: "RecordColumns") -> None:
        """Append ``rows`` after these."""
        for name in self.__slots__:
            getattr(self, name).extend(getattr(rows, name))

    def select(self, keep: bytes) -> "RecordColumns":
        """The rows ``keep`` marks, as new columns."""
        columns = map(self.__getattribute__, self.__slots__)
        return RecordColumns(*(array(c.typecode, compress(c, keep)) for c in columns))

    def pack_rows(self, rows: Iterable[int], targets, times, probe) -> None:
        """Append rows ``rows`` of a probe batch without building a
        :class:`ScanRecord`: target and time from the batch, the reply
        from the kernel's result columns (a ``ProbeColumns``).  A row with
        extra replies (only ``raw`` has them) packs its column reply
        first, then its extras in arrival order."""
        rows = list(rows)
        if probe.extra:
            # Sorted stably on the row: a row's column reply before its extras.
            replies = [
                (row, probe.source(row), probe.icmp_type[row], probe.code[row], probe.count[row])
                for row in rows
            ]
            rows, sources, *values = zip(*sorted(replies + probe.extra, key=itemgetter(0)))
            split_into(sources, self.source_hi, self.source_lo)
            for name, column in zip(("icmp_type", "code", "count"), values):
                getattr(self, name).extend(column)
        else:
            for name in ("source_hi", "source_lo", "icmp_type", "code", "count"):
                getattr(self, name).extend(map(getattr(probe, name).__getitem__, rows))
        split_into(
            list(map(targets.__getitem__, rows)), self.target_hi, self.target_lo
        )
        self.time.extend(map(times.__getitem__, rows))

    def __iter__(self) -> Iterator[ScanRecord]:
        """The rows as records, built as they are read."""
        addresses = self.addresses("target"), self.addresses("source")
        return map(ScanRecord, *addresses, self.icmp_type, self.code, self.count, self.time)

    def to_records(self) -> list[ScanRecord]:
        """The rows as records."""
        return list(self)

    def addresses(self, name: str) -> Iterable[int]:
        """The ``target`` or ``source`` column as 128-bit ints."""
        return join_columns(getattr(self, f"{name}_hi"), getattr(self, f"{name}_lo"))


_ECHO_REPLY = int(ICMPv6Type.ECHO_REPLY)


@dataclass(slots=True, init=False)
class ScanResult:
    """All reply rows of one scan plus send-side counters.

    A scan holds its rows in one form, the :class:`RecordColumns` in
    ``rows``; the views below read them column by column and build no
    :class:`ScanRecord`.  ``records`` is a read view for users and tests,
    built from the rows on each read; a list given as ``records=`` or
    assigned to ``records`` is packed into ``rows`` once.

    A scan run with a streaming :class:`~repro.scanner.stream.RecordSink`
    does not buffer its rows here; ``records_streamed`` counts the rows
    handed to the sink so the aggregate counters stay truthful.
    Row-derived views (:meth:`sources`, :meth:`classify_sources`, ...)
    are only meaningful for buffered scans — streaming consumers get the
    same aggregates from a :class:`~repro.scanner.stream.CountingSink`.
    """

    name: str
    epoch: int = 0
    sent: int = 0
    lost: int = 0
    rows: RecordColumns = field(default_factory=RecordColumns.empty)
    loops_observed: int = 0
    duration: float = 0.0
    # Snapshot of the driving engine's counters (suppressed errors, loop
    # hits, ...) so observability survives merging and parallel execution.
    engine_stats: "EngineStats | None" = None
    # Rows emitted to an external RecordSink instead of `rows`.
    records_streamed: int = 0
    # Inbound replies the backend could not match to an outstanding probe
    # (failed payload auth, unknown probe id).  Always 0 on the pure
    # simulator; the wire backends make this loss visible.
    unmatched_replies: int = 0
    # What the resilience layer (ResilientBackend) did during the scan:
    # retries, watchdog timeouts, quarantined batches and breaker
    # transitions.  None when the scan ran without a RetryPolicy.
    resilience: "ResilienceStats | None" = None

    def __init__(
        self,
        name: str,
        epoch: int = 0,
        sent: int = 0,
        lost: int = 0,
        records: "Iterable[ScanRecord] | RecordColumns | None" = None,
        loops_observed: int = 0,
        duration: float = 0.0,
        engine_stats: "EngineStats | None" = None,
        records_streamed: int = 0,
        unmatched_replies: int = 0,
        resilience: "ResilienceStats | None" = None,
        rows: RecordColumns | None = None,
    ) -> None:
        self.name, self.epoch, self.sent, self.lost = name, epoch, sent, lost
        self.loops_observed, self.duration = loops_observed, duration
        self.engine_stats, self.records_streamed = engine_stats, records_streamed
        self.unmatched_replies, self.resilience = unmatched_replies, resilience
        if records is not None:  # wins: ``replace(result, records=...)`` passes both
            self.records = records
        else:
            self.rows = RecordColumns.empty() if rows is None else rows

    @property
    def records(self) -> list[ScanRecord]:
        """The rows as records, built on each read."""
        return self.rows.to_records()

    @records.setter
    def records(self, rows: "Iterable[ScanRecord] | RecordColumns") -> None:
        self.rows = rows if type(rows) is RecordColumns else RecordColumns.from_records(rows)

    def column(self, name: str) -> Iterable:
        """One record field of every row."""
        if name in ("target", "source"):
            return self.rows.addresses(name)
        return getattr(self.rows, name)

    def _echo_rows(self) -> Iterable[bool]:
        """Per row, whether it is an Echo Reply."""
        return map(_ECHO_REPLY.__eq__, self.column("icmp_type"))

    def _echo_pairs(self) -> Iterable[tuple[int, int]]:
        """``(target, source)`` of every Echo Reply row."""
        pairs = zip(self.column("target"), self.column("source"))
        return compress(pairs, self._echo_rows())

    # ---------------- aggregate counters ---------------- #

    @property
    def faulted_probes(self) -> int:
        """Probes the resilience layer quarantined: counted in ``sent``
        and present as quiet no-reply rows, but their silence is a
        transport fault, not a measurement — this count is what makes the
        partial result honest."""
        return 0 if self.resilience is None else self.resilience.faulted_probes

    @property
    def received(self) -> int:
        """Matched replies (one per probe/source pair).

        Amplified duplicates are *not* counted here: scan tools dedup
        matched replies, and the paper notes that loop-amplified floods
        are "only visible in raw packet captures" (§7) — that raw volume
        is :attr:`flood_packets`.
        """
        return len(self.rows) + self.records_streamed

    @property
    def flood_packets(self) -> int:
        """Unsolicited duplicate packets from loop amplification."""
        return sum(self.column("count")) - len(self.rows)

    @property
    def responsive_targets(self) -> int:
        """Distinct probed targets that yielded at least one reply."""
        return len(set(self.column("target")))

    @property
    def reply_rate(self) -> float:
        """Fraction of probed targets that got any reply."""
        return self.responsive_targets / self.sent if self.sent else 0.0

    # ---------------- source views ---------------- #

    def sources(self) -> set[int]:
        """All distinct reply source addresses."""
        return set(self.column("source"))

    def echo_sources(self) -> set[int]:
        return set(compress(self.column("source"), self._echo_rows()))

    def error_sources(self) -> set[int]:
        errors = map((128).__gt__, self.column("icmp_type"))
        return set(compress(self.column("source"), errors))

    def direct_echo_sources(self) -> set[int]:
        """Sources that echoed from the very address probed: routers
        answering a direct probe (Fig. 6a)."""
        return {source for target, source in self._echo_pairs() if source == target}

    def classify_sources(self) -> dict[str, set[int]]:
        """Partition sources into echo-only / error-only / both (Fig. 4)."""
        echo = self.echo_sources()
        error = self.error_sources()
        return {
            "echo": echo - error,
            "error": error - echo,
            "both": echo & error,
        }

    def target_to_source(self) -> dict[int, int]:
        """Map each target to its (first) echo-reply source — the SRA→router
        binding used by the stability analysis (Fig. 6b)."""
        mapping: dict[int, int] = {}
        for target, source in self._echo_pairs():
            if target not in mapping:
                mapping[target] = source
        return mapping

    # ---------------- persistence ---------------- #

    def write_csv(self, path: str | Path) -> None:
        # Staged at ``<path>.partial`` and promoted on a clean close: a
        # crash mid-write never leaves a torn CSV at the final path.
        from .stream import CsvSink  # stream imports this module

        with CsvSink(path) as sink:
            sink.drain(self.rows)

    def write_jsonl(self, path: str | Path) -> None:
        from .stream import JsonlSink

        with JsonlSink(path) as sink:
            sink.drain(self.rows)


def merge_results(name: str, results: Iterable[ScanResult]) -> ScanResult:
    """Concatenate several scans (e.g. shards) into one result, whose rows
    are the inputs' columns one after another.

    Shards of one scan run *concurrently* over the same virtual clock, so
    the merged wall-clock duration is the maximum, not the sum.  Resilience
    deltas add up in input order (counts summed, faults and breaker
    transitions one input's after another's).  The epoch
    is carried over from the inputs (they are expected to agree; the first
    result wins when they do not).
    """
    rows = RecordColumns.empty()
    merged = ScanResult(name=name, rows=rows)
    stats_seen: list[EngineStats] = []
    first = True
    for result in results:
        if first:
            merged.epoch = result.epoch
            first = False
        merged.sent += result.sent
        merged.lost += result.lost
        merged.loops_observed += result.loops_observed
        merged.records_streamed += result.records_streamed
        merged.unmatched_replies += result.unmatched_replies
        if result.resilience is not None:
            merged.resilience = (
                result.resilience
                if merged.resilience is None
                else merged.resilience + result.resilience
            )
        merged.duration = max(merged.duration, result.duration)
        rows.extend(result.rows)
        if result.engine_stats is not None:
            stats_seen.append(result.engine_stats)
    if stats_seen:
        merged.engine_stats = merge_engine_stats(stats_seen)
    return merged


def merge_engine_stats(stats_list: "Iterable[EngineStats]") -> "EngineStats":
    """Sum per-shard engine counters field by field.

    An empty input yields all-zero stats (the merge of zero shards), and
    the inputs themselves are never mutated.
    """
    iterator = iter(stats_list)
    first = next(iterator, None)
    if first is None:
        from ..netsim.engine import EngineStats as _EngineStats

        return _EngineStats()
    total = type(first)()
    for stats in (first, *iterator):
        for spec in fields(stats):
            setattr(total, spec.name, getattr(total, spec.name) + getattr(stats, spec.name))
    return total
