"""Scan result records and aggregation.

A :class:`ScanRecord` is one received reply row — what the paper's pipeline
gets out of ZMapv6 after matching replies back to probes.  A
:class:`ScanResult` aggregates a whole scan: counters, per-source views,
and the echo/error/both classification of router IPs (Fig. 4).  A scan
holds its rows as the :class:`RecordColumns` the scanner packed them
into; the views read them, and ``records`` is built on first read.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, fields
from itertools import compress
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from ..addr.ipv6 import format_address, join_columns, split_into
from ..atomicio import atomic_write_text
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


def address_text(records: "Sequence[ScanRecord]") -> list[tuple[str, str]]:
    """``(target, source)`` of each record as RFC 5952 text — most of the
    cost of either format, so whoever writes both renders it once."""
    return [
        (format_address(record.target), format_address(record.source))
        for record in records
    ]


def records_jsonl(records: "Sequence[ScanRecord]", text=None) -> str:
    """The records as canonical JSONL, one line each (``text``: their
    :func:`address_text`, when the caller already has it)."""
    return "".join(
        [
            f'{{"target": "{target}", "source": "{source}", '
            f'"icmp_type": {record.icmp_type:d}, "code": {record.code:d}, '
            f'"count": {record.count:d}, "time": {record.time!r}}}\n'
            for record, (target, source) in zip(
                records, text or address_text(records)
            )
        ]
    )


def records_csv(records: "Sequence[ScanRecord]", text=None) -> str:
    """The records as :data:`CSV_HEADER` rows (excel dialect: nothing
    quoted, ``\\r\\n`` line ends), header not included."""
    return "".join(
        [
            f"{target},{source},{record.icmp_type:d},{record.code:d},"
            f"{record.count:d},{record.time:.6f}\r\n"
            for record, (target, source) in zip(
                records, text or address_text(records)
            )
        ]
    )


@dataclass(slots=True)
class RecordColumns:
    """A list of :class:`ScanRecord` rows as packed parallel columns.

    Addresses are int-pair (hi, lo) ``array('Q')`` columns; the small
    fields are machine-width arrays.  A buffered scan keeps its rows in
    this form — packed by the scanner, shipped as flat buffers in shard
    frames (:mod:`repro.scanner.shmring`) and pool results — until
    something reads its ``records``.  Iterating builds the records.

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


@dataclass(slots=True)
class ScanResult:
    """All records of one scan plus send-side counters.

    A scan holds its rows as :class:`RecordColumns` (``records`` may be
    given or assigned either form): the list — exactly
    ``columns.to_records()`` — is built on the first read of ``records``
    and kept in their place.  The views below read the rows in whichever
    form they are held, through :meth:`column`, so a result only they are
    asked of never builds a :class:`ScanRecord`.

    A scan run with a streaming :class:`~repro.scanner.stream.RecordSink`
    does not buffer its records here; ``records_streamed`` counts the
    rows handed to the sink so the aggregate counters stay truthful.
    Record-derived views (:meth:`sources`, :meth:`classify_sources`, ...)
    are only meaningful for buffered scans — streaming consumers get the
    same aggregates from a :class:`~repro.scanner.stream.CountingSink`.
    """

    name: str
    epoch: int = 0
    sent: int = 0
    lost: int = 0
    records: list[ScanRecord] = field(default_factory=list)
    loops_observed: int = 0
    duration: float = 0.0
    # Snapshot of the driving engine's counters (suppressed errors, loop
    # hits, ...) so observability survives merging and parallel execution.
    engine_stats: "EngineStats | None" = None
    # Records emitted to an external RecordSink instead of `records`.
    records_streamed: int = 0
    # Inbound replies the backend could not match to an outstanding probe
    # (failed payload auth, unknown probe id).  Always 0 on the pure
    # simulator; the wire backends make this loss visible.
    unmatched_replies: int = 0
    # What the resilience layer (ResilientBackend) did during the scan:
    # retries, watchdog timeouts, quarantined batches and breaker
    # transitions.  None when the scan ran without a RetryPolicy.
    resilience: "ResilienceStats | None" = None

    def _held(self) -> "list[ScanRecord] | RecordColumns":
        """The rows as held, read without building records."""
        return _records_slot.__get__(self)

    def column(self, name: str) -> Iterable:
        """One record field of every row, read from the rows as held."""
        rows = self._held()
        if type(rows) is not RecordColumns:
            return map(attrgetter(name), rows)
        if name in ("target", "source"):
            return rows.addresses(name)
        return getattr(rows, name)

    def columns(self) -> RecordColumns:
        """The rows as columns: those held, or packed from held records."""
        rows = self._held()
        return rows if type(rows) is RecordColumns else RecordColumns.from_records(rows)

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
        return len(self._held()) + self.records_streamed

    @property
    def flood_packets(self) -> int:
        """Unsolicited duplicate packets from loop amplification."""
        return sum(self.column("count")) - len(self._held())

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
        # Built in memory and written atomically (temp + rename + fsync):
        # a crash mid-write must never leave a torn CSV at the final path.
        atomic_write_text(Path(path), CSV_HEADER + records_csv(self.records))

    def write_jsonl(self, path: str | Path) -> None:
        atomic_write_text(Path(path), records_jsonl(self.records))


# The slot ``ScanResult.records`` is stored in: a list, or the columns the
# descriptor below turns into one on first read.
_records_slot = ScanResult.records


class _Records:
    """``ScanResult.records``: the list, built once from held columns."""

    def __get__(self, result, owner=None):
        if result is None:
            return self
        rows = _records_slot.__get__(result)
        if type(rows) is RecordColumns:
            rows = rows.to_records()
            _records_slot.__set__(result, rows)
        return rows

    def __set__(self, result, rows) -> None:
        _records_slot.__set__(result, rows)


ScanResult.records = _Records()


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
    merged = ScanResult(name=name, records=rows)
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
        columns = result.columns()
        for name in rows.__slots__:
            getattr(rows, name).extend(getattr(columns, name))
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
