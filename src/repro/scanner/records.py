"""Scan result records and aggregation.

A :class:`ScanRecord` is one received reply row — what the paper's pipeline
gets out of ZMapv6 after matching replies back to probes.  A
:class:`ScanResult` aggregates a whole scan: counters, per-source views,
and the echo/error/both classification of router IPs (Fig. 4).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from ..addr.ipv6 import format_address, join_columns, split_into
from ..atomicio import atomic_write_text
from ..packet.icmpv6 import ICMPv6Type

if TYPE_CHECKING:  # avoid a hard scanner -> netsim import at module load
    from ..netsim.engine import EngineStats


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

    @property
    def is_time_exceeded(self) -> bool:
        return self.icmp_type == ICMPv6Type.TIME_EXCEEDED


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
    fields are machine-width arrays.  This is the wire layout of shard
    frames (:mod:`repro.scanner.shmring`) and of whole scans a campaign
    pool ships home: flat buffers, so a worker hands its records over
    without pickling a single Python object per row.

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
        rows = records if isinstance(records, list) else list(records)
        cols = cls.empty(len(rows))
        target_hi = cols.target_hi
        target_lo = cols.target_lo
        source_hi = cols.source_hi
        source_lo = cols.source_lo
        icmp_type = cols.icmp_type
        code = cols.code
        count = cols.count
        time = cols.time
        mask = (1 << 64) - 1
        for i, record in enumerate(rows):
            target_hi[i] = record.target >> 64
            target_lo[i] = record.target & mask
            source_hi[i] = record.source >> 64
            source_lo[i] = record.source & mask
            icmp_type[i] = record.icmp_type
            code[i] = record.code
            count[i] = record.count
            time[i] = record.time
        return cols

    def pack_rows(self, rows: Iterable[int], targets, times, probe) -> None:
        """Append rows ``rows`` of a probe batch without building a
        :class:`ScanRecord`: target and time from the batch, the reply
        from the kernel's result columns (a ``ProbeColumns``), which must
        carry no extra replies (only ``raw`` writes those, and a packed
        scan is a simulated one)."""
        if probe.extra:
            raise ValueError("pack_rows takes one reply per row; got extras")
        rows = list(rows)
        hits = list(map(targets.__getitem__, rows))
        split_into(hits, self.target_hi, self.target_lo)
        for name in ("source_hi", "source_lo", "icmp_type", "code", "count"):
            getattr(self, name).extend(map(getattr(probe, name).__getitem__, rows))
        self.time.extend(map(times.__getitem__, rows))

    def to_records(self, intern: "dict[int, int] | None" = None) -> list[ScanRecord]:
        """The rows as records; with ``intern``, every address is the int
        object it holds for that value (added on first sight)."""
        targets = join_columns(self.target_hi, self.target_lo)
        sources = join_columns(self.source_hi, self.source_lo)
        if intern is not None:
            share = intern.setdefault
            targets = [share(value, value) for value in targets]
            sources = [share(value, value) for value in sources]
        columns = (self.icmp_type, self.code, self.count, self.time)
        return list(map(ScanRecord, targets, sources, *columns))


@dataclass(slots=True)
class ScanResult:
    """All records of one scan plus send-side counters.

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
    # Probes quarantined by the resilience layer (ResilientBackend):
    # counted in `sent` and present as quiet no-reply rows, but their
    # silence is a transport fault, not a measurement — this counter is
    # what makes the partial result honest.
    faulted_probes: int = 0

    # ---------------- aggregate counters ---------------- #

    @property
    def received(self) -> int:
        """Matched replies (one per probe/source pair).

        Amplified duplicates are *not* counted here: scan tools dedup
        matched replies, and the paper notes that loop-amplified floods
        are "only visible in raw packet captures" (§7) — that raw volume
        is :attr:`flood_packets`.
        """
        return len(self.records) + self.records_streamed

    @property
    def flood_packets(self) -> int:
        """Unsolicited duplicate packets from loop amplification."""
        return sum(record.count - 1 for record in self.records)

    @property
    def responsive_targets(self) -> int:
        """Distinct probed targets that yielded at least one reply."""
        return len({record.target for record in self.records})

    @property
    def reply_rate(self) -> float:
        """Fraction of probed targets that got any reply."""
        return self.responsive_targets / self.sent if self.sent else 0.0

    # ---------------- source views ---------------- #

    def sources(self) -> set[int]:
        """All distinct reply source addresses."""
        return {record.source for record in self.records}

    def echo_sources(self) -> set[int]:
        return {record.source for record in self.records if record.is_echo}

    def error_sources(self) -> set[int]:
        return {record.source for record in self.records if record.is_error}

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
        for record in self.records:
            if record.is_echo and record.target not in mapping:
                mapping[record.target] = record.source
        return mapping

    # ---------------- persistence ---------------- #

    def write_csv(self, path: str | Path) -> None:
        # Built in memory and written atomically (temp + rename + fsync):
        # a crash mid-write must never leave a torn CSV at the final path.
        atomic_write_text(Path(path), CSV_HEADER + records_csv(self.records))

    def write_jsonl(self, path: str | Path) -> None:
        atomic_write_text(Path(path), records_jsonl(self.records))


def merge_results(name: str, results: Iterable[ScanResult]) -> ScanResult:
    """Concatenate several scans (e.g. shards) into one result.

    Shards of one scan run *concurrently* over the same virtual clock, so
    the merged wall-clock duration is the maximum, not the sum.  The epoch
    is carried over from the inputs (they are expected to agree; the first
    result wins when they do not).
    """
    merged = ScanResult(name=name)
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
        merged.faulted_probes += result.faulted_probes
        merged.duration = max(merged.duration, result.duration)
        merged.records.extend(result.records)
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
