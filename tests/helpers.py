"""Test apparatus over the package's objects that no entry point uses."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import pytest

from repro.hitlist.hitlist import Hitlist
from repro.netsim.engine import SimulationEngine
from repro.packet.icmpv6 import ICMPv6Type
from repro.scanner.records import ScanRecord, records_jsonl
from repro.scanner.sharded import ShardedScanRunner
from repro.scanner.stream import LazyStream, MemorySink
from repro.scanner.zmapv6 import ScanConfig, ZMapV6Scanner
from repro.telemetry.scan import ScanTelemetry
from repro.topology.entities import World


def truncate_tail(path: str | Path, drop_bytes: int) -> None:
    """Chop ``drop_bytes`` off a file's tail — a torn write, simulated:
    the crash-mid-write corruption that atomic renames prevent and
    checkpoint CRCs detect."""
    path = Path(path)
    size = path.stat().st_size
    with open(path, "r+b") as handle:
        handle.truncate(max(0, size - drop_bytes))


@contextmanager
def counting_records() -> Iterator[list[int]]:
    """Every ``ScanRecord`` this process builds inside the block, one
    entry each (forked pool workers count in their own memory)."""
    built: list[int] = []
    init = ScanRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ScanRecord, "__init__", counting_init)
        yield built


def all_hosts(world: World) -> Iterator[int]:
    """Every responsive host address in the world."""
    for subnet in world.subnets.values():
        yield from subnet.hosts


def is_time_exceeded(record: ScanRecord) -> bool:
    return record.icmp_type == ICMPv6Type.TIME_EXCEEDED


def extend(hitlist: Hitlist, addresses: Iterable[int]) -> int:
    """Add many addresses to ``hitlist``, returning how many were new."""
    return sum(1 for address in addresses if hitlist.add(address))


@dataclass(frozen=True)
class Cell:
    """One way to run a scan that must not change its bytes: the shard
    count, the batch size, the backend, the shard executor, targets as a
    list or a lazy stream, and rows buffered on the result or drained
    into a sink."""

    shards: int = 1
    batch: int = 1024
    backend: str = "sim"
    executor: str = "serial"
    stream: bool = False
    sink: bool = False

    @property
    def id(self) -> str:
        return "-".join((
            f"{self.shards}sh", f"b{self.batch}", self.backend, self.executor,
            "stream" if self.stream else "list", "sink" if self.sink else "buffered",
        ))


class CellOutput(NamedTuple):
    records: str  # the rows as canonical JSONL
    telemetry: str  # the event stream as JSONL
    prometheus: str


IDENTITY_SCAN = dict(pps=200_000.0, seed=5, progress_every=500)
IDENTITY_EPOCH = 2


def run_cell(world: World, targets: Sequence[int], cell: Cell) -> CellOutput:
    """Scan ``targets`` as ``cell`` says.  The default cell, the
    reference, is a plain ``ZMapV6Scanner``; every other cell goes
    through the ``ShardedScanRunner``, which scans one shard in place."""
    telemetry = ScanTelemetry()
    config = ScanConfig(batch_size=cell.batch, backend=cell.backend, **IDENTITY_SCAN)
    scanned = LazyStream(lambda: list(targets), name="cell") if cell.stream else list(targets)
    sink = MemorySink() if cell.sink else None
    if cell == Cell():
        scanner = ZMapV6Scanner(
            SimulationEngine(world, epoch=IDENTITY_EPOCH), config, telemetry=telemetry
        )
        result = scanner.scan(scanned, name="scan", epoch=IDENTITY_EPOCH, sink=sink)
    else:
        runner = ShardedScanRunner(
            world, shards=cell.shards, executor=cell.executor, telemetry=telemetry
        )
        result = runner.scan(scanned, config, name="scan", epoch=IDENTITY_EPOCH, sink=sink)
    rows = result.rows
    if sink is not None:
        assert not rows and result.records_streamed == len(sink.rows)
        rows = sink.rows
    return CellOutput(records_jsonl(rows), telemetry.to_jsonl(), telemetry.to_prometheus())
