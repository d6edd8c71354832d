"""Test apparatus over the package's objects that no entry point uses."""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator

import pytest

from repro.hitlist.hitlist import Hitlist
from repro.packet.icmpv6 import ICMPv6Type
from repro.scanner.records import ScanRecord
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
