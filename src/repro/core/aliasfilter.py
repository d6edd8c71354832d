"""The survey's alias filter (§3.1 "IPv6 Alias Resolution").

Aliased networks answer Echo on *every* address, so their replies would
masquerade as router discoveries.  The paper filters in two steps:

1. drop replies whose source equals the probed SRA address — SRA addresses
   are typically not assigned to hosts, so a reply *from* the ``::0``
   address marks the subnet as aliased,
2. drop replies whose source falls inside the community aliased-prefix
   list (the TUM hitlist service's list).

This is deliberately a cheap approximation (the paper accepts a small
misclassification rate to keep scan performance); the trade-off is
quantified by the alias ablation benchmark.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from itertools import compress
from operator import and_, eq, not_, or_

from ..hitlist.aliases import AliasedPrefixList
from ..packet.icmpv6 import ICMPv6Type
from ..scanner.records import ScanRecord, ScanResult

@dataclass(frozen=True, slots=True)
class AliasFilterStats:
    """How many records each filter rule dropped."""

    kept: int
    dropped_self_reply: int
    dropped_alias_list: int

    @property
    def dropped(self) -> int:
        return self.dropped_self_reply + self.dropped_alias_list


def is_self_reply(record: ScanRecord) -> bool:
    """Reply sourced from the probed SRA address itself."""
    return record.is_echo and record.source == record.target


def filter_aliased(
    result: ScanResult,
    alias_list: AliasedPrefixList | None = None,
) -> tuple[ScanResult, AliasFilterStats]:
    """Return a copy of ``result`` with alias artefacts removed.

    Also drops *all* records of any target identified as aliased by rule 1
    — once the subnet is known to answer on everything, none of its replies
    are evidence of a router.  Reads the rows as columns, looks each
    distinct source up once, and builds no record.
    """
    rows = result.columns()
    # Rule 1 (:func:`is_self_reply`), in full only where the low halves match.
    echo = map(int(ICMPv6Type.ECHO_REPLY).__eq__, rows.icmp_type)
    same = rows.select(bytes(map(and_, echo, map(eq, rows.source_lo, rows.target_lo))))
    aliased = {t for t, s in zip(same.addresses("target"), same.addresses("source")) if t == s}
    listed = set()
    if alias_list is not None:
        listed = set(alias_list.listed([*set(rows.addresses("source"))]))
    by_target = _rows_among(rows.target_hi, rows.target_lo, aliased)
    by_list = _rows_among(rows.source_hi, rows.source_lo, listed)
    keep = bytes(map(not_, map(or_, by_target, by_list)))
    kept = keep.count(1)
    if kept < len(rows):
        rows = rows.select(keep)
    filtered = replace(result, records=rows)
    dropped_self = by_target.count(1)
    stats = AliasFilterStats(
        kept=kept,
        dropped_self_reply=dropped_self,
        dropped_alias_list=len(keep) - kept - dropped_self,
    )
    return filtered, stats


def _rows_among(hi: array, lo: array, addresses: set[int]) -> bytes:
    """Per row, whether its address (halves ``hi``, ``lo``) is one of
    ``addresses``, tested in full only where the high half is."""
    among = bytearray(map({address >> 64 for address in addresses}.__contains__, hi))
    for row in compress(range(len(among)), bytes(among)):
        among[row] = (hi[row] << 64 | lo[row]) in addresses
    return bytes(among)
