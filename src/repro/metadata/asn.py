"""Address → ASN mapping, RouteViews style.

The paper maps reply sources to origin ASNs with the RouteViews dataset;
the equivalent here is longest-prefix match against the BGP table.  Note
the caveat the paper calls out: SRA replies sourced from peering-LAN
addresses map to the *provider's* ASN, not the responding router's — the
mapping is faithful to BGP, not to router ownership.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from ..bgp.table import BGPTable


class ASNMapper:
    """Wraps a BGP table as a metadata service."""

    def __init__(self, bgp: BGPTable) -> None:
        self._bgp = bgp

    def asn_of(self, address: int) -> int | None:
        return self._bgp.origin_of(address)

    def asn_histogram(self, addresses: Iterable[int]) -> Counter[int]:
        """How many addresses map to each ASN."""
        histogram: Counter[int] = Counter()
        for address in addresses:
            asn = self._bgp.origin_of(address)
            if asn is not None:
                histogram[asn] += 1
        return histogram

    def top_asns(
        self, addresses: Iterable[int], n: int = 5
    ) -> list[tuple[int, float]]:
        """Top-N ASNs with their share of mapped addresses (Table 3)."""
        histogram = self.asn_histogram(addresses)
        total = sum(histogram.values())
        if total == 0:
            return []
        return [
            (asn, count / total) for asn, count in histogram.most_common(n)
        ]
