"""The global BGP view: announcements mapping prefixes to origin ASNs.

This models what a route collector (RouteViews / RIS) exports: the set of
globally visible IPv6 prefixes with their origin AS.  The SRA survey's
stage-1/2/3 target construction consumes :meth:`BGPTable.prefixes`; the
metadata layer uses :meth:`BGPTable.origin_of` for address→ASN mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator

from ..addr.ipv6 import IPv6Prefix, set_slots
from .lpm import LengthIndexedLPM


@dataclass(frozen=True, slots=True)
class Announcement:
    """One visible BGP route: a prefix and the AS originating it."""

    prefix: IPv6Prefix
    origin_asn: int
    __setstate__ = set_slots

    def __str__(self) -> str:
        return f"{self.prefix} AS{self.origin_asn}"


class BGPTable:
    """A set of BGP announcements with prefix-tree queries."""

    def __init__(self, announcements: Iterable[Announcement] = ()) -> None:
        self._trie: LengthIndexedLPM[int] = LengthIndexedLPM()
        self._announcements: dict[IPv6Prefix, Announcement] = {}
        for announcement in announcements:
            self.add(announcement)

    def add(self, announcement: Announcement) -> None:
        """Add (or replace) the route for the announcement's prefix."""
        self._announcements[announcement.prefix] = announcement
        self._trie.insert(announcement.prefix, announcement.origin_asn)

    def withdraw(self, prefix: IPv6Prefix) -> bool:
        """Remove the route for ``prefix``; True if it existed."""
        if prefix not in self._announcements:
            return False
        del self._announcements[prefix]
        self._trie.remove(prefix)
        return True

    def __len__(self) -> int:
        return len(self._announcements)

    def __contains__(self, prefix: IPv6Prefix) -> bool:
        return prefix in self._announcements

    def __iter__(self) -> Iterator[Announcement]:
        return iter(self._announcements.values())

    def prefixes(self) -> list[IPv6Prefix]:
        """All announced prefixes, sorted (covering before more-specific)."""
        # By key: the same (network, length) order as IPv6Prefix's
        # generated comparisons, without a Python-level call per compare.
        return sorted(self._announcements, key=attrgetter("network", "length"))

    @property
    def lpm(self) -> LengthIndexedLPM[int]:
        """The underlying LPM index (prefix, origin ASN).

        Exposed for batched lookups: the probe hot path calls
        ``table.lpm.longest_match_batch`` once per batch, in probe order,
        instead of one :meth:`origin_of` per target.  Treat as read-only; mutate
        through :meth:`add`/:meth:`withdraw` so the announcement map and
        the index stay in lockstep.
        """
        return self._trie

    def origin_of(self, address: int) -> int | None:
        """Origin ASN by longest-prefix match, None if unrouted."""
        match = self._trie.longest_match(address)
        return None if match is None else match[1]

    def matching_prefix(self, address: int) -> IPv6Prefix | None:
        """The most specific announced prefix containing ``address``."""
        match = self._trie.longest_match(address)
        return None if match is None else match[0]

    def is_routed(self, address: int) -> bool:
        return self._trie.longest_match(address) is not None

    def has_cover(self, prefix: IPv6Prefix, *, strict: bool = False) -> bool:
        """True if an announcement covers ``prefix`` (shorter only if strict)."""
        return self._trie.has_cover(prefix, strict=strict)

    def freeze_lookups(self) -> None:
        """Swap the LPM index for a frozen array-backed snapshot.

        Lookups (``origin_of``, ``lpm.longest_match_batch``, …) stay
        bit-identical; :meth:`add`/:meth:`withdraw` raise afterwards.
        Artifact-loaded worlds call this — their tables are static and the
        frozen columns are cheaper to keep per worker than dicts; a cache
        miss costs one hash probe of the longest row's per-process index,
        else one bisect (:mod:`repro.bgp.blockcache`), whatever the number
        of announced lengths.
        """
        self._trie = self._trie.frozen()  # type: ignore[assignment]
