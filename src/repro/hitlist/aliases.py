"""The aliased-prefix list: networks that answer on *every* address.

Fully-responsive ("aliased") prefixes would inflate any active-address
count; the TUM hitlist service publishes a list of detected aliased
prefixes, and the paper's alias filter checks reply sources against it
(§3.1 "IPv6 Alias Resolution").
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, Sequence

from ..addr.ipv6 import IPv6Prefix
from ..bgp.lpm import LengthIndexedLPM


class AliasedPrefixList:
    """A prefix set with containment queries, mirroring the TUM alias list."""

    def __init__(self, prefixes: Iterable[IPv6Prefix] = ()) -> None:
        self._lpm: LengthIndexedLPM[bool] = LengthIndexedLPM()
        self._prefixes: set[IPv6Prefix] = set()
        for prefix in prefixes:
            self.add(prefix)

    def add(self, prefix: IPv6Prefix) -> None:
        if prefix not in self._prefixes:
            self._prefixes.add(prefix)
            self._lpm.insert(prefix, True)

    def __len__(self) -> int:
        return len(self._prefixes)

    def __iter__(self) -> Iterator[IPv6Prefix]:
        return iter(sorted(self._prefixes))

    def contains_address(self, address: int) -> bool:
        """True if ``address`` falls inside any known aliased prefix."""
        return self._lpm.longest_match(address) is not None

    def listed(self, addresses: Sequence[int]) -> list[int]:
        """The ``addresses`` inside any known aliased prefix, in one batch."""
        found: list = [None] * len(addresses)
        self._lpm.longest_match_batch(addresses, range(len(addresses)), found)
        return list(compress(addresses, found))
