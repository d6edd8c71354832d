"""Hitlist containers: lists of (purportedly) active IPv6 host addresses.

Models the TUM IPv6 Hitlist service role in the paper: a community list of
active end hosts, compiled from many sources, that the survey converts to
/64 SRA targets.  Hitlists go stale — addresses observed "at some point in
the past" may be gone — which is why the paper's response rates matter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..addr.partition import STAGE3_LENGTH, hitlist_targets


@dataclass(slots=True)
class Hitlist:
    """An ordered, deduplicated list of host addresses with provenance."""

    name: str = "hitlist"
    _addresses: list[int] = field(default_factory=list)
    _seen: set[int] = field(default_factory=set)

    def add(self, address: int) -> bool:
        """Add an address; False if it was already present."""
        if address in self._seen:
            return False
        self._seen.add(address)
        self._addresses.append(address)
        return True

    def __len__(self) -> int:
        return len(self._addresses)

    def __iter__(self) -> Iterator[int]:
        return iter(self._addresses)

    def __contains__(self, address: int) -> bool:
        return address in self._seen

    def addresses(self) -> list[int]:
        return list(self._addresses)

    def unique_slash64s(self) -> list[int]:
        """Distinct /64 SRA targets derived from the host addresses.

        This is the construction that turned the 2.5 B-address TUM hitlist
        into 700 M /64 targets in the paper.
        """
        return list(hitlist_targets(self._addresses, subnet_length=STAGE3_LENGTH))
