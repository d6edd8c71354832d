"""An in-memory IRR database of route6 objects."""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator

from ..addr.ipv6 import IPv6Prefix
from .rpsl import Route6Object


class IRRDatabase:
    """A collection of route6 objects, keyed by (prefix, origin).

    Real IRRs allow several origins to register the same prefix; we keep
    all of them and expose both per-prefix and per-origin views.
    """

    def __init__(self, objects: Iterable[Route6Object] = ()) -> None:
        self._objects: dict[tuple[IPv6Prefix, int], Route6Object] = {}
        for obj in objects:
            self.add(obj)

    def add(self, obj: Route6Object) -> None:
        self._objects[(obj.prefix, obj.origin_asn)] = obj

    def remove(self, prefix: IPv6Prefix, origin_asn: int) -> bool:
        return self._objects.pop((prefix, origin_asn), None) is not None

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[Route6Object]:
        return iter(self._objects.values())

    def prefixes(self) -> list[IPv6Prefix]:
        """Distinct registered prefixes, sorted."""
        # By key: the same (network, length) order as IPv6Prefix's
        # generated comparisons, without a Python-level call per compare.
        return sorted(
            {prefix for prefix, _ in self._objects},
            key=attrgetter("network", "length"),
        )
