"""An in-memory IRR database of route6 objects with file I/O."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

from ..addr.ipv6 import IPv6Prefix
from .rpsl import Route6Object, parse_database, serialize_database


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
        return sorted({prefix for prefix, _ in self._objects})

    @classmethod
    def load(cls, path: str | Path) -> "IRRDatabase":
        text = Path(path).read_text(encoding="utf-8")
        return cls(parse_database(text))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            serialize_database(list(self._objects.values())), encoding="utf-8"
        )
