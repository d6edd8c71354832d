"""ASN → network-type database, IPinfo style (Appendix E / Fig. 10)."""

from __future__ import annotations

from pathlib import Path

from ..topology.entities import ASType, World


class ASTypeDatabase:
    """ASN → :class:`ASType` lookups."""

    def __init__(self, mapping: dict[int, ASType] | None = None) -> None:
        self._mapping: dict[int, ASType] = dict(mapping or {})

    def add(self, asn: int, as_type: ASType) -> None:
        self._mapping[asn] = as_type

    def __len__(self) -> int:
        return len(self._mapping)

    def type_of(self, asn: int) -> ASType | None:
        return self._mapping.get(asn)

    @classmethod
    def from_world(cls, world: World) -> "ASTypeDatabase":
        return cls({asn: info.as_type for asn, info in world.ases.items()})

    @classmethod
    def load(cls, path: str | Path) -> "ASTypeDatabase":
        """Load ``<asn> <type>`` lines."""
        database = cls()
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                asn_text, _, type_text = text.partition(" ")
                database.add(int(asn_text), ASType(type_text.strip()))
        return database

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for asn in sorted(self._mapping):
                handle.write(f"{asn} {self._mapping[asn].value}\n")
