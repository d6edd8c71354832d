"""ASN → network-type database, IPinfo style (Appendix E / Fig. 10)."""

from __future__ import annotations

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
